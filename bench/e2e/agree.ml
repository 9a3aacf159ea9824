(* Compare two sets of end-to-end records (parent A, change B) metric by
   metric and workload by workload, against the bounds BENCHMARK.json
   fixes.

   - [worse]: B's median is worse than A's by more than the bound;
   - [unresolved]: the run-to-run spread of either side is wider than
     the bound, so the medians cannot be told apart — unless every run
     of B beats every run of A, which counts as [ok];
   - [ok] otherwise. *)

module Json = Rcbr_util.Json

type bound = { metric : string; higher_is_better : bool; bound : float }

let bounds_of_benchmark j =
  match Json.member "end_to_end" j with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match
            (Json.member "name" m, Json.member "better" m, Json.member "bound" m)
          with
          | Some (Json.String metric), Some (Json.String better), Some b ->
              let bound =
                match b with
                | Json.Float f -> f
                | Json.Int i -> float_of_int i
                | _ -> failwith ("BENCHMARK.json: bad bound for " ^ metric)
              in
              { metric; higher_is_better = String.equal better "higher"; bound }
          | _ -> failwith "BENCHMARK.json: malformed end_to_end entry")
        ms
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

type verdict = Ok | Worse | Unresolved

let verdict_name = function Ok -> "ok" | Worse -> "worse" | Unresolved -> "unresolved"

(* Worsening of [b] relative to [a] as a share of [a]: positive is
   worse. *)
let worsening ~higher_is_better a b =
  if higher_is_better then (a -. b) /. a else (b -. a) /. a

let judge { higher_is_better; bound; _ } a b =
  let med_a = Pct.median a and med_b = Pct.median b in
  let better y x = Float.compare (worsening ~higher_is_better x y) 0. < 0 in
  let b_always_better =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
  in
  if Float.compare (Float.max (Pct.spread a) (Pct.spread b)) bound > 0 then
    if b_always_better then Ok else Unresolved
  else if Float.compare (worsening ~higher_is_better med_a med_b) bound > 0 then Worse
  else Ok

(* Untraced records of one directory: workload -> metric -> values. *)
let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let j = Json.load (Filename.concat dir f) in
         match (Json.member "workload" j, Json.member "trace" j, Json.member "metrics" j) with
         | Some (Json.String w), Some (Json.Bool false), Some (Json.Obj ms) ->
             Some
               ( w,
                 List.filter_map
                   (fun (name, m) ->
                     match Json.member "value" m with
                     | Some (Json.Float v) -> Some (name, v)
                     | Some (Json.Int v) -> Some (name, float_of_int v)
                     | _ -> None)
                   ms )
         | _ -> None)

let values records ~workload ~metric =
  List.filter_map
    (fun (w, ms) -> if String.equal w workload then List.assoc_opt metric ms else None)
    records
  |> Array.of_list

type row = {
  workload : string;
  metric : string;
  median_a : float;
  median_b : float;
  spread_a : float;
  spread_b : float;
  verdict : verdict;
}

let compare_sets bounds a b =
  let workloads = List.sort_uniq String.compare (List.map fst a) in
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (bd : bound) ->
          let va = values a ~workload ~metric:bd.metric
          and vb = values b ~workload ~metric:bd.metric in
          if Array.length va = 0 || Array.length vb = 0 then None
          else
            Some
              {
                workload;
                metric = bd.metric;
                median_a = Pct.median va;
                median_b = Pct.median vb;
                spread_a = Pct.spread va;
                spread_b = Pct.spread vb;
                verdict = judge bd va vb;
              })
        bounds)
    workloads

let print_rows rows =
  Printf.printf "%-16s %-16s %14s %14s %8s %8s %8s  %s\n" "workload" "metric" "median A"
    "median B" "change" "spread A" "spread B" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n" r.workload
        r.metric r.median_a r.median_b
        (100. *. (r.median_b -. r.median_a) /. r.median_a)
        (100. *. r.spread_a) (100. *. r.spread_b) (verdict_name r.verdict))
    rows
