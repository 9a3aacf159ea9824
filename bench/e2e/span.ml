(* In-memory span recorder for the traced run.

   A span is a named interval around one call into a layer, with the
   span that caused it as parent and, on the signalling path, the
   request id it served.  Spans are stored column-wise, so recording
   costs one clock read and a few array stores, and are written out as
   JSONL only when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;  (** -1: a root *)
  mutable reqs : int array;  (** -1: not tied to a request *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    reqs = Array.make cap (-1);
  }

let length t = t.n

let grow t =
  let cap = 2 * Array.length t.starts in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs (-1)

(* Record a finished span; returns its id. *)
let add t ?(parent = -1) ?(req = -1) name ~start ~stop =
  if t.n = Array.length t.starts then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.reqs.(i) <- req;
  t.n <- i + 1;
  i

(* Open a span now; {!leave} closes it.  Children may be added between
   the two, naming this span's id as parent. *)
let enter t ?parent ?req name =
  let now = now_ns () in
  add t ?parent ?req name ~start:now ~stop:now

let leave t i = t.stops.(i) <- now_ns ()

let within t ?parent ?req name f =
  let i = enter t ?parent ?req name in
  let r = f i in
  leave t i;
  r

let duration_ns t i = t.stops.(i) - t.starts.(i)

(* Self time of every span: its duration minus the part of its interval
   that the union of its children's intervals covers.  Children may
   overlap (two requests in flight), so covered time is a merged union,
   not a sum. *)
let self_ns t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 && p < t.n then kids.(p) <- i :: kids.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.starts.(i) and hi = t.stops.(i) in
      let clipped =
        List.filter_map
          (fun c ->
            let s = max lo t.starts.(c) and e = min hi t.stops.(c) in
            if e > s then Some (s, e) else None)
          kids.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (s, e) ->
            let s = max s reach in
            if e > s then (acc + (e - s), e) else (acc, reach))
          (0, lo) clipped
      in
      hi - lo - covered)

type summary = { name : string; count : int; total_s : float; self_s : float }

(* Per-name totals, in name order. *)
let summarize t =
  let self = self_ns t in
  let by_name = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let c, tot, sf =
      Option.value (Hashtbl.find_opt by_name t.names.(i)) ~default:(0, 0, 0)
    in
    Hashtbl.replace by_name t.names.(i)
      (c + 1, tot + duration_ns t i, sf + self.(i))
  done;
  List.map
    (fun (name, (count, tot, sf)) ->
      {
        name;
        count;
        total_s = float_of_int tot *. 1e-9;
        self_s = float_of_int sf *. 1e-9;
      })
    (Rcbr_util.Tables.sorted_bindings by_name)

let durations_ns t name =
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if String.equal t.names.(i) name then
      out := float_of_int (duration_ns t i) :: !out
  done;
  Array.of_list !out

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let opt v = if v < 0 then "null" else string_of_int v in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"req\":%s}\n"
      i
      (Rcbr_util.Json.to_string (Rcbr_util.Json.String t.names.(i)))
      t.starts.(i) t.stops.(i) (opt t.parents.(i)) (opt t.reqs.(i))
  done
