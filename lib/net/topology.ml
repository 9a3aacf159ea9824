module Json = Rcbr_util.Json

type link = { src : int; dst : int; capacity : float }
type t = { n_nodes : int; links : link array; routes : int array array }

let make ~n_nodes ~links ~routes =
  if n_nodes < 1 then invalid_arg "Topology.make: need at least one node";
  Array.iteri
    (fun i l ->
      if l.capacity <= 0. then
        invalid_arg (Printf.sprintf "Topology.make: link %d capacity <= 0" i);
      if l.src < 0 || l.src >= n_nodes || l.dst < 0 || l.dst >= n_nodes then
        invalid_arg (Printf.sprintf "Topology.make: link %d endpoint out of range" i))
    links;
  if Array.length routes = 0 then invalid_arg "Topology.make: no routes";
  Array.iteri
    (fun r route ->
      if Array.length route = 0 then
        invalid_arg (Printf.sprintf "Topology.make: route %d is empty" r);
      Array.iteri
        (fun h id ->
          if id < 0 || id >= Array.length links then
            invalid_arg
              (Printf.sprintf "Topology.make: route %d link id %d out of range" r id);
          if h > 0 && links.(id).src <> links.(route.(h - 1)).dst then
            invalid_arg
              (Printf.sprintf "Topology.make: route %d breaks at hop %d" r h))
        route)
    routes;
  { n_nodes; links; routes }

let single_link ~capacity =
  make ~n_nodes:2
    ~links:[| { src = 0; dst = 1; capacity } |]
    ~routes:[| [| 0 |] |]

let linear ~hops ~capacity =
  if hops < 1 then invalid_arg "Topology.linear: hops < 1";
  make ~n_nodes:(hops + 1)
    ~links:(Array.init hops (fun h -> { src = h; dst = h + 1; capacity }))
    ~routes:[| Array.init hops (fun h -> h) |]

let parallel_routes ~routes ~hops ~capacity =
  if routes < 1 then invalid_arg "Topology.parallel_routes: routes < 1";
  if hops < 1 then invalid_arg "Topology.parallel_routes: hops < 1";
  (* Node 0 is the source, node 1 the sink; route [r]'s interior nodes
     are [2 + r*(hops-1) ..].  Link id [r*hops + h] keeps the historical
     (route, hop) flattening. *)
  let interior r h = 2 + (r * (hops - 1)) + h in
  let links =
    Array.init (routes * hops) (fun i ->
        let r = i / hops and h = i mod hops in
        let src = if h = 0 then 0 else interior r (h - 1) in
        let dst = if h = hops - 1 then 1 else interior r h in
        { src; dst; capacity })
  in
  make
    ~n_nodes:(2 + (routes * (hops - 1)))
    ~links
    ~routes:(Array.init routes (fun r -> Array.init hops (fun h -> (r * hops) + h)))

let grid ~rows ~cols ~capacity =
  if rows < 2 || cols < 2 then invalid_arg "Topology.grid: need rows, cols >= 2";
  let node r c = (r * cols) + c in
  let n_east = rows * (cols - 1) in
  (* East link (r,c) -> (r,c+1) is id [r*(cols-1) + c]; south link
     (r,c) -> (r+1,c) is id [n_east + r*cols + c]. *)
  let east r c = (r * (cols - 1)) + c in
  let south r c = n_east + (r * cols) + c in
  let links =
    Array.init (n_east + ((rows - 1) * cols)) (fun i ->
        if i < n_east then
          let r = i / (cols - 1) and c = i mod (cols - 1) in
          { src = node r c; dst = node r (c + 1); capacity }
        else
          let j = i - n_east in
          let r = j / cols and c = j mod cols in
          { src = node r c; dst = node (r + 1) c; capacity })
  in
  let row_route r = Array.init (cols - 1) (fun c -> east r c) in
  let col_route c = Array.init (rows - 1) (fun r -> south r c) in
  (* Corner-to-corner staircase alternating east/south steps (or
     south/east), so some routes cross both the row and column sets. *)
  let stair first_east =
    let buf = ref [] in
    let r = ref 0 and c = ref 0 in
    let go_east = ref first_east in
    while !r < rows - 1 || !c < cols - 1 do
      let can_e = !c < cols - 1 and can_s = !r < rows - 1 in
      if (!go_east && can_e) || not can_s then begin
        buf := east !r !c :: !buf;
        incr c
      end
      else begin
        buf := south !r !c :: !buf;
        incr r
      end;
      go_east := not !go_east
    done;
    Array.of_list (List.rev !buf)
  in
  let routes =
    Array.concat
      [
        Array.init rows row_route;
        Array.init cols col_route;
        [| stair true; stair false |];
      ]
  in
  make ~n_nodes:(rows * cols) ~links ~routes

let n_links t = Array.length t.links
let n_routes t = Array.length t.routes
let route_lengths t = Array.map Array.length t.routes

(* Shape errors inside the JSON walk carry their own descriptions; the
   local exception turns the walk into a result without threading [let*]
   through every field access. *)
exception Shape of string

let of_json json =
  let fail what = raise (Shape what) in
  let int what = function
    | Json.Int i -> i
    | _ -> fail (what ^ ": expected an integer")
  in
  let number what = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> fail (what ^ ": expected a number")
  in
  let list what = function
    | Json.List l -> l
    | _ -> fail (what ^ ": expected a list")
  in
  let field key obj =
    match Json.member key obj with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing %S" key)
  in
  match
    let n_nodes = int "nodes" (field "nodes" json) in
    let links =
      field "links" json
      |> list "links"
      |> List.mapi (fun i l ->
             let what key = Printf.sprintf "links[%d].%s" i key in
             {
               src = int (what "src") (field "src" l);
               dst = int (what "dst") (field "dst" l);
               capacity = number (what "capacity") (field "capacity" l);
             })
      |> Array.of_list
    in
    let routes =
      field "routes" json
      |> list "routes"
      |> List.mapi (fun r route ->
             list (Printf.sprintf "routes[%d]" r) route
             |> List.map (int (Printf.sprintf "routes[%d] entry" r))
             |> Array.of_list)
      |> Array.of_list
    in
    make ~n_nodes ~links ~routes
  with
  | t -> Ok t
  | exception Shape msg -> Error ("bad topology: " ^ msg)
  | exception Invalid_argument msg ->
      (* [make]'s semantic checks: nonpositive capacities, endpoints or
         route hops out of range, broken chains, no routes. *)
      Error ("bad topology: " ^ msg)

let load path =
  match Json.load path with
  | exception Json.Parse_error msg ->
      Error (Printf.sprintf "%s: not valid JSON: %s" path msg)
  | exception Sys_error msg -> Error msg
  | json -> (
      match of_json json with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let pp ppf t =
  Fmt.pf ppf "%d nodes, %d links, %d routes (%a hops)" t.n_nodes
    (Array.length t.links) (Array.length t.routes)
    Fmt.(array ~sep:(any "/") int)
    (route_lengths t)

type spec = Single | Linear of int | Mesh of string

let spec_of_string s =
  match String.split_on_char ':' s with
  | [ "single" ] -> Ok Single
  | [ "linear"; h ] -> (
      match int_of_string_opt h with
      | Some hops when hops >= 1 -> Ok (Linear hops)
      | _ -> Error (Printf.sprintf "bad hop count in %S" s))
  | "mesh" :: (_ :: _ as rest) -> Ok (Mesh (String.concat ":" rest))
  | _ ->
      Error
        (Printf.sprintf "topology %S is not single, linear:HOPS or mesh:FILE" s)

let pp_spec ppf = function
  | Single -> Format.pp_print_string ppf "single"
  | Linear h -> Format.fprintf ppf "linear:%d" h
  | Mesh f -> Format.fprintf ppf "mesh:%s" f

let of_spec ~capacity = function
  | Single -> Ok (single_link ~capacity)
  | Linear hops -> Ok (linear ~hops ~capacity)
  | Mesh file -> load file
