type t = {
  capacity : float;
  blackouts : (float * float) array;
  mutable demand : float;
  mutable last : float;
  mutable offered_bits : float;
  mutable lost_bits : float;
  mutable granted_bits : float;
  mutable call_seconds : float;
  mutable n_calls : int;
}

let create ?(blackouts = [||]) ~capacity () =
  assert (capacity > 0.);
  {
    capacity;
    blackouts;
    demand = 0.;
    last = 0.;
    offered_bits = 0.;
    lost_bits = 0.;
    granted_bits = 0.;
    call_seconds = 0.;
    n_calls = 0;
  }

let advance link ~now =
  let dt = now -. link.last in
  if dt > 0. then begin
    link.offered_bits <- link.offered_bits +. (link.demand *. dt);
    link.granted_bits <-
      link.granted_bits +. (Float.min link.demand link.capacity *. dt);
    link.lost_bits <-
      link.lost_bits +. (Float.max 0. (link.demand -. link.capacity) *. dt);
    link.call_seconds <- link.call_seconds +. (float_of_int link.n_calls *. dt);
    link.last <- now
  end

let reset_window link =
  link.offered_bits <- 0.;
  link.lost_bits <- 0.;
  link.granted_bits <- 0.;
  link.call_seconds <- 0.

let down link ~now =
  let windows = link.blackouts in
  let n = Array.length windows in
  n > 0
  && begin
       (* Rightmost window starting at or before [now]. *)
       let lo = ref 0 and hi = ref n in
       while !lo < !hi do
         let mid = (!lo + !hi) / 2 in
         if fst windows.(mid) <= now then lo := mid + 1 else hi := mid
       done;
       !lo > 0 && now < snd windows.(!lo - 1)
     end

let compile_blackouts windows =
  let windows = List.filter (fun (a, r) -> r > a) windows in
  let windows =
    List.sort
      (fun (a1, r1) (a2, r2) ->
        match Float.compare a1 a2 with 0 -> Float.compare r1 r2 | c -> c)
      windows
  in
  let merged =
    List.fold_left
      (fun acc (a, r) ->
        match acc with
        | (a0, r0) :: rest when a <= r0 -> (a0, Float.max r0 r) :: rest
        | _ -> (a, r) :: acc)
      [] windows
  in
  Array.of_list (List.rev merged)

let of_topology ?(crashes = []) (topo : Topology.t) =
  let n = Topology.n_links topo in
  let per_link = Array.make n [] in
  List.iter
    (fun (id, a, r) ->
      if id >= 0 && id < n then per_link.(id) <- (a, r) :: per_link.(id))
    crashes;
  Array.init n (fun i ->
      create
        ~blackouts:(compile_blackouts per_link.(i))
        ~capacity:topo.Topology.links.(i).Topology.capacity ())
