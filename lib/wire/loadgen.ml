module Topology = Rcbr_net.Topology
module Rng = Rcbr_util.Rng

type op =
  | Op_setup of { call : int; route : int array; transit : bool; rate : float }
  | Op_reneg of { call : int; rate : float }
  | Op_delta of { call : int; delta : float }
  | Op_resync of { call : int; rate : float }
  | Op_teardown of { call : int }

let message_of_op ~req = function
  | Op_setup { call; route; transit; rate } ->
      Codec.Setup { req; call; route; transit; rate }
  | Op_reneg { call; rate } -> Codec.Renegotiate { req; call; rate }
  | Op_delta { call; delta } -> Codec.Delta { vci = call; delta }
  | Op_resync { call; rate } -> Codec.Resync { vci = call; rate }
  | Op_teardown { call } -> Codec.Teardown { req; call }

let storm ~topology ~calls ~rounds ~rate_max ~rm_fraction ~seed ~conns =
  if calls < 0 then invalid_arg "Loadgen.storm: calls < 0";
  if conns < 1 then invalid_arg "Loadgen.storm: conns < 1";
  if not (rate_max > 0.) then invalid_arg "Loadgen.storm: rate_max <= 0";
  if not (rm_fraction >= 0. && rm_fraction <= 1.) then
    invalid_arg "Loadgen.storm: rm_fraction outside [0,1]";
  let n_routes = Topology.n_routes topology in
  let per_conn = Array.init conns (fun c -> Rng.create (seed + (1000 * c))) in
  let ops = Array.make conns [] in
  let push c op = ops.(c) <- op :: ops.(c) in
  let conn_of call = call mod conns in
  (* The client's model of each call's rate, mirrored from the op
     semantics so deltas stay sensible (never driving the rate
     negative on the wire model). *)
  let believed = Array.make (max calls 1) 0. in
  (* Setups first, then [rounds] interleaved renegotiation waves over
     all calls, then teardowns — a storm, not per-call bursts. *)
  for call = 0 to calls - 1 do
    let c = conn_of call in
    let rng = per_conn.(c) in
    let rate = Rng.float_range rng 0.1 (0.25 *. rate_max) in
    believed.(call) <- rate;
    push c
      (Op_setup
         {
           call;
           route = topology.Topology.routes.(call mod n_routes);
           transit = Array.length topology.Topology.routes.(call mod n_routes) > 1;
           rate;
         })
  done;
  for round = 0 to rounds - 1 do
    for call = 0 to calls - 1 do
      let c = conn_of call in
      let rng = per_conn.(c) in
      let target = Rng.float_range rng 0. rate_max in
      if Rng.float rng < rm_fraction then begin
        push c (Op_delta { call; delta = target -. believed.(call) });
        believed.(call) <- target;
        if round mod 3 = 2 then push c (Op_resync { call; rate = target })
      end
      else begin
        push c (Op_reneg { call; rate = target });
        believed.(call) <- target
      end
    done
  done;
  for call = 0 to calls - 1 do
    push (conn_of call) (Op_teardown { call })
  done;
  Array.map List.rev ops

(* --- request bookkeeping ---------------------------------------------- *)

let backoff ~base ~attempt = base *. (2. ** float_of_int attempt)

type outcome =
  | Acked of float
  | Denied of Codec.deny_reason
  | Gave_up
  | Sent

(* FNV-1a over the (req, outcome) stream in request-id order.  The mix
   stays inside OCaml's 63-bit int; masking keeps the printed digest
   stable across platforms with the same int width. *)
let outcome_hash outcomes =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) outcomes
  in
  let mix h v = (h lxor v) * 0x100000001b3 land max_int in
  List.fold_left
    (fun h (req, outcome) ->
      let h = mix h req in
      match outcome with
      | Acked r -> mix (mix h 1) (Int64.to_int (Int64.bits_of_float r) land max_int)
      | Denied reason ->
          mix (mix h 2)
            (match reason with
            | Codec.Capacity -> 10
            | Codec.Blackout -> 11
            | Codec.Unknown_call -> 12
            | Codec.Duplicate_call -> 13
            | Codec.Bad_route -> 14
            | Codec.Draining -> 15
            | Codec.Downgraded -> 16)
      | Gave_up -> mix h 3
      | Sent -> mix h 4)
    0x2545F4914F6CDD1D sorted
