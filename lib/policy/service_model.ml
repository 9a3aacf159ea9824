module Schedule = Rcbr_core.Schedule

type t =
  | Renegotiate
  | Downgrade of { tiers : float array }
  | Mts_profile of Mts.profile

type decision =
  | Grant
  | Downgrade_to of { granted : float; tier : int }
  | Police_to of { granted : float }
  | Settle_floor of { granted : float; tier : int }

let name = function
  | Renegotiate -> "renegotiate"
  | Downgrade _ -> "downgrade"
  | Mts_profile _ -> "mts"

let validate = function
  | Renegotiate -> ()
  | Downgrade { tiers } ->
      assert (Array.length tiers >= 1);
      Array.iteri
        (fun i r ->
          assert (r > 0.);
          if i > 0 then assert (tiers.(i - 1) < r))
        tiers
  | Mts_profile p -> Mts.validate p

let granted_rate decision ~demanded =
  match decision with
  | Grant -> demanded
  | Downgrade_to { granted; _ } | Police_to { granted }
  | Settle_floor { granted; _ } ->
      granted

let downgraded = function
  | Grant -> false
  | Downgrade_to _ | Police_to _ | Settle_floor _ -> true

type denial = Not_denied | Denied | Denied_unless_fits

let denial decision ~increase =
  if not increase then Not_denied
  else
    match decision with
    | Settle_floor _ -> Denied
    | Grant -> Denied_unless_fits
    | Downgrade_to _ | Police_to _ -> Not_denied

let decide_tiers ~tiers ~demanded ~fits =
  if fits demanded then Grant
  else begin
    (* Walk the ladder downward from the highest tier strictly below
       the demanded rate; grant the first that fits.  If nothing fits —
       including the floor — the call settles at the floor anyway
       (settle semantics: the overload shows up in the accounting). *)
    let k = ref (Array.length tiers - 1) in
    while !k >= 0 && tiers.(!k) >= demanded do
      decr k
    done;
    let rec walk k =
      if k < 0 then
        Settle_floor { granted = Float.min demanded tiers.(0); tier = 0 }
      else if fits tiers.(k) then Downgrade_to { granted = tiers.(k); tier = k }
      else walk (k - 1)
    in
    walk !k
  end

let upgrade ~tiers ~demanded ~applied ~fits =
  if demanded <= applied then None
  else if fits demanded then Some demanded
  else begin
    (* Highest tier above the applied rate and at most the demanded
       rate that fits; partial restorations are fine — the next spare-
       capacity event climbs further. *)
    let k = ref (Array.length tiers - 1) in
    while !k >= 0 && tiers.(!k) > demanded do
      decr k
    done;
    let rec walk k =
      if k < 0 || tiers.(k) <= applied then None
      else if fits tiers.(k) then Some tiers.(k)
      else walk (k - 1)
    in
    walk !k
  end

let tiers_of_schedule schedule ~n =
  assert (n >= 1);
  let segs = Schedule.segments schedule in
  let rates =
    Array.to_list (Array.map (fun s -> s.Schedule.rate) segs)
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  let m = Array.length rates in
  if n >= m then rates
  else
    (* Evenly spaced picks including the min and max rate, deduped. *)
    Array.init n (fun i -> rates.(i * (m - 1) / (max 1 (n - 1))))
    |> Array.to_list |> List.sort_uniq Float.compare |> Array.of_list

let spec_doc =
  "renegotiate (settle semantics, the paper's RCBR service), downgrade \
   (tiered admission with opportunistic upgrades; optionally \
   downgrade:N for an N-tier ladder or downgrade:R1,R2,... for \
   explicit rates in b/s), or mts (multi-timescale token-bucket \
   profile policing)"

let parse_tier_list arg =
  let parts = String.split_on_char ',' arg in
  match
    List.map
      (fun s ->
        match float_of_string_opt (String.trim s) with
        | Some r when r > 0. -> r
        | _ -> raise Exit)
      parts
  with
  | rates -> Ok (Array.of_list (List.sort_uniq Float.compare rates))
  | exception Exit -> Error (Printf.sprintf "bad tier list %S" arg)

let of_spec spec ~default_tiers ~default_mts =
  match String.split_on_char ':' spec with
  | [ "renegotiate" ] -> Ok Renegotiate
  | [ "downgrade" ] -> Ok (Downgrade { tiers = default_tiers None })
  | [ "downgrade"; arg ] -> (
      match int_of_string_opt arg with
      | Some n when n >= 1 -> Ok (Downgrade { tiers = default_tiers (Some n) })
      | Some _ -> Error (Printf.sprintf "tier count in %S must be >= 1" spec)
      | None -> (
          match parse_tier_list arg with
          | Ok tiers -> Ok (Downgrade { tiers })
          | Error _ as e -> e))
  | [ "mts" ] -> Ok (Mts_profile (default_mts ()))
  | _ ->
      Error
        (Printf.sprintf
           "service %S is not renegotiate, downgrade[:TIERS] or mts" spec)
