type deny_reason =
  | Capacity
  | Blackout
  | Unknown_call
  | Duplicate_call
  | Bad_route
  | Draining
  | Downgraded

type t =
  | Delta of { vci : int; delta : float }
  | Resync of { vci : int; rate : float }
  | Setup of {
      req : int;
      call : int;
      route : int array;
      transit : bool;
      rate : float;
    }
  | Renegotiate of { req : int; call : int; rate : float }
  | Teardown of { req : int; call : int }
  | Ack of { req : int; applied : float }
  | Deny of { req : int; reason : deny_reason }
  | Audit_request of { req : int }
  | Audit_reply of { req : int; sessions : int; violations : int; demand : float }

let req = function
  | Delta _ | Resync _ -> None
  | Setup { req; _ }
  | Renegotiate { req; _ }
  | Teardown { req; _ }
  | Ack { req; _ }
  | Deny { req; _ }
  | Audit_request { req }
  | Audit_reply { req; _ } ->
      Some req

(* --- validity --------------------------------------------------------- *)

let u32_max = 0xffff_ffff
let u16_max = 0xffff
let id_ok v = v >= 0 && v <= u32_max
let finite v = Float.is_finite v
let abs_rate_ok v = finite v && v >= 0.

let validate m =
  let bad fmt = Printf.ksprintf Option.some fmt in
  let id name v = if id_ok v then None else bad "%s %d outside [0, 2^32)" name v in
  let rate name v =
    if not (finite v) then bad "%s is not finite" name
    else if v < 0. then bad "%s %g is negative" name v
    else None
  in
  let fin name v = if finite v then None else bad "%s is not finite" name in
  let first = List.find_map Fun.id in
  match m with
  | Delta { vci; delta } -> first [ id "vci" vci; fin "delta" delta ]
  | Resync { vci; rate = r } -> first [ id "vci" vci; rate "rate" r ]
  | Setup { req; call; route; rate = r; _ } ->
      first
        [
          id "req" req;
          id "call" call;
          rate "rate" r;
          (if Array.length route = 0 then bad "route is empty"
           else if Array.length route > u16_max then
             bad "route has %d hops (max %d)" (Array.length route) u16_max
           else
             Array.find_opt (fun l -> l < 0 || l > u16_max) route
             |> Option.map (fun l ->
                    Printf.sprintf "route link id %d outside [0, 2^16)" l));
        ]
  | Renegotiate { req; call; rate = r } ->
      first [ id "req" req; id "call" call; rate "rate" r ]
  | Teardown { req; call } -> first [ id "req" req; id "call" call ]
  | Ack { req; applied } -> first [ id "req" req; rate "applied" applied ]
  | Deny { req; _ } -> id "req" req
  | Audit_request { req } -> id "req" req
  | Audit_reply { req; sessions; violations; demand } ->
      first
        [
          id "req" req;
          id "sessions" sessions;
          id "violations" violations;
          fin "demand" demand;
        ]

(* --- errors ----------------------------------------------------------- *)

type error =
  | Empty
  | Bad_tag of int
  | Truncated of { tag : int; need : int; have : int }
  | Trailing of { tag : int; extra : int }
  | Bad_bool of { tag : int; byte : int }
  | Bad_reason of int
  | Bad_rate of { field : string; value : float }
  | Empty_route
  | Oversized of { length : int; max : int }

let pp_error ppf = function
  | Empty -> Format.pp_print_string ppf "empty payload"
  | Bad_tag t -> Format.fprintf ppf "unknown message tag %d" t
  | Truncated { tag; need; have } ->
      Format.fprintf ppf "truncated message (tag %d): need %d bytes, have %d"
        tag need have
  | Trailing { tag; extra } ->
      Format.fprintf ppf "%d trailing byte(s) after message (tag %d)" extra tag
  | Bad_bool { tag; byte } ->
      Format.fprintf ppf "byte %d where a 0/1 flag was expected (tag %d)" byte
        tag
  | Bad_reason r -> Format.fprintf ppf "unknown deny reason code %d" r
  | Bad_rate { field; value } ->
      Format.fprintf ppf "field %s holds inadmissible rate %h" field value
  | Empty_route -> Format.pp_print_string ppf "setup carries an empty route"
  | Oversized { length; max } ->
      Format.fprintf ppf "frame length %d exceeds the %d-byte cap" length max

let error_to_string e = Format.asprintf "%a" pp_error e

(* --- encoding --------------------------------------------------------- *)

let tag_of = function
  | Delta _ -> 1
  | Resync _ -> 2
  | Setup _ -> 3
  | Renegotiate _ -> 4
  | Teardown _ -> 5
  | Ack _ -> 6
  | Deny _ -> 7
  | Audit_request _ -> 8
  | Audit_reply _ -> 9

let reason_code = function
  | Capacity -> 0
  | Blackout -> 1
  | Unknown_call -> 2
  | Duplicate_call -> 3
  | Bad_route -> 4
  | Draining -> 5
  | Downgraded -> 6

let reason_of_code = function
  | 0 -> Some Capacity
  | 1 -> Some Blackout
  | 2 -> Some Unknown_call
  | 3 -> Some Duplicate_call
  | 4 -> Some Bad_route
  | 5 -> Some Draining
  | 6 -> Some Downgraded
  | _ -> None

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  add_u16 b (v lsr 16);
  add_u16 b v

let add_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let encode m =
  (match validate m with
  | Some why -> invalid_arg ("Rcbr_wire.Codec.encode: " ^ why)
  | None -> ());
  let b = Buffer.create 24 in
  add_u8 b (tag_of m);
  (match m with
  | Delta { vci; delta } ->
      add_u32 b vci;
      add_f64 b delta
  | Resync { vci; rate } ->
      add_u32 b vci;
      add_f64 b rate
  | Setup { req; call; route; transit; rate } ->
      add_u32 b req;
      add_u32 b call;
      add_u8 b (if transit then 1 else 0);
      add_f64 b rate;
      add_u16 b (Array.length route);
      Array.iter (add_u16 b) route
  | Renegotiate { req; call; rate } ->
      add_u32 b req;
      add_u32 b call;
      add_f64 b rate
  | Teardown { req; call } ->
      add_u32 b req;
      add_u32 b call
  | Ack { req; applied } ->
      add_u32 b req;
      add_f64 b applied
  | Deny { req; reason } ->
      add_u32 b req;
      add_u8 b (reason_code reason)
  | Audit_request { req } -> add_u32 b req
  | Audit_reply { req; sessions; violations; demand } ->
      add_u32 b req;
      add_u32 b sessions;
      add_u32 b violations;
      add_f64 b demand);
  Buffer.contents b

(* --- decoding --------------------------------------------------------- *)

let get_u8 s pos = Char.code (String.unsafe_get s pos)
let get_u16 s pos = (get_u8 s pos lsl 8) lor get_u8 s (pos + 1)

let get_u32 s pos =
  (get_u16 s pos lsl 16) lor get_u16 s (pos + 2)

let get_f64 s pos =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (get_u8 s (pos + i)))
  done;
  Int64.float_of_bits !bits

(* Every access is guarded by an explicit length check before the byte
   reads, so the unsafe gets above can never escape the buffer and the
   parser is total by construction. *)
let decode s =
  let have = String.length s in
  if have = 0 then Error Empty
  else
    let tag = get_u8 s 0 in
    let ( let* ) r k = match r with Error _ as e -> e | Ok v -> k v in
    let need n = if have < n then Error (Truncated { tag; need = n; have }) else Ok () in
    let exact n m =
      let* () = need n in
      if have > n then Error (Trailing { tag; extra = have - n }) else m ()
    in
    let fin field v =
      if Float.is_finite v then Ok v else Error (Bad_rate { field; value = v })
    in
    let abs field v =
      if abs_rate_ok v then Ok v else Error (Bad_rate { field; value = v })
    in
    match tag with
    | 1 ->
        exact 13 (fun () ->
            let* delta = fin "delta" (get_f64 s 5) in
            Ok (Delta { vci = get_u32 s 1; delta }))
    | 2 ->
        exact 13 (fun () ->
            let* rate = abs "rate" (get_f64 s 5) in
            Ok (Resync { vci = get_u32 s 1; rate }))
    | 3 ->
        let* () = need 20 in
        let n = get_u16 s 18 in
        if n = 0 then Error Empty_route
        else
          exact
            (20 + (2 * n))
            (fun () ->
              let* transit =
                match get_u8 s 9 with
                | 0 -> Ok false
                | 1 -> Ok true
                | byte -> Error (Bad_bool { tag; byte })
              in
              let* rate = abs "rate" (get_f64 s 10) in
              let route = Array.init n (fun i -> get_u16 s (20 + (2 * i))) in
              Ok
                (Setup
                   { req = get_u32 s 1; call = get_u32 s 5; route; transit; rate }))
    | 4 ->
        exact 17 (fun () ->
            let* rate = abs "rate" (get_f64 s 9) in
            Ok (Renegotiate { req = get_u32 s 1; call = get_u32 s 5; rate }))
    | 5 ->
        exact 9 (fun () ->
            Ok (Teardown { req = get_u32 s 1; call = get_u32 s 5 }))
    | 6 ->
        exact 13 (fun () ->
            let* applied = abs "applied" (get_f64 s 5) in
            Ok (Ack { req = get_u32 s 1; applied }))
    | 7 ->
        exact 6 (fun () ->
            match reason_of_code (get_u8 s 5) with
            | Some reason -> Ok (Deny { req = get_u32 s 1; reason })
            | None -> Error (Bad_reason (get_u8 s 5)))
    | 8 -> exact 5 (fun () -> Ok (Audit_request { req = get_u32 s 1 }))
    | 9 ->
        exact 21 (fun () ->
            let* demand = fin "demand" (get_f64 s 13) in
            Ok
              (Audit_reply
                 {
                   req = get_u32 s 1;
                   sessions = get_u32 s 5;
                   violations = get_u32 s 9;
                   demand;
                 }))
    | _ -> Error (Bad_tag tag)

(* --- framing ---------------------------------------------------------- *)

(* Largest encodable payload: a Setup with a 65535-hop route
   (20 + 2*65535 bytes), rounded up to a power of two for slack. *)
let max_frame = 1 lsl 18

let frame m =
  let payload = encode m in
  let b = Buffer.create (String.length payload + 4) in
  add_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b
