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

(* The checks raise on the first violated constraint, so a valid
   message is checked without allocating: [frame] runs them on every
   message it writes. *)
exception Invalid of string

let invalid fmt = Printf.ksprintf (fun why -> raise (Invalid why)) fmt
let check_id name v = if not (id_ok v) then invalid "%s %d outside [0, 2^32)" name v

let check_rate name v =
  if not (finite v) then invalid "%s is not finite" name
  else if v < 0. then invalid "%s %g is negative" name v

let check_fin name v = if not (finite v) then invalid "%s is not finite" name

let check_route route =
  let n = Array.length route in
  if n = 0 then invalid "route is empty"
  else if n > u16_max then invalid "route has %d hops (max %d)" n u16_max
  else
    Array.iter
      (fun l ->
        if l < 0 || l > u16_max then
          invalid "route link id %d outside [0, 2^16)" l)
      route

let check = function
  | Delta { vci; delta } ->
      check_id "vci" vci;
      check_fin "delta" delta
  | Resync { vci; rate } ->
      check_id "vci" vci;
      check_rate "rate" rate
  | Setup { req; call; route; rate; _ } ->
      check_id "req" req;
      check_id "call" call;
      check_rate "rate" rate;
      check_route route
  | Renegotiate { req; call; rate } ->
      check_id "req" req;
      check_id "call" call;
      check_rate "rate" rate
  | Teardown { req; call } ->
      check_id "req" req;
      check_id "call" call
  | Ack { req; applied } ->
      check_id "req" req;
      check_rate "applied" applied
  | Deny { req; _ } | Audit_request { req } -> check_id "req" req
  | Audit_reply { req; sessions; violations; demand } ->
      check_id "req" req;
      check_id "sessions" sessions;
      check_id "violations" violations;
      check_fin "demand" demand

let validate m = match check m with () -> None | exception Invalid why -> Some why

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

(* --- tags and reason codes ---------------------------------------------- *)

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

(* Payload bytes of [m]: the tag byte and the fixed-width fields. *)
let payload_length = function
  | Delta _ | Resync _ | Ack _ -> 13
  | Setup { route; _ } -> 20 + (2 * Array.length route)
  | Renegotiate _ -> 17
  | Teardown _ -> 9
  | Deny _ -> 6
  | Audit_request _ -> 5
  | Audit_reply _ -> 21

(* [Int32.of_int] keeps the low 32 bits, so an id in [0, 2^32) goes out
   as its unsigned big-endian bytes. *)
let set_u32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)
let set_f64 b pos v = Bytes.set_int64_be b pos (Int64.bits_of_float v)

let frame m =
  (match validate m with
  | Some why -> invalid_arg ("Rcbr_wire.Codec.frame: " ^ why)
  | None -> ());
  let n = payload_length m in
  let b = Bytes.create (4 + n) in
  set_u32 b 0 n;
  Bytes.set_uint8 b 4 (tag_of m);
  (match m with
  | Delta { vci; delta = v } | Resync { vci; rate = v } ->
      set_u32 b 5 vci;
      set_f64 b 9 v
  | Setup { req; call; route; transit; rate } ->
      set_u32 b 5 req;
      set_u32 b 9 call;
      Bytes.set_uint8 b 13 (if transit then 1 else 0);
      set_f64 b 14 rate;
      Bytes.set_uint16_be b 22 (Array.length route);
      Array.iteri (fun i l -> Bytes.set_uint16_be b (24 + (2 * i)) l) route
  | Renegotiate { req; call; rate } ->
      set_u32 b 5 req;
      set_u32 b 9 call;
      set_f64 b 13 rate
  | Teardown { req; call } ->
      set_u32 b 5 req;
      set_u32 b 9 call
  | Ack { req; applied } ->
      set_u32 b 5 req;
      set_f64 b 9 applied
  | Deny { req; reason } ->
      set_u32 b 5 req;
      Bytes.set_uint8 b 9 (reason_code reason)
  | Audit_request { req } -> set_u32 b 5 req
  | Audit_reply { req; sessions; violations; demand } ->
      set_u32 b 5 req;
      set_u32 b 9 sessions;
      set_u32 b 13 violations;
      set_f64 b 17 demand);
  Bytes.unsafe_to_string b
