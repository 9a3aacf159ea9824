module Reader = struct
  type t = {
    buf : Buffer.t;
    mutable pos : int;  (* consumed prefix of [buf] *)
    mutable poisoned : Codec.error option;
  }

  let create () = { buf = Buffer.create 4096; pos = 0; poisoned = None }

  (* Shift the consumed prefix away once it dominates the buffer, so a
     long-lived connection does not grow without bound. *)
  let compact t =
    if t.pos > 4096 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let feed t b ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length b then
      invalid_arg "Frame.Reader.feed: slice out of range";
    Buffer.add_subbytes t.buf b off len

  let feed_string t s = Buffer.add_string t.buf s

  let buffered t = Buffer.length t.buf - t.pos

  let next t =
    match t.poisoned with
    | Some e -> `Fatal e
    | None ->
        if buffered t < 4 then `Await
        else begin
          let byte i = Char.code (Buffer.nth t.buf (t.pos + i)) in
          let length =
            (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
          in
          if length > Codec.max_frame then begin
            let e = Codec.Oversized { length; max = Codec.max_frame } in
            t.poisoned <- Some e;
            `Fatal e
          end
          else if buffered t < 4 + length then `Await
          else begin
            let payload = Buffer.sub t.buf (t.pos + 4) length in
            t.pos <- t.pos + 4 + length;
            compact t;
            match Codec.decode payload with
            | Ok m -> `Msg m
            | Error e -> `Error e
          end
        end
end
