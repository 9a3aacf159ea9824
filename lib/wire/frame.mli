(** Length-prefixed framing over a byte stream.

    A {!Reader} accumulates whatever chunks the transport hands it —
    partial reads, several pipelined messages in one read, a frame split
    across ten reads — and yields complete messages in order.  A frame
    whose payload fails {!Codec.decode} is surfaced as a recoverable
    [`Error] (the length prefix kept the stream in sync, so parsing
    continues at the next frame); a length prefix beyond
    {!Codec.max_frame} poisons the reader ([`Fatal]): on a byte stream
    there is no way back into sync, the connection must be closed. *)

module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append [len] bytes of [b] starting at [off].  Raises
      [Invalid_argument] on an out-of-range slice (caller bug, not wire
      input). *)

  val feed_string : t -> string -> unit

  val next :
    t ->
    [ `Msg of Codec.t  (** a complete, well-formed message *)
    | `Error of Codec.error  (** a complete frame that does not decode *)
    | `Await  (** need more bytes *)
    | `Fatal of Codec.error  (** framing lost; close the connection *) ]
  (** Call repeatedly until [`Await].  After [`Fatal] the reader answers
      [`Fatal] forever. *)

  val buffered : t -> int
  (** Bytes held but not yet consumed as frames. *)
end
