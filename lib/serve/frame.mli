(** Length-prefixed framing for the serving wire protocol
    (DESIGN.md §15).

    One frame is an ASCII decimal byte count, a newline, exactly that
    many payload bytes (one JSON object), and a terminating newline:

    {v 22\n{"id":1,"op":"health"}\n v}

    The explicit length makes payloads binary-safe (embedded newlines
    cannot split a frame) while keeping frames writable from a shell
    with [printf '%d\n%s\n'].  Requests and responses use the same
    framing in both directions. *)

val max_payload : int
(** 4 MiB.  A header declaring more poisons the stream: the bytes were
    never read, so no resynchronization is possible — drop the
    connection. *)

val encode : string -> string
(** Wrap a payload in a frame. *)

type item =
  | Payload of string  (** one complete well-formed frame's payload *)
  | Bad_header of string
      (** a non-numeric header line, or the first eight bytes of one
          that reached eight bytes; the decoder resynced past it (at
          the next newline, which may arrive in a later read) and the
          connection can continue *)
  | Bad_terminator
      (** the declared length was not followed by a newline; the
          decoder resynced at the next line boundary *)
  | Too_large of int
      (** header declared more than {!max_payload}, or began with
          eight digits (reported as [max_int]) whether or not its
          newline has arrived; the decoder is poisoned and the
          connection must be dropped *)

type decoder
(** Incremental decoder over a byte stream; buffers partial frames
    between {!feed} calls. *)

val decoder : unit -> decoder
val feed : decoder -> string -> unit

val pending : decoder -> int
(** Unconsumed buffered bytes (diagnostics only).  After {!next}
    returns [None] on a decoder that is not poisoned, this is at most a
    seven-byte header line or one incomplete frame. *)

val next : decoder -> item option
(** Extract the next item, or [None] when the buffer holds no complete
    frame (or the decoder is poisoned). *)
