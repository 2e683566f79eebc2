(** Length-prefixed per-connection framing for the socket transport.

    The stream layer under the daemon: every wire object (a strict
    {!Codec} envelope + body) travels as one {e frame}

    {v u32 big-endian payload length | payload bytes v}

    so a connection is a sequence of self-delimiting frames and the
    strict result-returning decoders always see exactly one complete
    candidate object. The framing itself is adversary-facing, so it is
    as strict as the codec underneath:

    - a declared length above [max_payload] is a fatal framing error the
      moment the prefix is read — the peer cannot make us buffer it;
    - a truncated prefix or truncated payload is visible via
      {!Decoder.buffered} when the peer closes mid-frame;
    - zero-length frames are legal at this layer (the codec rejects them
      as truncated envelopes).

    The decoder is incremental: feed it whatever [read] returned, pop
    complete frames as they materialize. Internal storage is compacted
    so a slow sender cannot grow the buffer beyond one maximal frame. *)

val encode : string -> string
(** [encode payload] is the 4-byte length prefix followed by the
    payload. Raises [Invalid_argument] beyond 1 MiB, far above any current
    wire object. *)

val add : Buffer.t -> string -> unit
(** Append one frame to a buffer (same bytes as {!encode}). *)

module Decoder : sig
  type t

  val create : ?max_payload:int -> unit -> t

  val feed : t -> bytes -> int -> int -> (unit, string) result
  (** [feed d buf off len] appends a received chunk. [Error] is fatal
      for the connection: a declared frame length above [max_payload]. *)

  val feed_string : t -> string -> (unit, string) result

  val pop : t -> string option
  (** Next complete frame payload, FIFO; [None] until one is complete. *)

  val buffered : t -> int
  (** Bytes received but not yet returned — nonzero at EOF means the
      peer died mid-frame (truncated prefix or truncated payload). *)

  val error : t -> string option
  (** The fatal framing error, if one occurred ({!pop} returns [None]
      from then on; an oversized prefix revealed by a pop is only
      visible here). *)
end
