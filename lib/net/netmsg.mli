(** Typed protocol messages for the networked time server.

    Every message is a strict {!Codec} object with its own envelope kind,
    so protocol traffic gets the same guarantees as the cryptographic
    objects it carries: canonical encodings, total [result] decoders, and
    envelope-level kind/params confusion rejection. Key updates
    themselves travel as plain {!Codec.Key_update} objects
    ({!Tre.update_to_bytes}) — the daemon adds nothing around them, so
    the broadcast frame a subscriber receives is byte-identical to the
    archive frame and to what the simulated network carries. *)

type hello = {
  origin : string;  (** the timeline's label origin, e.g. ["utc"] *)
  granularity_us : int;  (** epoch length in microseconds *)
  current_epoch : int;  (** last epoch whose update has been broadcast *)
  server_g : Curve.point;
  server_sg : Curve.point;  (** PK_S = (G, sG) *)
}

(** The archive's miss, sent as {!Server_core.lookup} returns it. *)
type miss_reason = Server_core.miss =
  | Unknown_label  (** foreign origin or unparsable label *)
  | Future_refused  (** §3: the epoch has not been released — never served *)

type tick = {
  tick_label : string;  (** the epoch label about to be broadcast *)
  sent_at_us : int;  (** server send stamp, µs since the Unix epoch *)
}

type stats = {
  conns_accepted : int;
  conns_open : int;
  subscribers : int;
  updates_encoded : int;
      (** update frames {e built} — stays equal to the number of distinct
          epochs broadcast however many subscribers there are (the
          encode-once invariant, asserted by tests and the harness) *)
  frames_sent : int;  (** frame references enqueued for write *)
  bytes_sent : int;  (** bytes actually written to sockets *)
  archive_hits : int;
  archive_misses : int;
  protocol_errors : int;  (** framing/codec violations → disconnect *)
  slow_disconnects : int;  (** back-pressure evictions *)
  queue_bytes : int;  (** current sum of pending write bytes *)
  queue_bytes_peak : int;  (** high-water mark of [queue_bytes] *)
  send_syscalls : int;
      (** [writev] syscalls on the send path — a broadcast epoch costs
          ~1 per subscriber, not 1 per frame *)
  poll_wakeups : int;  (** poller waits that returned ≥ 1 ready event *)
  shard_conns : int list;  (** open connections per shard, in shard order *)
}

type delegate_query = {
  query_id : int;  (** echoed in the response so a thin client can
                       pipeline queries over one connection *)
  pairs : (Curve.point * Curve.point) array;
      (** blinded pairing arguments, 1 to 16; every
          point must be a non-infinity order-q subgroup member (the
          decoder enforces it — blinded queries never leave G1) *)
}
(** One blinded query vector of {!Delegate.wrap}, bound for a helper. *)

type delegate_response = {
  response_id : int;
  values : Fp2.t array;
      (** one pairing value per query slot. Decoded values are
          canonical and nonzero but deliberately NOT subgroup-checked:
          the hardened client-side check must see malicious responses
          unfiltered (see {!Codec.read_gt}). *)
}

val hello_to_bytes : Pairing.params -> hello -> string
val hello_of_bytes : Pairing.params -> string -> (hello, string) result
val subscribe_to_bytes : Pairing.params -> string
val subscribe_of_bytes : Pairing.params -> string -> (unit, string) result
val archive_query_to_bytes : Pairing.params -> string -> string
val archive_query_of_bytes : Pairing.params -> string -> (string, string) result
val archive_miss_to_bytes : Pairing.params -> string -> miss_reason -> string
val archive_miss_of_bytes :
  Pairing.params -> string -> (string * miss_reason, string) result
val tick_to_bytes : Pairing.params -> tick -> string
val tick_of_bytes : Pairing.params -> string -> (tick, string) result
val stats_query_to_bytes : Pairing.params -> string
val stats_query_of_bytes : Pairing.params -> string -> (unit, string) result
val stats_to_bytes : Pairing.params -> stats -> string
val stats_of_bytes : Pairing.params -> string -> (stats, string) result
val delegate_query_to_bytes : Pairing.params -> delegate_query -> string
val delegate_query_of_bytes :
  Pairing.params -> string -> (delegate_query, string) result
val delegate_response_to_bytes : Pairing.params -> delegate_response -> string
val delegate_response_of_bytes :
  Pairing.params -> string -> (delegate_response, string) result
