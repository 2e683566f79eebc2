(** Discrete-event simulated network.

    The substrate for every systems experiment: a virtual clock, an event
    queue, and message delivery with configurable latency, jitter and loss
    — all driven by a seeded DRBG so runs are reproducible. Every message
    is also appended to a {e trace}, which is what the anonymity tests
    inspect: in the TRE protocol the trace must contain {e no} message
    toward the server and only user-independent broadcasts from it.

    Simulated time is in abstract seconds. *)

type t

type message = {
  at : float;  (** delivery time *)
  src : string;
  dst : string;
  kind : string;  (** free-form label, e.g. "key-update", "escrow-deposit" *)
  bytes : int;
}

val create :
  ?seed:string ->
  ?latency:float ->
  ?jitter:float ->
  ?loss:float ->
  unit ->
  t
(** [latency] is the base one-way delay (default 0.05), [jitter] the
    maximum extra uniform delay (default 0.02), [loss] the independent
    drop probability in [0,1) (default 0). *)

val now : t -> float
val rng : t -> Hashing.Drbg.t
(** The simulation's DRBG — share it for protocol randomness to keep the
    whole run reproducible from one seed. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Run a thunk at an absolute simulated time (>= now). *)

val send :
  t -> src:string -> dst:string -> kind:string -> bytes:int ->
  (unit -> unit) -> unit
(** Deliver a message after latency+jitter, unless lost. The thunk runs at
    delivery time; the message is traced (with its delivery time) even if
    it is ultimately dropped — dropped messages get [dst = "(lost)"]. *)

val broadcast :
  ?pool:Pool.t ->
  t -> src:string -> kind:string -> bytes:int ->
  (string * (unit -> unit)) list -> unit
(** One logical broadcast delivered to each (name, handler) with
    independent jitter/loss. Traced as a single message with
    [dst = "(broadcast)"] plus the per-recipient deliveries — the server's
    cost is counted once, reflecting a genuine broadcast channel.

    With [pool], the surviving handlers of this broadcast run as one event
    at the latest delivery time, sharded across the pool's domains —
    recipients must hold disjoint state. The DRBG draw order, trace and
    per-recipient loss decisions are identical to the serial path; only
    the handlers' view of the clock collapses to the slowest delivery. *)

val broadcast_bytes :
  ?pool:Pool.t ->
  t -> src:string -> kind:string -> payload:string ->
  (string * (string -> unit)) list -> unit
(** {!broadcast} for a serialized payload: the caller encodes {e once}
    and every surviving recipient's handler receives the same immutable
    string (shared, never copied) — the simulator-side mirror of the
    daemon's encode-once broadcast path. Traced bytes are the payload's
    real wire length. *)

val run : t -> unit
(** Drain the event queue. *)

val run_until : t -> float -> unit
(** Process events with timestamp <= the given time, then set the clock to
    it. *)

val trace : t -> message list
(** All traced messages, oldest first. *)

val sent_to : t -> string -> message list
val sent_by : t -> string -> message list
val total_bytes_by : t -> string -> int
