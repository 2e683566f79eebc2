(** The paper's passive time server, as a running (simulated) process.

    Once started it does exactly one thing: at each epoch boundary it
    broadcasts the single time-bound key update for that epoch — a
    constant amount of work {e independent of the number of users}, which
    is the scalability claim measured by experiment E3. It keeps a public
    archive of {e past} updates (§3, §6: "keep a list of old key updates
    ... at a publicly accessible place") so receivers who missed a
    broadcast can recover. Releasing and archiving run on
    {!Server_core}, the same code as the socket daemon's: an epoch is
    served once its broadcast has fired, never before.

    The server holds no user state whatsoever: the type contains the key
    material, the timeline and counters — nothing about senders or
    receivers (the broadcast subscriber list lives in the caller's hands,
    modelling a radio channel the server does not observe). *)

type t

val create :
  ?max_skew:float ->
  Pairing.params -> net:Simnet.t -> timeline:Timeline.t -> name:string -> t
(** Key material is drawn from the network's DRBG (reproducible).
    [max_skew] (default 0) models the §3 trust assumption that the server's
    clock is only consistent "within a reasonable error bound": each
    broadcast fires up to [max_skew] seconds {e late} — never early, since
    a correct server must not release an update before its time. *)

val max_skew : t -> float

val name : t -> string
val public : t -> Tre.Server.public

val start :
  ?pool:Pool.t ->
  t ->
  net:Simnet.t ->
  first_epoch:int ->
  epochs:int ->
  recipients:(string * (string -> unit)) list ->
  unit
(** Schedule the per-epoch broadcasts. Each epoch's update is issued and
    serialized {e exactly once} and every recipient handler receives the
    same immutable wire bytes (decode with {!Tre.update_of_bytes} — see
    {!Client.on_wire}) — the encode-once broadcast path shared with the
    socket daemon. [recipients] is the physical reach of the broadcast
    channel — the server neither reads nor stores it beyond handing it to
    the network layer. [pool] is forwarded to {!Simnet.broadcast_bytes}:
    each epoch's surviving deliveries run sharded across the pool's
    domains (the recipients' decode+verify cost, not the server's — the
    server does one signing and one encoding per epoch regardless). *)

val archive_lookup : t -> Tre.time -> (string, Server_core.miss) result
(** The public webpage of old updates ({!Server_core.lookup}): the exact
    bytes broadcast for an epoch whose broadcast has fired,
    [Future_refused] for a later epoch, [Unknown_label] for a label from
    a foreign timeline. Footnote 4 of the paper: any past update
    regenerates from [s] alone, so the archive needs no storage beyond
    the secret. *)

val updates_issued : t -> int

val updates_encoded : t -> int
(** Distinct epochs whose update was serialized — stays equal to the
    number of epochs touched {e however many recipients there are}; the
    encode-once invariant asserted by tests. *)

val bytes_broadcast : t -> int
val update_size : t -> int
(** Wire size of one update — the per-epoch broadcast cost. *)
