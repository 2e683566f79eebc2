(** The passive time server as a real socket daemon.

    Speaks the v1 wire codec over Unix-domain and/or TCP stream sockets
    (length-prefixed frames, {!Frame}) plus optional UDP datagrams for
    the tick fan-out. Request handling is sharded across domains, and
    shard 0 also accepts, dealing each connection to the shard with the
    fewest open ones. The broadcast path is lock-free (per-shard Treiber
    stacks + a self-pipe wake) and {e encode-once}: releasing and the
    archive run on {!Server_core}, so each epoch's update is issued and
    serialized exactly once, and the same framed byte string is enqueued
    by reference on every subscriber and served for every archive pull
    of that epoch.

    Every shard runs on a pluggable {!Poller} — Linux epoll when
    available, portable select otherwise. Readiness interest is
    registered once per connection and modified only when its output
    queue transitions between empty and non-empty, and the send path
    drains a queue with one [writev] instead of one write per frame;
    [send_syscalls] and [poll_wakeups] in the stats make the per-epoch
    syscall budget observable.

    Protocol (all messages {!Netmsg}; updates are plain
    {!Codec.Key_update} objects):
    - [Net_subscribe] → [Net_hello], then every subsequent broadcast
      ([Net_tick] preamble + the update frame);
    - [Net_archive_query label] → the update frame of a ticked epoch,
      or [Net_archive_miss] (foreign label, or §3 refusal of an epoch
      not yet ticked);
    - [Net_stats_query] → [Net_stats] operational counters.

    Any other kind, any codec violation, any framing violation (bad
    prefix, oversized declared length, truncated stream) disconnects the
    peer and counts a protocol error — adversarial bytes never allocate
    more than one bounded frame buffer.

    Back-pressure: per-connection output queues are bounded at
    [max_queue_frames] {e references} to shared frames; a reader slower
    than the broadcast rate is evicted (counted in
    [slow_disconnects]), so server memory has a constant ceiling
    independent of subscriber behaviour. *)

type config = {
  prms : Pairing.params;
  timeline : Timeline.t;
  unix_path : string option;  (** Unix-domain listening socket path *)
  tcp_port : int option;
  tcp_addr : string;  (** bind address, default ["127.0.0.1"] *)
  udp_dest : (string * int) option;
      (** optional UDP fan-out destination (e.g. a broadcast address) *)
  shards : int;  (** decode/respond domains; shard 0 also accepts *)
  max_queue_frames : int;  (** per-connection back-pressure bound *)
  archive_cache_limit : int;
      (** encoded-frame cache bound ({!Server_core.create}'s
          [cache_limit]); eviction is invisible (footnote 4: any past
          update regenerates deterministically from [s]) *)
  backend : Poller.backend option;
      (** event backend for every shard; [None] (the default) picks
          epoll when available, select otherwise *)
}

val default_config : Pairing.params -> Timeline.t -> config
(** No transports configured — set at least one of [unix_path] /
    [tcp_port]. [shards] defaults to {!Pool.recommended}. *)

type t

val create : ?secret:Tre.Server.secret -> config -> Hashing.Drbg.t -> t
(** Key material from the DRBG unless [secret] is supplied. *)

val start : t -> unit
(** Bind the transports, register them with shard 0's poller, open
    shard 0's spare descriptor and spawn the shard domains. Raises
    [Invalid_argument] if no transport is configured. *)

val tick : t -> int -> unit
(** Broadcast epoch [n]'s update to every subscriber (and the UDP
    destination): a [Net_tick] preamble stamped with the send time, then
    the update frame — encoded exactly once however many subscribers
    are connected. Also raises the daemon's released-epoch watermark
    ({!Server_core.release}), which gates the archive's future refusal.
    Callable from any domain. *)

val current_epoch : t -> int
val public : t -> Tre.Server.public
val stats : t -> Netmsg.stats

val backend_name : t -> string

val stop : t -> unit
(** Stop accepting, close every connection, join the shard domains,
    close the listening sockets and shard 0's spare descriptor, unlink
    the Unix socket path. Idempotent. *)
