(** The passive time server's state, with no I/O: the one place an
    update is issued, encoded and released.

    The paper's server publishes sH₁(T) only once T's epoch has come
    (§3) and keeps past updates public, regenerable from [s] alone (§6,
    footnote 4). Both servers run on this module: the socket daemon
    ({!Net_server}) and the simulated one ({!Passive_server}). Each calls
    {!release} when an epoch's broadcast fires and answers archive pulls
    with {!lookup}, so the daemon's rule is the simulator's rule.

    Safe to share between domains: one mutex guards the cache, and the
    watermark and the encode count are atomics. *)

type miss =
  | Unknown_label
      (** foreign origin, or a label {!Timeline.label} does not print
          for an epoch >= 0 *)
  | Future_refused  (** §3: the epoch has not been released — never served *)

type t

val create :
  ?cache_limit:int ->
  wrap:(string -> string) ->
  Pairing.params -> Timeline.t -> Tre.Server.secret -> t
(** [wrap] turns an update's codec bytes into what is cached and served
    (a framed message for the daemon, the bytes themselves for the
    simulator). [cache_limit] (default 4096) bounds the cache: past it
    the cache empties wholesale, which is invisible to clients because
    any past update regenerates deterministically from [s]. *)

val release : t -> int -> string
(** Issue and encode the epoch's update (once, however often it is
    released or looked up), raise the released-epoch watermark to it and
    return the wrapped bytes. *)

val released : t -> int
(** The highest epoch released so far; 0 before the first. *)

val lookup : t -> Tre.time -> (string, miss) result
(** The archive: the released bytes of an epoch at or below the
    watermark, [Future_refused] for a later one, [Unknown_label] for a
    label that is not {!Timeline.label} of an epoch >= 0 of this
    timeline. *)

val public : t -> Tre.Server.public
val timeline : t -> Timeline.t

val updates_encoded : t -> int
(** Updates built so far: one per distinct epoch released or looked up,
    however many recipients there are, plus one per regeneration after
    the cache empties. *)
