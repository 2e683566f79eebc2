(** Mapping between simulated wall-clock time and the discrete release-time
    labels the server signs.

    The paper's T is an arbitrary string naming an absolute instant "down
    to whatever granularity is needed" (§3); a timeline fixes the
    granularity and renders epoch indices as canonical labels. *)

type t

val create : ?origin:string -> granularity:float -> unit -> t
(** [granularity] is seconds of simulated time per epoch, > 0. *)

val granularity : t -> float
val origin : t -> string
(** The label prefix chosen at creation (default ["utc"]). *)

val epoch_at : t -> float -> int
(** Epoch index containing the given instant (floor). *)

val label : t -> int -> Tre.time
(** Canonical label of an epoch, e.g. ["utc#42"]. Injective. *)

val epoch_of_label : t -> Tre.time -> int option
(** The inverse of {!label} on epochs >= 0: [Some e] exactly when the
    label is [label t e] for some [e >= 0]. [None] for foreign labels,
    negative epochs and every other spelling of a number ("utc#02",
    "utc#+2", "utc#0x2", "utc#2_"). *)

val start_of : t -> int -> float
(** Simulated instant at which an epoch begins (= its release time). *)
