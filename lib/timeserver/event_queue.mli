(** Deterministic binary-heap event queue for the discrete-event simulator.

    Same-timestamp events are delivered in insertion order, which makes
    every simulation run bit-reproducible given the same DRBG seed. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> at:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option
