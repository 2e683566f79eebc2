(** Natural-number (magnitude) arithmetic on little-endian limb arrays.

    This is the machine room of {!Bigint}; the representation is exposed
    within the library so {!Modarith} can run limb-level Montgomery
    multiplication, but downstream code should use {!Bigint}.

    Representation invariant: base-[2^31] little-endian limbs, each in
    [0, 2^31), with no trailing (most-significant) zero limb; zero is the
    empty array. All functions return normalized values and do not mutate
    their arguments. *)

type t = int array

val base_bits : int
(** 31. *)

val base : int
(** [2^31]. *)

val zero : t
val one : t
val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val num_limbs : t -> int
val bit_length : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

val test_bit : t -> int -> bool

val add : t -> t -> t
val add_small : t -> int -> t
(** Second argument must be in [0, 2^31). *)

val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t
(** Schoolbook: the widest product the system forms is 17 limbs (std160's
    p, 512-bit time-lock moduli). *)

val mul_small : t -> int -> t
(** Second argument must be in [0, 2^31). *)

val sqr : t -> t
(** Dedicated squaring — each cross product computed once and doubled by a
    single shift. Always equal to [mul a a], measurably cheaper. *)

val divmod : t -> t -> t * t
(** Knuth Algorithm D. Raises [Division_by_zero] on zero divisor. *)

val divmod_small : t -> int -> t * int
(** Divisor in [1, 2^31). *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val of_bytes_be : string -> t
val to_bytes_be : ?pad_to:int -> t -> string
(** Minimal big-endian encoding, left-zero-padded to [pad_to] if given
    (raises [Invalid_argument] if the value does not fit). *)
