(** The prime field GF(p), p an odd prime with p = 3 (mod 4).

    Elements are kept in Montgomery form internally; a [ctx] carries the
    modulus and its precomputations. The congruence condition gives both a
    square-root shortcut (x^((p+1)/4)) and i^2 = -1 irreducible for
    {!Fp2}. *)

type ctx

type t = Limbs.elt
(** A field element, tied to the [ctx] that created it: a canonical
    Montgomery residue over exactly [k] fixed limbs (see {!Limbs.elt}).
    The representation is exposed within the library so {!Fp2} can run
    its products on the coefficient buffers in place through {!Limbs};
    downstream code must treat values as immutable and go through this
    interface. *)

val create : Bigint.t -> ctx
(** [create p] builds a context for GF(p).
    Raises [Invalid_argument] if [p < 3], [p] even, or [p mod 4 <> 3]
    (primality is the caller's responsibility — checked by parameter
    generation). *)

val modulus : ctx -> Bigint.t
val byte_length : ctx -> int
(** Bytes needed for a canonical serialization of one element. *)

val zero : ctx -> t
val one : ctx -> t
val of_bigint : ctx -> Bigint.t -> t
(** Any sign; reduced mod p. *)

val of_int : ctx -> int -> t
val to_bigint : ctx -> t -> Bigint.t
(** Canonical representative in [0, p). *)

val equal : t -> t -> bool
val is_zero : ctx -> t -> bool
val add : ctx -> t -> t -> t
val sub : ctx -> t -> t -> t
val neg : ctx -> t -> t
val mul : ctx -> t -> t -> t
val sqr : ctx -> t -> t
val inv : ctx -> t -> t
(** Raises [Division_by_zero] on zero. *)

val div : ctx -> t -> t -> t
val pow : ctx -> t -> Bigint.t -> t
(** Exponent may be negative (inverts the base). *)

val is_square : ctx -> t -> bool
(** Euler criterion; [true] for zero. *)

val sqrt : ctx -> t -> t option
(** A square root if one exists ([p = 3 (mod 4)] shortcut). The returned
    root is the principal one [x^((p+1)/4)]; its negation is the other. *)

val to_bytes : ctx -> t -> string
(** Fixed-width big-endian canonical encoding. *)

val of_bytes : ctx -> string -> t option
(** Rejects wrong width and non-canonical (>= p) encodings. *)

val pp : ctx -> Format.formatter -> t -> unit

(** {1 In-place kernel face}

    Destination-passing operations over caller-owned buffers, for hot
    loops that reuse storage across iterations (Jacobian scalar
    multiplication, the Miller loop). Values produced through {!Mut} are
    ordinary [t]s — canonical, so bit-identical to the functional face.
    Discipline: a loop mutates only buffers it allocated (or explicitly
    copied) itself; anything received from outside is read-only. All
    [*_into] kernels tolerate [dst] aliasing their inputs, and their
    scratch space is per-domain, so concurrent use from a [Pool] is
    race-free. *)
module Mut : sig
  val alloc : ctx -> t
  (** A fresh zero buffer. *)

  val copy : ctx -> t -> t
  val set : ctx -> t -> t -> unit
  (** [set ctx dst src] overwrites [dst] with [src]'s value. *)

  val set_zero : ctx -> t -> unit
  val set_one : ctx -> t -> unit
  val add_into : ctx -> t -> t -> t -> unit
  val sub_into : ctx -> t -> t -> t -> unit
  val neg_into : ctx -> t -> t -> unit
  val mul_into : ctx -> t -> t -> t -> unit
  val sqr_into : ctx -> t -> t -> unit
end

val kernel : ctx -> Limbs.ctx
(** The underlying fixed-limb kernel context (internal: {!Fp2}'s
    in-place products and the benchmark ablations reach through this). *)
