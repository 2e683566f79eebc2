(** Modular arithmetic: exponentiation, inversion, Jacobi symbol, and
    Montgomery-form contexts.

    The Montgomery context is the hot path of the whole system — every
    field multiplication under the pairing goes through {!Mont.mul}. *)

val gcd : Bigint.t -> Bigint.t -> Bigint.t
(** Non-negative greatest common divisor. *)

val egcd : Bigint.t -> Bigint.t -> Bigint.t * Bigint.t * Bigint.t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b], [g >= 0]. *)

val invmod : Bigint.t -> Bigint.t -> Bigint.t
(** [invmod a m] is the inverse of [a] modulo [m], in [0, m).
    Raises [Division_by_zero] if [gcd a m <> 1]. *)

val powmod : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [powmod b e m] = [b^e mod m], [e >= 0] (negative exponents invert [b]
    first). Uses Montgomery form when [m] is odd. *)

val jacobi : Bigint.t -> Bigint.t -> int
(** Jacobi symbol [(a/n)] for odd positive [n]; in [{-1, 0, 1}].
    Raises [Invalid_argument] on even or non-positive [n]. *)

(** Montgomery-form modular arithmetic for a fixed odd modulus. *)
module Mont : sig
  type ctx
  type elt
  (** A residue in Montgomery form. Only meaningful w.r.t. its context. *)

  val create : Bigint.t -> ctx
  (** Raises [Invalid_argument] if the modulus is even or [< 3]. *)

  val modulus : ctx -> Bigint.t
  val of_bigint : ctx -> Bigint.t -> elt
  (** Reduces the argument mod m first; accepts any sign. *)

  val to_bigint : ctx -> elt -> Bigint.t
  val zero : ctx -> elt
  val one : ctx -> elt
  val equal : elt -> elt -> bool
  val add : ctx -> elt -> elt -> elt
  val sub : ctx -> elt -> elt -> elt
  val neg : ctx -> elt -> elt
  val mul : ctx -> elt -> elt -> elt
  val sqr : ctx -> elt -> elt
  val pow : ctx -> elt -> Bigint.t -> elt
  (** Sliding-window exponentiation with an odd-powers table, over the
      schedule of {!Bigint.sliding_windows}. Exponent must be [>= 0]. *)

  val pow_binary : ctx -> elt -> Bigint.t -> elt
  (** Reference bit-by-bit square-and-multiply ladder; kept for the
      equivalence tests and the before/after benchmark. *)

  val inv : ctx -> elt -> elt
  (** Raises [Division_by_zero] on non-invertible elements. *)
end
