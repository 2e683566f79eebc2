(** Supersingular elliptic curves E : y^2 = x^3 + a*x + b over GF(p).

    Two classic Type-1 families are supported (both have #E(GF(p)) = p+1
    and a distortion map making the Tate pairing non-degenerate on a
    single subgroup — the "Gap Diffie-Hellman group" G1 of the paper):

    - (a, b) = (1, 0): y^2 = x^3 + x, supersingular for p = 3 (mod 4),
      distortion (x, y) -> (-x, iy);
    - (a, b) = (0, 1): y^2 = x^3 + 1, supersingular for p = 2 (mod 3),
      distortion (x, y) -> (zeta*x, y) with zeta a primitive cube root of
      unity in GF(p^2) (the Boneh-Franklin curve).

    The distortion maps and pairings live in {!Pairing}; this module is
    plain short-Weierstrass group arithmetic. *)

type ctx
type point = Infinity | Affine of { x : Fp.t; y : Fp.t }

val create : ?a:int -> ?b:int -> Fp.ctx -> ctx
(** Defaults (a, b) = (1, 0). Supersingularity for the given p is the
    caller's ({!Pairing.make}'s) responsibility. Computes the curve's
    Montgomery model for {!mul}; raises [Invalid_argument] for any
    (a, b) other than the two families above, or for (0, 1) when 3 has
    no square root mod p. *)

val coeff_a : ctx -> Fp.t

val infinity : point
val is_infinity : point -> bool
val make : ctx -> x:Fp.t -> y:Fp.t -> point
(** Raises [Invalid_argument] if (x, y) is not on the curve. *)

val on_curve : ctx -> point -> bool
val equal : point -> point -> bool
val neg : ctx -> point -> point
val add : ctx -> point -> point -> point
val double : ctx -> point -> point

val add_many : ctx -> (point * point) array -> point array
(** [add_many ctx pairs] is [Array.map (fun (a, b) -> add ctx a b) pairs]
    with one field inversion for the whole batch instead of one per
    sum. *)

val mul : ctx -> Bigint.t -> point -> point
(** Scalar multiplication: an x-only Montgomery ladder, then
    Okeya-Sakurai y-recovery and one inversion. Negative scalars negate
    the point. *)

val mul_is_infinity : ctx -> Bigint.t -> point -> bool
(** [mul_is_infinity ctx k p = is_infinity (mul ctx k p)] for every
    point on the curve, decided by the ladder alone (no y-coordinate, no
    inversion). *)

val mul_double_add : ctx -> Bigint.t -> point -> point
(** Reference Jacobian double-and-add. Always agrees with {!mul}; kept
    for the equivalence tests and the before/after benchmark. *)

val jac_steps_ref : ctx -> point -> int -> point
val jac_steps_kernel : ctx -> point -> int -> point
(** Ablation probes for the benchmark: [steps] iterations of Jacobian
    double-then-mixed-add from the given point, via the functional
    formulas ([_ref], allocating per step) and via the in-place register
    file ([_kernel], allocation-free loop). Bit-identical results — the
    equivalence tests and [bench --smoke] assert it. *)

val msm : ctx -> (Bigint.t * point) list -> point
(** Multi-scalar multiplication [sum_i k_i * P_i]: interleaved wNAF digit
    streams over one shared doubling chain, one shared Montgomery batch
    normalization of the odd-multiple tables, one final inversion — far
    cheaper than summing independent {!mul}s, especially for the short
    exponents of batch verification. Always agrees with folding {!add}
    over independent {!mul}s, including for negative scalars, zero
    scalars, infinity, and low-order points (which fall back to {!mul}
    internally). *)

(** Fixed-base precomputation: build a table from a point once, then
    multiply it by many scalars at a fraction of the generic cost (no
    doublings, at most [ceil bits/w] mixed additions per scalar). *)
module Table : sig
  type t

  val create : ?w:int -> ctx -> bits:int -> point -> t
  (** [create ctx ~bits p] precomputes multiples of [p] covering scalars
      of up to [bits] bits (larger scalars still work via a generic-path
      fallback, just without the speedup). [w] is the window width in
      bits, default 4; the table holds [ceil bits/w * (2^w - 1)] affine
      points. *)

  val mul : t -> Bigint.t -> point
  (** [mul t k] = [Curve.mul ctx k (base t)], computed from the table.
      Negative scalars negate the result, as in {!Curve.mul}. *)
end

val group_order : ctx -> Bigint.t
(** p + 1, the full curve order. *)

val lift_x : ctx -> Fp.t -> (point * point) option
(** The two points with the given x-coordinate, if x^3 + x is a square;
    the first has the lexicographically smaller y encoding. *)

val to_bytes : ctx -> point -> string
(** Compressed SEC1-style encoding: 0x00 for infinity (1 byte),
    0x02/0x03 (y parity) followed by x otherwise. *)

val of_bytes : ctx -> string -> point option
(** Rejects malformed, off-curve, and non-canonical encodings. *)

val byte_length : ctx -> int
(** Length of a non-infinity compressed encoding. *)

val pp : ctx -> Format.formatter -> point -> unit
