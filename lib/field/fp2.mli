(** The quadratic extension GF(p^2) = GF(p)[i]/(i^2 + 1).

    This is the target group G2 of the modified Tate pairing: pairing
    values live in the order-q subgroup of GF(p^2)*. Irreducibility of
    i^2 + 1 is guaranteed by {!Fp}'s p = 3 (mod 4) requirement. *)

type t = { re : Fp.t; im : Fp.t }

val make : re:Fp.t -> im:Fp.t -> t
val of_fp : Fp.ctx -> Fp.t -> t
(** Embed GF(p) as the real axis. *)

val zero : Fp.ctx -> t
val one : Fp.ctx -> t
val equal : t -> t -> bool
val is_zero : Fp.ctx -> t -> bool
val is_one : Fp.ctx -> t -> bool
val add : Fp.ctx -> t -> t -> t
val sub : Fp.ctx -> t -> t -> t
val neg : Fp.ctx -> t -> t
val mul : Fp.ctx -> t -> t -> t
val mul_fp : Fp.ctx -> Fp.t -> t -> t
(** Scale by a base-field element. *)

val sqr : Fp.ctx -> t -> t
val conj : Fp.ctx -> t -> t
(** Conjugation a - bi, i.e. the Frobenius x -> x^p. *)

val norm : Fp.ctx -> t -> Fp.t
(** a^2 + b^2 in GF(p). *)

val inv : Fp.ctx -> t -> t
(** Raises [Division_by_zero] on zero. *)

val pow : Fp.ctx -> t -> Bigint.t -> t
(** Sliding-window exponentiation (odd-powers table, the schedule of
    {!Bigint.sliding_windows}); exponent may be negative. *)

val pow_binary : Fp.ctx -> t -> Bigint.t -> t
(** Reference square-and-multiply ladder; kept for the equivalence tests
    and the before/after benchmark. *)

val to_bytes : Fp.ctx -> t -> string
(** Canonical [re || im] fixed-width encoding — the input to the paper's
    H2 hash. *)

val of_bytes : Fp.ctx -> string -> t option
val pp : Fp.ctx -> Format.formatter -> t -> unit

(** {1 In-place accumulator face}

    Destination-passing product/squaring over caller-owned coefficient
    buffers, for the Miller loop's f-accumulator and GT exponentiation
    chains. Same discipline as {!Fp.Mut}: a loop mutates only values it
    allocated itself; [dst] may alias the operands; results are
    canonical, hence bit-identical to the functional face. *)
module Mut : sig
  val alloc : Fp.ctx -> t
  (** A fresh zero value whose coefficient buffers the caller owns. *)

  val set : Fp.ctx -> t -> t -> unit
  val set_one : Fp.ctx -> t -> unit
  val mul_into : Fp.ctx -> t -> t -> t -> unit
  val sqr_into : Fp.ctx -> t -> t -> unit

  val inv_into : Fp.ctx -> t -> t -> unit
  (** Allocation-free inversion (norm, one limb-form extended-GCD
      inversion, two products); [dst] may alias the operand. Raises
      [Division_by_zero] on zero. *)

  val cyclo_sqr_into : Fp.ctx -> t -> t -> unit
  (** Squaring in the norm-1 (cyclotomic) subgroup: for a + bi with
      a^2 + b^2 = 1, (a + bi)^2 = (2a^2 - 1) + ((a + b)^2 - 1) i — two
      base-field squarings and no multiplication, against the general
      formula's two multiplications. {b Precondition}: [norm ctx a = 1];
      the caller (the final-exponentiation hard part, where f^(p-1)
      guarantees it) is responsible, the kernel does not check. *)
end
