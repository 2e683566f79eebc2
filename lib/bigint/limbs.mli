(** Fixed-width, destination-passing Montgomery field kernels.

    The allocation-free machine room under {!Fp} (and transitively under
    the curve, pairing and every scheme in the repo). A context freezes
    the limb count [k] of its modulus at creation; an element is a flat
    [int array] of {e exactly} [k] base-2^26 limbs holding the canonical
    (fully reduced) Montgomery residue. Kernels write into caller-provided
    destination buffers; their working space is per-domain scratch
    ({!Domain.DLS}), so concurrent use from a [Pool] of domains is
    race-free, and the inner loops perform no allocation, no [Array.sub],
    no normalization, and no data-dependent branches (conditional
    subtraction is mask-selected). At 10 limbs the reduced kernels are
    generated straight-line code ([Limbs_straight]); every other width
    runs loops. Both return the canonical residue.

    Canonical representatives make bit-identity to the generic
    {!Modarith.Mont} reference a complete correctness contract: the
    differential tests in [test_limbs] and the [bench --smoke] gate assert
    it for every operation.

    Aliasing: every [*_into] kernel tolerates [dst] aliasing any of its
    inputs. Buffers must belong to the context that sized them. *)

type ctx

type elt = int array
(** Exactly [limb_count ctx] limbs, little-endian, each in [0, 2^26);
    value in [0, m) times R = 2^(26k) mod m. The 26-bit base keeps every
    partial product under 2^52 so column sums accumulate carry-free in a
    native int (see [limbs.ml]). Treat as owned mutable
    storage: the functional layer above ({!Fp}) never mutates values it
    has returned, while the [*_into] kernels mutate only [dst]. *)

val create : Bigint.t -> ctx
(** Raises [Invalid_argument] unless the modulus is odd and >= 3. *)

val modulus : ctx -> Bigint.t
val limb_count : ctx -> int

val lazy_ok : ctx -> bool
(** Whether 4m <= R (top two bits of the top limb free): the gate for the
    unreduced-sum / lazy-reduction identities used by the Fp2 kernels
    ({!add_nored_into}, the wide pipeline). Holds for every named
    parameter set; fails only for moduli within two bits of filling their
    top limb, for which callers must keep to the reduced kernels. *)

val lazy_products : ctx -> bool
(** Whether GF(p^2) products should run the unreduced pipeline below:
    {!lazy_ok} at a width that runs the loop kernels. At a width with
    straight-line kernels, or without the headroom, they run reduced
    Karatsuba on {!mul_into}/{!add_into}/{!sub_into} instead. *)

(** {1 Buffers} *)

val alloc : ctx -> elt
(** A fresh zero element (the canonical encoding of 0). *)

val wide_alloc : ctx -> int array
(** A fresh wide buffer (2k+2 limbs) for the unreduced pipeline. *)

val copy_into : ctx -> elt -> elt -> unit
val set_zero : ctx -> elt -> unit
val set_one : ctx -> elt -> unit

(** {1 Predicates} *)

val is_zero : ctx -> elt -> bool
val equal : ctx -> elt -> elt -> bool

(** {1 Reduced kernels} — allocation-free, results canonical *)

val add_into : ctx -> elt -> elt -> elt -> unit
val sub_into : ctx -> elt -> elt -> elt -> unit
val neg_into : ctx -> elt -> elt -> unit
val mul_into : ctx -> elt -> elt -> elt -> unit
(** In-place Montgomery multiplication: fused product-scanning with
    delayed carries (multiply, reduce and the conditional-subtraction
    trial borrow in one column pass). *)

val sqr_into : ctx -> elt -> elt -> unit
(** Dedicated squaring: wide square with each cross product computed once
    (half the partial products), then Montgomery reduction. *)

(** {1 Unreduced pipeline} — requires {!lazy_ok}; feeds the Fp2 kernels *)

val add_nored_into : ctx -> elt -> elt -> elt -> unit
(** Plain limb addition of two residues, no conditional subtraction. *)

val mul_wide_into : ctx -> int array -> elt -> elt -> unit
(** Full 2k-limb product, no reduction; extra top limbs zeroed. *)

val sqr_wide_into : ctx -> int array -> elt -> unit
val wide_sub_into : ctx -> int array -> int array -> int array -> unit
(** [wide_sub_into w a b]: w <- a - b over the wide width; a >= b. *)

val wide_add_m2_into : ctx -> int array -> unit
(** w <- w + m^2: keeps lazy-reduction differences non-negative. *)

val wide_double_into : ctx -> int array -> unit

val redc_into : ctx -> elt -> int array -> unit
(** Montgomery reduction of a wide value < m*R into a canonical element;
    destroys the wide buffer. *)

(** {1 Derived operations} *)

val pow_into : ctx -> elt -> elt -> Bigint.t -> unit
(** Sliding-window exponentiation over the in-place kernels (exponent
    >= 0); the odd-powers table is the only per-call allocation. *)

val inv_into : ctx -> elt -> elt -> unit
(** Allocation-free Montgomery inversion: a limb-form binary extended
    GCD over per-domain scratch (no [Bigint] round trip), then one
    Montgomery multiplication by R^3 to land back on x^-1 * R. Raises
    [Division_by_zero] when the value is not invertible. *)

(** {1 Conversions} *)

val of_bigint : ctx -> Bigint.t -> elt
val of_bigint_into : ctx -> elt -> Bigint.t -> unit
val to_bigint : ctx -> elt -> Bigint.t
