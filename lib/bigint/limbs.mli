(** Fixed-width, destination-passing Montgomery field kernels.

    The allocation-free machine room under {!Fp} (and transitively under
    the curve, pairing and every scheme in the repo). A context freezes
    the limb count [k] of its modulus at creation; an element is a flat
    [int array] of {e exactly} [k] base-2^29 limbs holding the canonical
    (fully reduced) Montgomery residue. Kernels write into caller-provided
    destination buffers; their working space is per-domain scratch
    ({!Domain.DLS}), so concurrent use from a [Pool] of domains is
    race-free, and the inner loops perform no allocation, no [Array.sub],
    no normalization, and no data-dependent branches (conditional
    subtraction is mask-selected; only {!inv_into} and the exponent walk
    of {!pow_into} branch on data). Every product and column sum runs in
    unboxed [Int64]. At 9 limbs the reduced kernels are generated
    straight-line code ([Limbs_straight]); every other width runs loops.
    Both return the canonical residue.

    Canonical representatives make bit-identity to the generic
    {!Modarith.Mont} reference a complete correctness contract: the
    differential tests in [test_limbs] and the [bench --smoke] gate assert
    it for every operation.

    Aliasing: every [*_into] kernel tolerates [dst] aliasing any of its
    inputs. Buffers must belong to the context that sized them. *)

type ctx

type elt = int array
(** Exactly [limb_count ctx] limbs, little-endian, each in [0, 2^29);
    value in [0, m) times R = 2^(29k) mod m. The 29-bit base keeps every
    partial product under 2^58, so a column of up to 2k products plus a
    carry accumulates carry-free in an unsigned [Int64] for k <= 31 (see
    [limbs.ml]). Treat as owned mutable
    storage: the functional layer above ({!Fp}) never mutates values it
    has returned, while the [*_into] kernels mutate only [dst]. *)

val create : Bigint.t -> ctx
(** Raises [Invalid_argument] unless the modulus is odd and >= 3, and
    for a modulus wider than 31 limbs (899 bits), past the column-sum
    bound. *)

val limb_count : ctx -> int

(** {1 Buffers} *)

val alloc : ctx -> elt
(** A fresh zero element (the canonical encoding of 0). *)

val copy_into : ctx -> elt -> elt -> unit
val set_zero : ctx -> elt -> unit
val set_one : ctx -> elt -> unit

(** {1 Predicates} *)

val is_zero : ctx -> elt -> bool

(** {1 Reduced kernels} — allocation-free, results canonical *)

val add_into : ctx -> elt -> elt -> elt -> unit
val sub_into : ctx -> elt -> elt -> elt -> unit
val neg_into : ctx -> elt -> elt -> unit
val mul_into : ctx -> elt -> elt -> elt -> unit
(** In-place Montgomery multiplication: fused product-scanning with
    delayed carries (multiply, reduce and the conditional-subtraction
    trial borrow in one column pass). *)

val sqr_into : ctx -> elt -> elt -> unit
(** Dedicated squaring in the same fused column pass as {!mul_into}, with
    each cross product computed once and doubled (half the partial
    products). *)

(** {1 Derived operations} *)

val pow_into : ctx -> elt -> elt -> Bigint.t -> unit
(** Sliding-window exponentiation over the in-place kernels (exponent
    >= 0), on the schedule of {!Bigint.sliding_windows}; the odd-powers
    table is the only per-call allocation. *)

val inv_into : ctx -> elt -> elt -> unit
(** Allocation-free Montgomery inversion: a limb-form binary extended
    GCD over per-domain scratch (no [Bigint] round trip), then one
    Montgomery multiplication by R^3 to land back on x^-1 * R. Raises
    [Division_by_zero] when the value is not invertible. *)

(** {1 Conversions} *)

val of_bigint : ctx -> Bigint.t -> elt
val to_bigint : ctx -> elt -> Bigint.t
