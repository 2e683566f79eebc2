(** The bilinear (Gap Diffie-Hellman) group of the paper, Section 4.

    G1 is the order-q subgroup of the supersingular curve
    E : y^2 = x^3 + x over GF(p) (p = 3 mod 4, p + 1 = h*q); G2 is the
    order-q subgroup of GF(p^2)*. [pairing] is the modified Tate pairing
    e^(P, Q) = e(P, phi(Q)) with the distortion map phi(x,y) = (-x, iy),
    which is bilinear, non-degenerate and efficiently computable — and
    makes DDH in G1 easy ({!ddh}) while CDH/BDH stay hard: exactly the
    GDH-group setting the schemes are defined over. *)

type family =
  | Y2_x3_x  (** E: y^2 = x^3 + x, p = 3 (mod 4), distortion (x,y) -> (-x, iy) *)
  | Y2_x3_1
      (** E: y^2 = x^3 + 1, p = 11 (mod 12), distortion (x,y) -> (zeta x, y)
          — the Boneh-Franklin curve. Supported as a second instantiation
          of the paper's "any GDH group". Its live first arguments run
          Jacobian in-place walkers on the binary schedule of q, with
          separate numerator/denominator accumulators merged by a single
          inversion; prepared points of G1 (the generator included) run
          the same NAF schedule as {!Y2_x3_x}, evaluated at the image of
          phi(Q) in the trace-zero subgroup, where verticals lie in GF(p)
          and drop out. *)

type prepared
(** A first pairing argument with its whole Miller-loop line-function
    schedule precomputed ({!prepare}) over the NAF of q, the lines stored
    pre-scaled by their y-coefficient (one batched inversion at prepare
    time), so evaluation is two base-field operations per line. On
    {!Y2_x3_1} the schedule is recorded for [[(q+1)/2]P] and evaluated at
    the trace-zero image of phi(Q), one inversion per product for all its
    prepared slots; this is exact for P in G1, so a {!Y2_x3_1} point
    outside G1 records no schedule and walks live. Pairing against it
    ({!pairing_prepared} and friends) runs as a prepared slot of the
    product kernel, skips all the loop's point arithmetic and gives
    results bit-identical to {!pairing}. A low-order {!Y2_x3_x} point
    whose NAF walk degenerates records no schedule either; it walks live,
    and every product holding it runs on the reference loop. *)

type params = private {
  name : string;
  family : family;
  p : Bigint.t;  (** field prime, = 3 (mod 4) *)
  q : Bigint.t;  (** prime order of G1 and G2 *)
  cofactor : Bigint.t;  (** h with p + 1 = h * q *)
  fp : Fp.ctx;
  curve : Curve.ctx;
  g : Curve.point;  (** the system generator G of G1 *)
  final_exp : Bigint.t;  (** (p^2 - 1) / q *)
  zeta : Fp2.t;  (** primitive cube root of unity; only used by {!Y2_x3_1} *)
  q_naf : int array;
      (** MSB-first non-adjacent form of q — the signed-digit schedule
          of the production Miller loop (~bits/3 addition steps) *)
  cofactor_wnaf : int array;
      (** MSB-first wNAF of the cofactor, driving the cyclotomic
          final-exponentiation window (negative digits are free:
          inversion in the norm-1 subgroup is conjugation); the window
          width adapts to the cofactor size so small parameter sets do
          not overpay for the odd-power table *)
  g_table : Curve.Table.t;
      (** fixed-base precomputation for [g], built at construction *)
  g_prep : prepared;
      (** [prepare prms g], recorded at construction; live first
          arguments equal to [g] are promoted to it *)
}

val make :
  ?family:family -> name:string -> p:Bigint.t -> q:Bigint.t -> unit -> params
(** Build and validate a parameter set: checks p, q probable primes,
    the family's congruence on p (3 mod 4 for {!Y2_x3_x}, 11 mod 12 for
    {!Y2_x3_1}), q | p + 1, q^2 does not divide p + 1 (so G1 is cyclic
    of order exactly q), and derives a generator by hashing a fixed seed.
    [family] defaults to {!Y2_x3_x}. Raises [Invalid_argument] on any
    violation. *)

(** {1 Named parameter sets}

    Generated once by [bin/paramgen.ml] (kept in the repo for audit) and
    validated again by {!make} at first use. *)

val toy64 : unit -> params
(** 64-bit q, ~80-bit p: fast, for unit tests only. *)

val toy64b : unit -> params
(** Like {!toy64} but on the {!Y2_x3_1} (Boneh–Franklin) curve family. *)

val mid128b : unit -> params
(** Like {!mid128} on the {!Y2_x3_1} family. *)

val mid128 : unit -> params
(** 128-bit q, ~256-bit p: medium, integration tests and quick benches. *)

val std160 : unit -> params
(** 160-bit q, 512-bit p — the Boneh–Franklin-era security level the
    paper's setting assumed. *)

val by_name : string -> params option
val all_names : string list

(** {1 Group operations} *)

val random_scalar : params -> Hashing.Drbg.t -> Bigint.t
(** Uniform in [1, q-1] — the paper's Z_q^*. *)

val batch_exponents : params -> seed:string -> int -> Bigint.t list
(** [n] derandomized 64-bit nonzero exponents for Bellare–Garay–Rabin
    small-exponents batch verification, drawn from a DRBG keyed by [seed]
    (by convention: the verification key and the serialized batch, so any
    tampering re-randomizes all exponents — Fiat–Shamir style, sound in
    the random-oracle model). Used by {!Bls.verify_batch} and
    [Tre.Verifier.verify_updates]. *)

val pairing : params -> Curve.point -> Curve.point -> Fp2.t
(** The modified Tate pairing of two G1 points; result in the order-q
    subgroup of GF(p^2)*. [pairing p G G] is a generator of G2. *)

val pairing_ref : params -> Curve.point -> Curve.point -> Fp2.t
(** The same pairing through the functional (allocating) binary Miller
    loop and the generic final exponentiation, pinned as the reference
    for the kernel path. Bit-identical to {!pairing} — the equivalence
    tests and [bench --smoke] assert it. *)

(** {1 Pairing stages}

    The two halves of the pairing, exposed for the stage-level
    benchmarks and differential tests. Contracts: the two Miller loops
    agree after (either) final exponentiation — their raw values differ
    only by GF(p)* factors the exponentiation annihilates — and the two
    final exponentiations are bit-identical on {e every} input. *)

val miller_loop : params -> Curve.point -> Curve.point -> Fp2.t
(** The product kernel on one pair ({!miller_product_mixed} of
    [[(Point p, q)]]): in-place walkers on the signed-digit (NAF) schedule
    on {!Y2_x3_x}, the binary one on {!Y2_x3_1}; a generator first
    argument uses the construction-time prepared schedule (on {!Y2_x3_1}
    its raw value is that of the trace-zero evaluation, equal to the
    others only after the final exponentiation). *)

val miller_loop_ref : params -> Curve.point -> Curve.point -> Fp2.t
(** Pinned functional binary-schedule Miller loop. *)

val final_exponentiation : params -> Fp2.t -> Fp2.t
(** Kernel path: easy part by conjugation and one inversion, hard part
    by cyclotomic squarings under a signed window ({!params.cofactor_wnaf}).
    Raises [Division_by_zero] on zero. *)

val final_exponentiation_ref : params -> Fp2.t -> Fp2.t
(** Pinned generic path: easy part, then sliding-window {!Fp2.pow} by
    the cofactor. *)

(** {1 Products of pairings}

    Every verification equation in the system is a product
    [prod_i e^(P_i, Q_i) = 1]. The product kernel computes all N pairs
    through ONE interleaved Miller loop — a single shared f^2 squaring
    chain per loop bit (the squarings dominate; with N pairs they are
    paid once instead of N times), every line evaluation folded into the
    same accumulator — and at most one shared final exponentiation.
    Decision-only checks skip even that: [FE(m) = 1] iff [m^h] lands in
    GF(p), a cofactor exponentiation and an is-zero test. All results
    and decisions are bit-identical to multiplying separate {!pairing}
    values — the differential tests pin it. *)

type pair_arg =
  | Point of Curve.point
  | Prepared of prepared
      (** A product slot: a live first argument, or one prepared with
          {!prepare}. Live arguments equal to the system generator are
          promoted to the construction-time schedule automatically, on
          both families. *)

val miller_product : params -> (Curve.point * Curve.point) list -> Fp2.t
(** The raw interleaved Miller product [prod_i f_i] (pre final
    exponentiation). The empty product is 1. *)

val miller_product_mixed : params -> (pair_arg * Curve.point) list -> Fp2.t
(** {!miller_product} with prepared and live first arguments mixed
    freely in one loop. *)

val check_product_one : params -> (Curve.point * Curve.point) list -> bool
(** [prod_i e^(P_i, Q_i) = 1]? One interleaved Miller loop, then the
    GF(p)-membership test of [m^h] in place of a final exponentiation.
    The decision equals [Fp2.is_one (pairing_product prms pairs)]
    exactly. *)

val check_product_one_mixed : params -> (pair_arg * Curve.point) list -> bool
(** {!check_product_one} over mixed prepared/live first arguments. *)

val pairing_product : params -> (Curve.point * Curve.point) list -> Fp2.t
(** [prod_i e^(P_i, Q_i)] as a GT value: one interleaved Miller loop and
    a single shared final exponentiation — for callers that need the
    product itself (multi-server decryption), not just a decision. *)

val pairing_equal_check :
  params -> lhs:Curve.point * Curve.point -> rhs:Curve.point * Curve.point -> bool
(** [e^(a,b) = e^(c,d)]? via [e^(a,b) * e^(c,-d) = 1] — one interleaved
    product, no final exponentiation. The right-hand side is inverted by
    negating its point argument so a generator first argument keeps its
    prepared schedule. *)

(** {1 Precomputed pairings and fixed-base scalars}

    When the same first argument feeds many pairings (the generator, a
    public key, a hashed release time), prepare it once; every subsequent
    pairing then skips the Miller loop's point arithmetic. All prepared
    variants are bit-identical to their plain counterparts. *)

val prepare : params -> Curve.point -> prepared
val pairing_prepared : params -> prepared -> Curve.point -> Fp2.t
(** [pairing_prepared prms (prepare prms p) q = pairing prms p q]. *)

val pairing_equal_check_prepared :
  params -> lhs:prepared * Curve.point -> rhs:prepared * Curve.point -> bool
(** Like {!pairing_equal_check}; the inversion of the right-hand side
    negates its point argument (e^(c,d)^-1 = e^(c,-d)), since a prepared
    argument cannot be negated. *)

val mul_g : params -> Bigint.t -> Curve.point
(** [mul_g prms k = Curve.mul prms.curve k prms.g], via the fixed-base
    table [g_table]. *)

val gt_mul : params -> Fp2.t -> Fp2.t -> Fp2.t
val gt_pow : params -> Fp2.t -> Bigint.t -> Fp2.t
val gt_inv : params -> Fp2.t -> Fp2.t
val gt_equal : Fp2.t -> Fp2.t -> bool
val gt_one : params -> Fp2.t

val in_g1 : params -> Curve.point -> bool
(** On-curve and killed by q (subgroup membership), the latter by
    {!Curve.mul_is_infinity}: exact on every curve point, no y and no
    inversion. *)

val ddh : params -> Curve.point -> Curve.point -> Curve.point -> Curve.point -> bool
(** [ddh prms p a b c] decides whether (p, a, b, c) is a DDH tuple, i.e.
    c = xy.p when a = x.p, b = y.p — via e^(a, b) = e^(p, c). This is the
    polynomial-time DDH solver that makes G1 a {e Gap} DH group. *)

(** {1 The paper's random oracles} *)

val hash_to_g1 : params -> string -> Curve.point
(** H1 : \{0,1\}* -> G1*: try-and-increment to a curve point, then
    cofactor multiplication into the subgroup; never returns infinity. *)

val hash_to_g1_unclamped : params -> string -> Curve.point
(** The pre-cofactor-clearing lift behind {!hash_to_g1}: a curve point of
    unconstrained order. Cofactor clearing commutes with linear
    combinations, so batch verifiers accumulate these raw lifts weighted
    by their small exponents and clear the cofactor {e once} on the sum —
    one h-mult per batch instead of one per item.
    [hash_to_g1 prms m = Curve.mul prms.curve prms.cofactor
    (hash_to_g1_unclamped prms m)] for every input whose clamped lift is
    nonzero (all but a fraction 1/q < 2^-64 of inputs, on which
    {!hash_to_g1} re-rolls its internal counter instead). *)

val h2 : params -> Fp2.t -> int -> string
(** H2 : G2 -> \{0,1\}^n, instantiated as a KDF over the canonical
    serialization of the pairing value; [n] is the plaintext length in
    bytes, so [Kdf.xor] of a message with its H2 image implements the
    paper's [M xor H2(K)]. *)

val scalar_bytes : params -> int
(** Serialized width of a scalar (bytes of q). *)

val point_bytes : params -> int
(** Serialized width of a compressed non-infinity G1 point. *)

val gt_bytes : params -> int
(** Serialized width of a G2 element. *)
