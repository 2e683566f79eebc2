(** Verifiable pairing outsourcing for thin clients.

    A client that cannot afford Miller loops delegates [e^(A, B)] to two
    untrusted, non-colluding helpers (the OMTUP model: one malicious,
    two untrusted programs). Queries are blinded with one-time tuples of
    random multiples of the generator so neither helper learns [A], [B]
    or the result; the client reassembles the pairing from the replies
    with a handful of GT multiplications — no Miller loop and no final
    exponentiation on the client. (Recovery itself is exponentiation-free;
    the {e hardened} check below adds one short and two full-width GT
    exponentiations for its subgroup-membership tests.)

    {b The published check is forgeable.} The original outsourcing
    verification (duplicate the computation across two independent
    blinded runs, anchor known test slots, compare the two recovered
    values) cannot filter malformed responses: a malicious helper that
    multiplies the main slot of {e both} runs by the same factor
    [mu] passes every equation and shifts the output by [mu] — the
    Liu–Cao attack (arXiv:1512.05413; see PAPERS.md). {!Published} mode
    implements that check faithfully, and the regression suite mounts
    the forgery against it.

    {b The hardened check.} {!Hardened} mode makes the second run
    compute [e^(A, c.B)] for a secret short exponent [c] and accepts
    only when [R_b = R_a^c] with both recovered values in the order-q
    subgroup ([R^q = 1]) and no degenerate (zero or one) response slot.
    A consistent shift by [mu] now must satisfy [mu^c = mu] for the
    hidden [c] — probability [2^-64] — and any shift escaping GT is
    caught by the membership test. Blinding tuples are separately
    auditable ({!audit}) through a single randomized pairing-product
    equation decided by {!Pairing.check_product_one}.

    Collusion caveat: if the two helpers pool their queries they can
    cancel the blinding and recover [A] and [B]. Privacy (and the
    hardened check's soundness) holds against each helper alone, which
    is the model's assumption. *)

type ctx
(** Delegation context: parameter set plus the cached generator pairing
    [e^(G, G)] that anchors blinding-tuple construction. *)

val make : Pairing.params -> ctx

type blinding = {
  v1 : Curve.point;
  v2 : Curve.point;
  v5 : Curve.point;
  v6 : Curve.point;
  v3 : Curve.point;
  v4 : Curve.point;
  w_chi : Bigint.t;
  w_34 : Bigint.t;
  chi : Fp2.t;
  chi34 : Fp2.t;
  mutable spent : bool;
}
(** A one-time blinding tuple: six secret multiples of [G] (four for
    the main equation, two for the anchored test slot) plus the
    pre-aggregated GT correction factors [chi = e^(G,G)^w_chi] and
    [chi34 = e^(G,G)^w_34]. The discrete logs themselves are not
    retained — only the aggregated exponents — so the record is safe
    to persist and to audit. Construct only via {!blind}; treat as
    read-only (the tamper cases in the test suite build modified
    copies on purpose, and {!audit} must reject them). Consumed by
    exactly one {!wrap} — reuse raises, because a replayed tuple lets
    a helper correlate queries and strip the blinding. *)

val blind : ctx -> Hashing.Drbg.t -> blinding
(** Draw a fresh tuple. All point multiplications go through the
    fixed-base generator table, so this is the cheap offline phase. *)

val audit : ctx -> Hashing.Drbg.t -> blinding -> bool
(** Integrity check for stored/precomputed tuples: subgroup membership
    of every point, recomputation of both GT correction factors, and
    one randomized 6-pair product equation (fresh short exponents each
    call) decided by {!Pairing.check_product_one}. A tampered or
    mix-and-matched tuple fails with probability [1 - 2^-64]. *)

type wrap
(** One blinded delegation of a target pairing: the two query vectors
    (one per helper) and the GT corrections needed to unblind. *)

val wrap : ctx -> blinding -> a:Curve.point -> b:Curve.point -> wrap
(** Blind [e^(A, B)] under a fresh tuple. Marks the tuple spent;
    raises [Invalid_argument] on a spent tuple, on an infinity input,
    or on the (negligible) event of a blinded point collapsing to
    infinity. *)

val queries1 : wrap -> (Curve.point * Curve.point) array
(** Helper 1's query vector: [[(A+V1, B+V2); (V3, V4)]]. *)

val queries2 : wrap -> (Curve.point * Curve.point) array
(** Helper 2's query vector: [[(-V1, B+V6); (A+V5, -V2); (V3, V4)]]. *)

val serve : Pairing.params -> (Curve.point * Curve.point) array -> Fp2.t array
(** The honest helper: one pairing per query slot. This is what the
    networked helper daemons run. *)

type transport = (Curve.point * Curve.point) array -> Fp2.t array
(** A helper channel: local {!serve}, a socket round-trip, or a
    malicious shim in the adversary tests. *)

type mode =
  | Published
      (** The paper-faithful check: two independent runs of [e^(A, B)],
          accept iff anchored slots hold and the recovered values agree.
          Forgeable by a consistent multiplicative shift (Liu–Cao). *)
  | Hardened
      (** Second run computes [e^(A, c.B)] for a secret short [c];
          accept iff anchored slots hold, no response slot is zero or
          one, both recovered values satisfy [R^q = 1], and
          [R_b = R_a^c]. *)

val pair :
  ctx -> mode:mode -> ?blindings:blinding * blinding -> Hashing.Drbg.t ->
  helper1:transport -> helper2:transport ->
  a:Curve.point -> b:Curve.point ->
  (Fp2.t, string) result
(** Delegate [e^(A, B)]: two blinded runs (fresh tuples unless
    [?blindings] supplies precomputed ones), verification per [mode].
    [Ok] carries the pairing value, bit-identical to
    [Pairing.pairing] when both helpers are honest. *)

val equal_with :
  ctx -> ?blindings:blinding * blinding -> Hashing.Drbg.t ->
  helper1:transport -> helper2:transport ->
  c:Bigint.t ->
  lhs:Curve.point * Curve.point ->
  rhs:Curve.point * Curve.point ->
  (bool, string) result
(** Delegated pairing-equality [e^(L1, L2) = e^(R1, R2)], the shape of
    every verification equation in the scheme — two wraps instead of
    four: the caller folds the secret short exponent [c] into [lhs]'s
    second argument (cheaply, e.g. during cofactor clearing), we
    delegate [L' = e^(L1, c.L2)] and [R' = e^(R1, R2)] and accept iff
    both are in GT and [L' = R'^c]. [lhs]'s second component must
    already be the [c]-multiplied point. *)

val equal :
  ctx -> ?blindings:blinding * blinding -> Hashing.Drbg.t ->
  helper1:transport -> helper2:transport ->
  lhs:Curve.point * Curve.point ->
  rhs:Curve.point * Curve.point ->
  (bool, string) result
(** {!equal_with} with [c] drawn internally and multiplied in here. *)

val random_small_exponent : Pairing.params -> Hashing.Drbg.t -> Bigint.t
(** Uniform secret exponent in [[1, min(q, 2^64) - 1]] — the hardened
    check's [c]. Exposed so callers that fold [c] into other scalar
    work (see {!equal_with}) draw it the same way. *)
