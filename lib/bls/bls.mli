(** Boneh–Lynn–Shacham short signatures over the GDH group (Asiacrypt'01).

    Section 5.3.1 of the paper observes that the time-bound key update
    [s*H1(T)] "is equivalent to the short signature in [BLS]" — the
    update is self-authenticating precisely because it is a BLS signature
    on the release-time string under the server's key. This module is that
    signature scheme, also usable standalone. *)

type secret
type public = { g : Curve.point; pk : Curve.point }
(** (G, sG): the signer's generator and public point — the same shape as
    the paper's server public key. *)

type signature = Curve.point
(** sigma = s * H1(m), one compressed G1 point. *)

val keygen : ?g:Curve.point -> Pairing.params -> Hashing.Drbg.t -> secret * public
(** Fresh keypair; the generator defaults to the system generator but may
    be any non-identity subgroup point (servers may pick their own).
    Raises [Invalid_argument] if [g] is the identity or outside G1. *)

val secret_of_scalar : Pairing.params -> Bigint.t -> ?g:Curve.point -> unit -> secret * public
(** Deterministic keypair from an existing scalar in [1, q-1]: a time
    server's key from its key file ({!Tre.Server.secret_of_scalar}), a
    threshold share-server's from its share. Raises [Invalid_argument] if
    the scalar is out of range, or [g] is the identity or outside G1. *)

val secret_to_scalar : secret -> Bigint.t
(** The scalar s, for a key file. *)

val sign : Pairing.params -> secret -> string -> signature

val verify : Pairing.params -> public -> string -> signature -> bool
(** e^(G, sigma) = e^(sG, H1(m)), plus subgroup membership of [sigma]. *)

val verify_batch :
  ?pool:Pool.t -> Pairing.params -> public -> (string * signature) list -> bool
(** Same-signer batch verification with small random exponents
    (Bellare–Garay–Rabin): checks
    e^(G, sum d_i sigma_i) = e^(sG, sum d_i H1(m_i)) — two pairings total
    instead of 2n, plus one multi-scalar multiplication of 64-bit
    exponents per side. The d_i are derandomized
    ({!Pairing.batch_exponents} keyed by signer and batch), which defeats
    cancellation attacks that fool an unweighted sum; duplicate messages
    are consequently fine.

    Precondition: every sigma_i is already in G1. Every decoder
    guarantees it ({!signature_of_bytes} included): points are read
    through [Codec.read_point], which runs {!Pairing.in_g1}. Under it,
    the batch accepts iff every item passes {!verify}, except with
    probability ~2^-64 over the exponents. Items pay only the on-curve
    test and ONE subgroup test runs on the weighted sum, so without the
    precondition the verdicts can differ: a component of order l
    dividing the cofactor, invisible to the pairing (e^(G, c) = 1),
    drops out of sum d_i sigma_i whenever l | d_i, and the batch then
    accepts, with probability ~1/l per batch content, an item {!verify}
    rejects (ROADMAP.md, item 1). H1's cofactor clearing is hoisted out
    of the items and paid once on the H-sum. [pool] shards the per-item
    work across domains; the verdict is identical with or without it. *)

type verifier
(** Prepared pairings ({!Pairing.prepare}) for one signer's (G, pk), for
    parties that verify many of their signatures. *)

val make_verifier : Pairing.params -> public -> verifier

val verify_with : Pairing.params -> verifier -> string -> signature -> bool
(** Same result as {!verify}, skipping the Miller loops' point
    arithmetic. *)

val verify_batch_with :
  ?pool:Pool.t -> Pairing.params -> verifier -> (string * signature) list -> bool
(** Same result as {!verify_batch}, amortizing the Miller-loop point
    arithmetic of the two final pairings. *)

val signature_bytes : Pairing.params -> int
(** Size of a serialized signature — one compressed point (the "short" in
    short signatures) plus the {!Codec} envelope. *)

val signature_to_bytes : Pairing.params -> signature -> string
val signature_of_bytes : Pairing.params -> string -> (signature, string) result
(** Strict {!Codec} envelope (kind [BLS SIGNATURE]). Rejects off-curve,
    out-of-subgroup and non-canonical encodings; the identity element is
    accepted only in its single canonical form. Never raises. *)

val public_to_bytes : Pairing.params -> public -> string
val public_of_bytes : Pairing.params -> string -> (public, string) result
(** Strict {!Codec} envelope (kind [BLS PUBLIC KEY]); both points must be
    non-identity subgroup members. Never raises. *)
