(** Identity-based Timed Release Encryption (§5.2; the idea of Chen et al.).

    The receiver's public key is his identity string; the trusted server
    both extracts user private keys s*H1(ID) and broadcasts the time-bound
    updates s*H1(T). Decryption combines the two by point addition:
    K_D = s*H1(ID) + s*H1(T) = s*(H1(ID) + H1(T)).

    Kept as a comparison point: it shares TRE's single-update scalability
    but, like all identity-based schemes, has inherent key escrow — the
    server can decrypt everything (§5.2, and the motivation for TRE in
    §2.2/§3). The escrow is demonstrated, not hidden: see {!escrow_decrypt}. *)

type identity = string
type time = string

exception Update_mismatch

(** The ID-TRE server is the TRE server — the same keys s and (G, sG),
    the same updates — that also extracts private keys. *)
module Server : sig
  type secret = Tre.Server.secret
  type public = Tre.Server.public = { g : Curve.point; sg : Curve.point }

  val keygen : ?g:Curve.point -> Pairing.params -> Hashing.Drbg.t -> secret * public
  (** {!Tre.Server.keygen}. *)

  val extract : Pairing.params -> secret -> identity -> Curve.point
  (** User Key Generation: the private key s*H1(ID), {!Bls.sign} of ID
      under the server's key, delivered to the user over a secure channel
      (a structural cost TRE avoids). *)

  val issue_update : Pairing.params -> secret -> time -> Tre.update
  (** {!Tre.issue_update}. *)
end

val verify_update : Pairing.params -> Server.public -> Tre.update -> bool
(** {!Tre.verify_update}. *)

val verify_private_key :
  Pairing.params -> Server.public -> identity -> Curve.point -> bool
(** A user checks the extracted key, a BLS signature on the identity:
    {!Bls.verify} under (G, sG), i.e. e^(G, d) = e^(sG, H1(ID)) plus
    subgroup membership of [d]. *)

type ciphertext = { u : Curve.point; v : string; release_time : time }

val encrypt :
  Pairing.params ->
  Server.public ->
  identity ->
  release_time:time ->
  Hashing.Drbg.t ->
  string ->
  ciphertext
(** K_E = H1(ID) + H1(T); K = e^(sG, K_E)^r; C = <rG, M xor H2(K)>.
    U runs on the parameter set's fixed-base table when G is its
    generator; the bytes are those of K = e^(r sG, K_E). *)

(** Stateful sender context: prepares sG once, serves U = rG from a
    fixed-base table ({!Tre.mul_generator}: the parameter set's own when
    G is its generator) and caches e^(sG, H1(ID) + H1(T)) per recipient and
    release time, so repeated encryptions need no pairing (one GT
    exponentiation instead). Bit-identical to {!encrypt} on the same rng
    stream. *)
module Encryptor : sig
  type t

  val create : Pairing.params -> Server.public -> t

  val encrypt :
    t -> identity -> release_time:time -> Hashing.Drbg.t -> string -> ciphertext
end

val decrypt :
  Pairing.params -> private_key:Curve.point -> Tre.update -> ciphertext -> string
(** K_D = d_ID + I_T; K' = e^(U, K_D). Raises {!Update_mismatch} on a
    wrong-time update. *)

val decrypt_batch :
  ?pool:Pool.t ->
  Pairing.params ->
  private_key:Curve.point ->
  (Tre.update * ciphertext) list ->
  string list
(** Decrypt many (update, ciphertext) pairs, in input order, bit-identical
    to mapping {!decrypt}; [pool] shards the pairing work across domains.
    Raises {!Update_mismatch} on the first mismatched pair. *)

val escrow_decrypt : Pairing.params -> Server.secret -> identity -> ciphertext -> string
(** What the paper warns about: the server alone decrypts any user's
    ciphertext (it can derive both d_ID and I_T). Exists so the test
    suite can assert the escrow weakness is real in ID-TRE and absent in
    TRE. *)

val ciphertext_to_bytes : Pairing.params -> ciphertext -> string
val ciphertext_of_bytes : Pairing.params -> string -> (ciphertext, string) result
(** Strict {!Codec} envelope (kind [CIPHERTEXT ID]); only the canonical
    encoding is accepted, and ciphertexts of the other schemes or of other
    parameter sets are rejected by the envelope before any curve
    arithmetic. Never raises. *)
