(** Chosen-ciphertext-secure TRE via the Fujisaki–Okamoto transform.

    §5 of the paper: "the Fujisaki-Okamoto Transform ... can be applied to
    our schemes to obtain chosen-ciphertext secure schemes". The hybrid FO
    variant is used: the encryption randomness r is re-derived from a
    committed seed, so decryption can re-encrypt and reject any tampered
    ciphertext. *)

exception Decryption_failed
(** Raised when re-encryption validation fails — tampered or malformed
    ciphertext (the CCA rejection). *)

type ciphertext = {
  u : Curve.point;  (** U = rG with r = H3(seed, M, T) *)
  v : string;  (** seed xor H2(K) *)
  w : string;  (** M xor H4(seed) *)
  release_time : Tre.time;
}

val encrypt :
  Pairing.params ->
  Tre.Server.public ->
  Tre.User.public ->
  release_time:Tre.time ->
  Hashing.Drbg.t ->
  string ->
  ciphertext
(** Raises {!Tre.Invalid_receiver_key} like the base scheme. *)

val decrypt :
  Pairing.params ->
  Tre.Server.public ->
  Tre.User.public ->
  Tre.User.secret ->
  Tre.update ->
  ciphertext ->
  string
(** Recovers the seed and message, re-derives r, and re-checks [U = rG].
    Raises {!Decryption_failed} on any mismatch and {!Tre.Update_mismatch}
    on a wrong-time update. The receiver's public key is needed for the
    re-encryption check. *)

val ciphertext_to_bytes : Pairing.params -> ciphertext -> string
val ciphertext_of_bytes : Pairing.params -> string -> (ciphertext, string) result
(** Strict {!Codec} envelope (kind [CIPHERTEXT FO]); the decoder enforces
    [V] to be exactly the committed-seed width and accepts only the
    canonical encoding. Never raises. *)

(**/**)

val h3 :
  Pairing.params -> seed:string -> msg:string -> release_time:Tre.time -> Bigint.t
(** Internal: the FO scalar derivation, exposed for the domain-separation
    regression tests. Every variable-length field is length-prefixed, so
    distinct (seed, T, M) triples give distinct hash inputs. *)
