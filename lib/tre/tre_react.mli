(** Chosen-ciphertext-secure TRE via the REACT conversion
    (Okamoto–Pointcheval, CT-RSA 2002) — the alternative §5 of the paper
    offers to Fujisaki–Okamoto.

    REACT encrypts a random key-seed R with the one-way scheme, derives a
    data-encapsulation mask from R, and appends an integrity tag
    H(R, M, C1, C2); unlike FO it needs no re-encryption at decryption
    time, making decryption cheaper — one of the trade-offs benchmarked in
    E1. *)

exception Decryption_failed

type ciphertext = {
  u : Curve.point;  (** U = rG *)
  c1 : string;  (** R xor H2(K) *)
  c2 : string;  (** M xor G(R) *)
  tag : string;  (** H(R, M, U, C1, C2) *)
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

val decrypt :
  Pairing.params -> Tre.User.secret -> Tre.update -> ciphertext -> string
(** Raises {!Decryption_failed} when the tag check fails,
    {!Tre.Update_mismatch} on a wrong-time update. No public key needed —
    REACT validates with the tag, not by re-encryption. *)

val ciphertext_to_bytes : Pairing.params -> ciphertext -> string
val ciphertext_of_bytes : Pairing.params -> string -> (ciphertext, string) result
(** Strict {!Codec} envelope (kind [CIPHERTEXT REACT]); [C1] and [tag]
    widths are enforced and only the canonical encoding is accepted.
    Never raises. *)

(**/**)

val tag :
  r:string -> msg:string -> u_bytes:string -> c1:string -> c2:string -> string
(** Internal: the REACT integrity tag H(R, M, U, C1, C2), exposed for the
    domain-separation regression tests. Every field is length-prefixed,
    so distinct field tuples give distinct hash inputs even when their
    concatenations coincide. *)
