(** Multi-server TRE (§5.3.5): trust is split over N time servers.

    Each server i has its own generator G_i and secret s_i. The receiver
    publishes K_new = a * sum_i (s_i G_i) next to his certified aG; a
    ciphertext carries one rG_i per server, and decryption needs the
    time-bound update s_i H1(T) from {e every} server — so a receiver must
    corrupt all N servers to open a message early (collusion resistance
    N-1). Cost grows exactly one G1 point (ciphertext) and one pairing
    (decryption) per extra server — experiment E5. *)

exception Invalid_receiver_key
exception Update_mismatch
exception Wrong_update_count

type receiver_public = {
  ag : Curve.point;  (** the CA-certified aG under the system generator *)
  k_new : Curve.point;  (** a * sum_i s_i G_i *)
}

type ciphertext = {
  us : Curve.point array;  (** rG_1 ... rG_N *)
  v : string;
  release_time : Tre.time;
}

val receiver_keygen :
  Pairing.params -> Tre.Server.public list -> Hashing.Drbg.t ->
  Tre.User.secret * receiver_public
(** The receiver forms K_new against the chosen server set. *)

val validate_receiver_key :
  Pairing.params -> Tre.Server.public list -> receiver_public -> bool
(** The sender's check (the "same trick" of §5.3.4):
    e^(G0, K_new) = e^(aG0, sum_i s_i G_i) with aG0 CA-certified. *)

val encrypt :
  Pairing.params ->
  Tre.Server.public list ->
  receiver_public ->
  release_time:Tre.time ->
  Hashing.Drbg.t ->
  string ->
  ciphertext
(** C = <rG_1, ..., rG_N, M xor H2(K)>, K = e^(r K_new, H1(T)). *)

val decrypt :
  Pairing.params -> Tre.User.secret -> Tre.update list -> ciphertext -> string
(** Needs one update per server, in server order:
    K = prod_i e^(rG_i, s_i H1(T))^a. Raises {!Wrong_update_count} or
    {!Update_mismatch} as appropriate. *)

val ciphertext_to_bytes : Pairing.params -> ciphertext -> string
val ciphertext_of_bytes : Pairing.params -> string -> (ciphertext, string) result
(** Strict {!Codec} envelope (kind [CIPHERTEXT MULTI]); the server count
    is bounded (at most 255) and checked before any point decoding.
    Never raises on decode; encode raises [Invalid_argument] on an empty
    or oversized point array. *)

val receiver_public_to_bytes : Pairing.params -> receiver_public -> string
val receiver_public_of_bytes :
  Pairing.params -> string -> (receiver_public, string) result
(** Strict {!Codec} envelope (kind [MULTI RECEIVER KEY]) for the
    receiver's (aG, K_new) pair. Never raises. *)
