(** k-of-n threshold time server (extension; Boldyreva-style threshold BLS
    over the paper's GDH group).

    §5.3.5 splits trust by requiring ALL of N servers (any single honest
    server delays early release, but any single {e crashed} server halts
    the whole service). The threshold variant flips the availability
    trade-off: the secret s is Shamir-shared over n share-servers; any k
    cooperating servers produce the epoch's update and fewer than k can
    produce nothing — up to n-k servers may be offline (or refuse) without
    affecting receivers, and up to k-1 may be corrupted without enabling
    early release.

    The combined update is {e bit-identical} to a single-server update
    s*H1(T) (Lagrange interpolation in the exponent), so {b senders,
    receivers and ciphertexts are completely unchanged} — only the server
    side is replaced. Partial shares are individually verifiable against
    the published share commitments (s_i * G), so a corrupt share cannot
    poison the combination undetected. *)

type system = {
  public : Tre.Server.public;  (** the ordinary (G, sG) users see *)
  share_commitments : (int * Curve.point) array;  (** (i, s_i G), for share verification *)
  share_verifiers : (int * Bls.verifier) array;
      (** (i, {!Bls.make_verifier} of (G, s_i G)), built once at setup;
          used by {!verify_partial} *)
  k : int;
  n : int;
}

type share_server
(** One of the n share-holders; holds s_i only, as a {!Bls} key. *)

type partial = { server_index : int; value : Curve.point }
(** A partial update s_i * H1(T). *)

val setup :
  Pairing.params -> Hashing.Drbg.t -> k:int -> n:int -> system * share_server list
(** Dealer-based setup (a distributed keygen could replace it; the dealer
    must forget s). Requires [1 <= k <= n]. *)

val issue_partial : Pairing.params -> share_server -> Tre.time -> partial
(** {!Bls.sign} of T under s_i. *)

val verify_partial : Pairing.params -> system -> Tre.time -> partial -> bool
(** {!Bls.verify_with} under (G, s_i G): e^(G, sigma_i) = e^(s_i G, H1(T))
    plus subgroup membership of sigma_i — catches corrupt share-servers. *)

val partial_to_bytes : Pairing.params -> partial -> string
val partial_of_bytes : Pairing.params -> string -> (partial, string) result
(** Strict {!Codec} envelope (kind [THRESHOLD PARTIAL]) so partials can
    travel from share-servers to the combiner; the index is bounded on the
    wire, and the point may be the identity only in its canonical form
    (a zero share commitment never verifies anyway). Never raises on
    decode. *)

val combine : Pairing.params -> system -> Tre.time -> partial list -> Tre.update
(** Lagrange-combine exactly k (or more) verified partials into the
    standard update. Raises [Invalid_argument] with fewer than k partials
    or duplicate indices. The result verifies under [system.public] like
    any ordinary update. *)
