(** Timed Release Encryption — the paper's primary construction (§5.1).

    A completely passive time server periodically publishes a single,
    self-authenticated {e time-bound key update} [sigma_S(T) = s*H1(T)]
    — one identical update for {e all} receivers. A sender encrypts under
    the receiver's public key [(aG, asG)] and a release time [T] of his own
    choosing, with no interaction with the server; the receiver can decrypt
    only once the update for [T] has been published, using his private key
    [a]. The server never learns who sends, who receives, what is sent, or
    when it is to be released — and, unlike ID-based schemes, cannot
    decrypt anything itself.

    This module is the one-way / CPA-secure version exactly as in §5.1
    (secure under BDH in the random-oracle model). For chosen-ciphertext
    security wrap it with {!Tre_fo} (Fujisaki–Okamoto) or {!Tre_react}
    (REACT), as §5 prescribes. *)

type time = string
(** A release-time label T in \{0,1\}* — e.g. "2005-06-01T00:00:00Z".
    The scheme treats it as an opaque string; any granularity works. *)

exception Invalid_receiver_key
(** Raised by {!encrypt} when the receiver public key fails the pairing
    check e^(aG, sG) = e^(G, asG) — i.e. it is not bound to this server and
    the time lock could be bypassed. *)

exception Update_mismatch
(** Raised by {!decrypt} when the supplied key update is for a different
    time label than the ciphertext's release time. *)

(** The passive time server's keys (Server Key Generation, §5.1). *)
module Server : sig
  type secret
  (** The scalar s, held as the {!Bls} key whose signatures are the
      updates, with its public key; never leaves the server. *)

  type public = { g : Curve.point; sg : Curve.point }
  (** PK_S = (G, sG). [g] is the server's chosen generator. *)

  val keygen : ?g:Curve.point -> Pairing.params -> Hashing.Drbg.t -> secret * public
  (** Pick a generator (defaults to the system generator; §5.1 lets the
      server choose its own — pass [?g]) and a private scalar s.
      Raises [Invalid_argument] if [g] is the identity or outside G1
      ({!Bls.keygen}'s check). *)

  val public_of_secret : secret -> public
  (** The public key computed when the secret was made. *)

  val secret_to_scalar : secret -> Bigint.t
  (** The scalar s, for the server's key file (the CLI writes it) and the
      escrow/collusion experiments in the test suite. *)

  val secret_of_scalar : Pairing.params -> ?g:Curve.point -> Bigint.t -> secret
  (** Raises [Invalid_argument] if the scalar is outside [1, q-1], or [g]
      is the identity or outside G1. *)
end

type update = { update_time : time; update_value : Curve.point }
(** A time-bound key update I_T = s*H1(T) — a BLS signature on T under the
    server key, hence self-authenticating (§5.3.1). *)

val issue_update : Pairing.params -> Server.secret -> time -> update
(** Time Server Broadcast (§5.1): the only thing the server ever does,
    {!Bls.sign} of T under the server's key. Note it needs no memory of
    users, messages, or future times. *)

val verify_update : Pairing.params -> Server.public -> update -> bool
(** {!Bls.verify} of I_T on T under (G, sG): anyone checks
    e^(G, I_T) = e^(sG, H1(T)) plus subgroup membership of I_T; no extra
    server signature is needed. *)

type verifier
(** A {!Bls.verifier} of the server public key (G and sG prepared once),
    for parties that verify many updates from one server. *)

val make_verifier : Pairing.params -> Server.public -> verifier
val verify_update_with : Pairing.params -> verifier -> update -> bool
(** {!Bls.verify_with}: same result as {!verify_update}, amortizing the
    Miller-loop point arithmetic across updates. *)

(** Verification of key updates — the update {e is} a BLS signature on
    its time label (§5.3.1), so a backlog of n updates is one
    {!Bls.verify_batch_with}: two prepared pairings per batch instead of
    two per update. A client catching up on missed epochs verifies the
    whole backlog at close to the cost of one check. *)
module Verifier : sig
  type t = verifier

  val create : Pairing.params -> Server.public -> t
  (** Alias of {!make_verifier}. *)

  val verify_update : Pairing.params -> t -> update -> bool
  (** Alias of {!verify_update_with}. *)

  val verify_update_delegated :
    Pairing.params -> t -> ?blindings:Delegate.blinding * Delegate.blinding ->
    Hashing.Drbg.t ->
    helper1:Delegate.transport -> helper2:Delegate.transport ->
    update -> bool
  (** Thin-client {!verify_update}: the two pairings of the equation are
      outsourced to two untrusted helpers via blinded {!Delegate}
      queries under the {e hardened} (Liu–Cao-resistant) check — the
      secret cross-run exponent [c] simultaneously authenticates the
      helpers' replies and decides the equation ([L' = R'^c]), and is
      folded into H1's cofactor clearing so it costs nothing extra.
      False on a bad update {e or} on any malformed helper reply; true
      agrees with {!verify_update} when helpers are honest (up to the
      hardened check's ~2^-64 soundness slack). The client does curve
      arithmetic and GT multiplications only — no Miller loops.
      [?blindings] supplies precomputed one-time tuples (the offline
      phase, {!Delegate.blind}); omitted, they are drawn inline. *)

  val verify_updates : ?pool:Pool.t -> Pairing.params -> t -> update list -> bool
  (** {!Bls.verify_batch_with} on the (T_i, I_i) pairs, with its
      guarantee and its precondition: every I_i already in G1, as
      {!update_of_bytes} ensures. The empty batch verifies trivially. *)
end

(** Receiver keys (User Key Generation, §5.1). *)
module User : sig
  type secret
  (** The scalar a. *)

  type public = { ag : Curve.point; asg : Curve.point }
  (** PK_U = (aG, asG), bound to a specific server's public key. A CA
      certifies [ag]; [asg] is then publicly checkable (§5.3.4). *)

  val keygen : Pairing.params -> Server.public -> Hashing.Drbg.t -> secret * public

  val keygen_from_password : Pairing.params -> Server.public -> password:string -> secret * public
  (** §5.1: "the secret key a could be generated by applying a good hash
      function to a human-memorable password". Deterministic. *)

  val rebind : Pairing.params -> secret -> Server.public -> public
  (** Re-derive the public key against a different time server (§5.3.4) —
      no re-certification needed, see {!verify_server_change}. *)

  val secret_to_scalar : secret -> Bigint.t
  val secret_of_scalar : Pairing.params -> Bigint.t -> secret
end

val validate_receiver_key : Pairing.params -> Server.public -> User.public -> bool
(** Step 1 of Encryption (§5.1): (G, aG, sG, asG) is a DDH tuple
    ({!Pairing.ddh}: e^(aG, sG) = e^(G, asG)), aG is not the identity,
    and both points pass the on-curve and subgroup checks. Guarantees
    the receiver really needs the server's update to decrypt. *)

val verify_server_change :
  Pairing.params ->
  certified:User.public ->
  new_server:Server.public ->
  candidate:User.public ->
  bool
(** §5.3.4: accept a receiver's key (aG, as'G) for a new server S' given
    only the CA-certified old key — checks the [ag] parts match and
    e^(G', as'G') = e^(s'G', aG). *)

type ciphertext = {
  u : Curve.point;  (** U = rG *)
  v : string;  (** V = M xor H2(K) *)
  release_time : time;
}
(** C = <U, V>, §5.1. The release time is carried alongside so the
    receiver knows which update to wait for; it is not secret (the sender
    chose it) but is never seen by the server. *)

val encrypt :
  Pairing.params ->
  Server.public ->
  User.public ->
  release_time:time ->
  Hashing.Drbg.t ->
  string ->
  ciphertext
(** Encryption (§5.1): validates the receiver key (raising
    {!Invalid_receiver_key}), picks r, computes U = rG and
    K = e^(r*asG, H1(T)) = e^(G, H1(T))^ras and masks the message with
    H2(K). Messages of any length are supported (H2 stretches). K is
    computed as e^(asG, H1(T))^r, and U on the parameter set's
    fixed-base table when G is its generator; the bytes are those of
    the formula above. *)

val encrypt_prevalidated :
  Pairing.params ->
  Server.public ->
  User.public ->
  release_time:time ->
  Hashing.Drbg.t ->
  string ->
  ciphertext
(** Like {!encrypt} but skips the receiver-key pairing check (2 pairings).
    Use when the key was already validated once — validation is a
    per-receiver cost, not a per-message one. Encrypting to an unvalidated
    malformed key silently loses the time-lock guarantee, so only skip the
    check for keys you checked before. *)

(** A stateful sender context for one receiver. Construction validates the
    receiver key once (and builds a fixed-base table for a custom server
    generator); {!Encryptor.encrypt} then caches the pairing per release
    time (K = e^(asG, H1(T))^r by bilinearity), so repeated encryptions to
    the same release time perform {e zero} pairings — one table-backed
    scalar multiplication and one GT exponentiation. Ciphertexts are
    bit-identical to {!encrypt} on the same rng stream. *)
module Encryptor : sig
  type t

  val create : Pairing.params -> Server.public -> User.public -> t
  (** Raises {!Invalid_receiver_key} like {!encrypt}. *)

  val encrypt : t -> release_time:time -> Hashing.Drbg.t -> string -> ciphertext
end

val decrypt : Pairing.params -> User.secret -> update -> ciphertext -> string
(** Decryption (§5.1): K' = e^(U, I_T)^a; M = V xor H2(K').
    Raises {!Update_mismatch} if the update's time label differs from the
    ciphertext's release time. The update is {e not} re-verified here —
    verify on receipt with {!verify_update}; decryption with a forged
    update simply yields garbage, it cannot leak anything. *)

val decrypt_batch :
  ?pool:Pool.t ->
  Pairing.params ->
  User.secret ->
  (update * ciphertext) list ->
  string list
(** Decrypt many (update, ciphertext) pairs — e.g. a mailbox drained after
    the release times passed. Plaintexts come back in input order,
    bit-identical to mapping {!decrypt}; [pool] shards the pairing work
    across domains. Raises {!Update_mismatch} on the first mismatched
    pair, as the serial path would. *)

(** {1 The two halves every variant shares}

    Every scheme here seals with U = rG and K = e^(r P, L) for a
    receiver point P and a lock point L: (asG, H1(T)) in §5.1 and the
    FO and REACT conversions, (sG, H1(ID) + H1(T)) in ID-TRE,
    (asG, sum H1(C_i)) for policy locks, (K_new, H1(T)) for N servers.
    A receiver holding a opens with K = e^(U, sigma)^a. *)

val mul_generator :
  Pairing.params -> Server.public -> reuse:bool -> Bigint.t -> Curve.point
(** [mul_generator prms srv ~reuse] is r -> rG for the server's G, the
    sender's U: {!Pairing.mul_g} when G is the parameter set's generator;
    otherwise a fixed-base table built here when [reuse] (a sender
    context), or the ladder per call. *)

val seal :
  Pairing.params ->
  mul_u:(Bigint.t -> 'u) ->
  Fp2.t ->
  Bigint.t ->
  string ->
  'u * string
(** [seal prms ~mul_u base r payload] is ([mul_u r], payload xor
    H2(base^r)). With [mul_u] from {!mul_generator} and
    [base] = e^(P, L), that is U = rG and the payload masked by
    H2(e^(r P, L)), the bytes of the paper's formula. [mul_u] may return
    several points (one U per server). *)

val unseal :
  Pairing.params -> User.secret -> Curve.point -> Curve.point -> string -> string
(** [unseal prms a u sigma payload] is payload xor H2(e^(U, sigma)^a):
    {!decrypt}'s formula, with sigma the update (or, for a policy lock,
    the sum of the witnesses). *)

val release_key : Pairing.params -> User.public -> time -> Fp2.t
(** The base e^(asG, H1(T)) of a seal to a receiver key and release
    time. *)

(** {1 Serialization} — strict {!Codec} envelopes (magic, version, kind
    tag, params fingerprint) with canonical bodies. Decoders return
    [Error diagnostic] on any malformed, non-canonical, cross-kind or
    cross-parameter-set input; they never raise. Every accepted byte
    string re-encodes bit-identically. *)

val ciphertext_to_bytes : Pairing.params -> ciphertext -> string
val ciphertext_of_bytes : Pairing.params -> string -> (ciphertext, string) result
val update_to_bytes : Pairing.params -> update -> string
val update_of_bytes : Pairing.params -> string -> (update, string) result
val user_public_to_bytes : Pairing.params -> User.public -> string
val user_public_of_bytes : Pairing.params -> string -> (User.public, string) result
val server_public_to_bytes : Pairing.params -> Server.public -> string
val server_public_of_bytes : Pairing.params -> string -> (Server.public, string) result

(** {1 Cost accounting}

    The benchmark harness reports both wall-clock time and abstract
    operation counts; the counts come from here so that baselines can be
    compared structurally (E1/E2 in DESIGN.md). *)

val ciphertext_overhead : Pairing.params -> int
(** Ciphertext bytes beyond the plaintext length: the codec envelope,
    one compressed point and two length prefixes (the variable-length
    time label is extra). *)

(**/**)

val scalar_of_seed : Pairing.params -> string -> Bigint.t
(** Internal: hash a seed string to a scalar in [1, q-1] with negligible
    bias. Shared by the password keygen and the FO/REACT transforms. *)
