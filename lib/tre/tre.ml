type time = string

exception Invalid_receiver_key
exception Update_mismatch

(* Uniform-enough scalar in [1, q-1] from a seed string (password keygen,
   FO transform). The 2x-width reduction makes the mod-q bias negligible. *)
let scalar_of_seed prms seed =
  let q1 = Bigint.pred prms.Pairing.q in
  let width = 2 * ((Bigint.bit_length prms.Pairing.q + 7) / 8) in
  let raw = Bigint.of_bytes_be (Hashing.Kdf.mask seed width) in
  Bigint.succ (Bigint.erem raw q1)

let check_scalar prms s =
  if Bigint.sign s <= 0 || Bigint.compare s prms.Pairing.q >= 0 then
    invalid_arg "Tre: scalar out of range [1, q-1]"

module Server = struct
  type public = { g : Curve.point; sg : Curve.point }

  (* The server's key is a {!Bls} key: an update is its signature on T. *)
  type secret = { key : Bls.secret; public : public }

  let secret_of_scalar prms ?g s =
    check_scalar prms s;
    let key, { Bls.g; pk } = Bls.secret_of_scalar prms s ?g () in
    { key; public = { g; sg = pk } }

  let public_of_secret sec = sec.public

  let keygen ?g prms rng =
    let secret = secret_of_scalar prms ?g (Pairing.random_scalar prms rng) in
    (secret, secret.public)

  let secret_to_scalar sec = Bls.secret_to_scalar sec.key
end

type update = { update_time : time; update_value : Curve.point }

let issue_update prms (sec : Server.secret) t =
  { update_time = t; update_value = Bls.sign prms sec.Server.key t }

(* An update IS a BLS signature on its time label under (G, sG)
   (§5.3.1), so every update check is a {!Bls} verification. *)
let bls_public (pub : Server.public) = { Bls.g = pub.Server.g; pk = pub.Server.sg }

let verify_update prms pub upd =
  Bls.verify prms (bls_public pub) upd.update_time upd.update_value

(* A {!Bls.verifier} of (G, sG), plus the raw key: delegated verification
   sends G and sG (blinded) instead of pairing on-device. *)
type verifier = {
  bls : Bls.verifier;
  pub : Server.public;
  del : Delegate.ctx Lazy.t;
      (* forced only on the thin-client path (costs one pairing);
         verifiers are single-domain values, so the lazy is safe *)
}

let make_verifier prms pub =
  { bls = Bls.make_verifier prms (bls_public pub); pub; del = lazy (Delegate.make prms) }

let verify_update_with prms vrf upd =
  Bls.verify_with prms vrf.bls upd.update_time upd.update_value

module User = struct
  type secret = Bigint.t
  type public = { ag : Curve.point; asg : Curve.point }

  let secret_of_scalar prms a =
    check_scalar prms a;
    a

  let secret_to_scalar a = a

  let public_of_secret prms (srv : Server.public) a =
    let curve = prms.Pairing.curve in
    { ag = Curve.mul curve a srv.Server.g; asg = Curve.mul curve a srv.Server.sg }

  let keygen prms srv rng =
    let a = Pairing.random_scalar prms rng in
    (a, public_of_secret prms srv a)

  let keygen_from_password prms srv ~password =
    let a = scalar_of_seed prms ("TRE-password-key|" ^ password) in
    (a, public_of_secret prms srv a)

  let rebind prms a (new_srv : Server.public) = public_of_secret prms new_srv a
end

let validate_receiver_key prms (srv : Server.public) (pk : User.public) =
  Pairing.in_g1 prms pk.User.ag
  && Pairing.in_g1 prms pk.User.asg
  && (not (Curve.is_infinity pk.User.ag))
  && Pairing.ddh prms srv.Server.g pk.User.ag srv.Server.sg pk.User.asg

let verify_server_change prms ~(certified : User.public) ~(new_server : Server.public)
    ~(candidate : User.public) =
  (* The CA vouches for certified.ag; the candidate must carry the same aG
     and a consistent as'G' for the new server. *)
  Curve.equal certified.User.ag candidate.User.ag
  && validate_receiver_key prms new_server candidate

type ciphertext = { u : Curve.point; v : string; release_time : time }

(* The sender's half of every variant: U = [mul_u] r (r times the
   server's G, on {!mul_generator}'s routing), and the payload masked by
   H2(K) with K = e^(r P, L) for the variant's receiver point P and lock
   point L, computed as [base]^r with [base] = e^(P, L) — bilinearity,
   so the bytes are those of the paper's formula, with one GT power in
   place of a second scalar multiplication. *)
let seal prms ~mul_u base r payload =
  let u = mul_u r in
  let k = Pairing.gt_pow prms base r in
  (u, Hashing.Kdf.xor payload (Pairing.h2 prms k (String.length payload)))

(* The receiver's half, for keys that hold the exponent a: the payload
   unmasked by H2(K') with K' = e^(U, sigma)^a. *)
let unseal prms (a : User.secret) u sigma payload =
  let k = Pairing.gt_pow prms (Pairing.pairing prms u sigma) a in
  Hashing.Kdf.xor payload (Pairing.h2 prms k (String.length payload))

(* U = rG for the server's G. When G is the parameter set's generator,
   rG runs on its fixed-base table: the routing {!Pairing.prepare} does
   for pairings. A custom G runs the ladder, or, for a sender context
   that [reuse]s it, a fixed-base table of its own. *)
let mul_generator prms (srv : Server.public) ~reuse =
  if Curve.equal srv.Server.g prms.Pairing.g then Pairing.mul_g prms
  else if reuse then
    Curve.Table.mul
      (Curve.Table.create prms.Pairing.curve
         ~bits:(Bigint.bit_length prms.Pairing.q)
         srv.Server.g)
  else fun r -> Curve.mul prms.Pairing.curve r srv.Server.g

let release_key prms (pk : User.public) t =
  Pairing.pairing prms pk.User.asg (Pairing.hash_to_g1 prms t)

(* r is the first and only draw from [rng]. *)
let seal_message prms ~mul_u base ~release_time rng msg =
  let u, v = seal prms ~mul_u base (Pairing.random_scalar prms rng) msg in
  { u; v; release_time }

let encrypt_prevalidated prms (srv : Server.public) (pk : User.public) ~release_time rng
    msg =
  seal_message prms ~mul_u:(mul_generator prms srv ~reuse:false)
    (release_key prms pk release_time) ~release_time rng msg

let encrypt prms srv pk ~release_time rng msg =
  if not (validate_receiver_key prms srv pk) then raise Invalid_receiver_key;
  encrypt_prevalidated prms srv pk ~release_time rng msg

(* A sender encrypting repeatedly to one receiver pays per message: the
   validation pairing check, one pairing and the two exponentiations.
   This stateful encryptor validates once at construction and caches the
   pairing per release time, so repeated encryptions to the same release
   time need no pairing at all. A custom generator gets its own
   fixed-base table. Outputs are bit-identical to {!encrypt} for the
   same rng stream. *)
module Encryptor = struct
  type t = {
    prms : Pairing.params;
    pk : User.public;
    mul_u : Bigint.t -> Curve.point;
    cache : (time, Fp2.t) Hashtbl.t;
  }

  let create prms (srv : Server.public) (pk : User.public) =
    if not (validate_receiver_key prms srv pk) then raise Invalid_receiver_key;
    { prms; pk; mul_u = mul_generator prms srv ~reuse:true; cache = Hashtbl.create 8 }

  let cached_release_key enc release_time =
    match Hashtbl.find_opt enc.cache release_time with
    | Some k -> k
    | None ->
        let k = release_key enc.prms enc.pk release_time in
        Hashtbl.add enc.cache release_time k;
        k

  let encrypt enc ~release_time rng msg =
    seal_message enc.prms ~mul_u:enc.mul_u (cached_release_key enc release_time)
      ~release_time rng msg
end

let decrypt prms a upd ct =
  if upd.update_time <> ct.release_time then raise Update_mismatch;
  unseal prms a ct.u upd.update_value ct.v

(* Each (update, ciphertext) decryption is one pairing + one GT
   exponentiation over immutable inputs — embarrassingly parallel, so an
   optional pool shards the batch. Plaintexts come back in input order,
   bit-identical to mapping {!decrypt}; a mismatched pair raises
   {!Update_mismatch} in the caller exactly as the serial path would. *)
let decrypt_batch ?pool prms (a : User.secret) pairs =
  let one (upd, ct) = decrypt prms a upd ct in
  match pool with
  | None -> List.map one pairs
  | Some pool -> Pool.map pool one pairs

module Verifier = struct
  type t = verifier

  let create = make_verifier
  let verify_update = verify_update_with

  (* Thin-client verification: the equation e(sG, H1(T)) = e(G, U) is
     outsourced as two blinded delegations under the hardened check's
     secret exponent c — the left side delegates e(sG, c.H1(T)) so the
     cross-run relation L' = R'^c both verifies the helpers AND decides
     the equation; c itself rides along for free by folding it into the
     cofactor clearing of the H1 lift (one (h.c)-mult where the plain
     verifier already pays an h-mult). Rejecting malformed helper
     replies, not just wrong equations, is the point: the published
     outsourcing check would accept a consistent shift (Liu-Cao), and
     then this verifier would sign off on a forged key update. *)
  let verify_update_delegated prms vrf ?blindings rng ~helper1 ~helper2 upd =
    Pairing.in_g1 prms upd.update_value
    && (not (Curve.is_infinity upd.update_value))
    &&
    let curve = prms.Pairing.curve in
    let ctx = Lazy.force vrf.del in
    let c = Delegate.random_small_exponent prms rng in
    let ch =
      let raw = Pairing.hash_to_g1_unclamped prms upd.update_time in
      let p = Curve.mul curve (Bigint.mul prms.Pairing.cofactor c) raw in
      (* the unclamped lift clears to infinity only on hash_to_g1's
         internal re-roll inputs (fraction < 2^-64) — fall back to the
         clamped point rather than reject a valid update *)
      if Curve.is_infinity p then
        Curve.mul curve c (Pairing.hash_to_g1 prms upd.update_time)
      else p
    in
    match
      Delegate.equal_with ctx ?blindings rng ~helper1 ~helper2 ~c
        ~lhs:(vrf.pub.Server.sg, ch) ~rhs:(vrf.pub.Server.g, upd.update_value)
    with
    | Ok decision -> decision
    | Error _ -> false

  (* An update list is a same-signer BLS batch on the (T_i, I_i) pairs. *)
  let verify_updates ?pool prms vrf updates =
    Bls.verify_batch_with ?pool prms vrf.bls
      (List.map (fun u -> (u.update_time, u.update_value)) updates)
end

(* --- serialization ---

   Every object is a Codec envelope (magic, version, kind tag, params
   fingerprint) followed by strict fields: length-prefixed variable
   strings, fixed-width canonical compressed points. Decoders return
   [Error diagnostic] instead of raising, accept exactly the canonical
   encoding (any accepted byte string re-encodes bit-identically), and
   reject cross-kind or cross-parameter material on the envelope before
   any curve arithmetic. *)

let ciphertext_to_bytes prms ct =
  Codec.encode prms Codec.Ciphertext (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_point prms buf ct.u;
      Codec.add_var buf ct.v)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let u = Codec.read_g1 ~what:"U" prms r in
      let v = Codec.read_var ~what:"V" r in
      { u; v; release_time })

let update_to_bytes prms upd =
  Codec.encode prms Codec.Key_update (fun buf ->
      Codec.add_label buf upd.update_time;
      Codec.add_point prms buf upd.update_value)

let update_of_bytes prms s =
  Codec.decode prms Codec.Key_update s (fun r ->
      let update_time = Codec.read_label ~what:"update time" r in
      let update_value = Codec.read_g1 ~what:"update value" prms r in
      { update_time; update_value })

let user_public_to_bytes prms (pk : User.public) =
  Codec.encode prms Codec.User_public (fun buf ->
      Codec.add_point prms buf pk.User.ag;
      Codec.add_point prms buf pk.User.asg)

let user_public_of_bytes prms s =
  Codec.decode prms Codec.User_public s (fun r ->
      let ag = Codec.read_g1 ~what:"aG" prms r in
      let asg = Codec.read_g1 ~what:"asG" prms r in
      { User.ag; asg })

let server_public_to_bytes prms (pk : Server.public) =
  Codec.encode prms Codec.Server_public (fun buf ->
      Codec.add_point prms buf pk.Server.g;
      Codec.add_point prms buf pk.Server.sg)

let server_public_of_bytes prms s =
  Codec.decode prms Codec.Server_public s (fun r ->
      let g = Codec.read_g1 ~what:"G" prms r in
      let sg = Codec.read_g1 ~what:"sG" prms r in
      { Server.g; sg })

let ciphertext_overhead prms = Codec.header_bytes + 8 + Pairing.point_bytes prms
