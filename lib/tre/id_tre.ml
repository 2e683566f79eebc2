type identity = string
type time = string

exception Update_mismatch

module Server = struct
  type secret = Tre.Server.secret
  type public = Tre.Server.public = { g : Curve.point; sg : Curve.point }

  let keygen = Tre.Server.keygen

  (* s H1(ID): the server's signature on the identity, as an update is
     its signature on the time label. *)
  let extract prms sec id = (Tre.issue_update prms sec id).Tre.update_value

  let issue_update = Tre.issue_update
end

let verify_update = Tre.verify_update

(* A private key is a BLS signature on the identity string, as an update
   is one on the time label. *)
let verify_private_key prms (pub : Server.public) id d =
  Bls.verify prms { Bls.g = pub.Server.g; pk = pub.Server.sg } id d

type ciphertext = { u : Curve.point; v : string; release_time : time }

let encryption_point prms ~id ~release_time =
  Curve.add prms.Pairing.curve (Pairing.hash_to_g1 prms id)
    (Pairing.hash_to_g1 prms release_time)

(* {!Tre.seal} with [base] = e^(sG, K_E), K_E = H1(ID) + H1(T), shared
   by the one-shot path and {!Encryptor}: r is the first and only draw
   from [rng]. *)
let seal prms ~mul_u base ~release_time rng msg =
  let u, v = Tre.seal prms ~mul_u base (Pairing.random_scalar prms rng) msg in
  { u; v; release_time }

let encrypt prms (srv : Server.public) id ~release_time rng msg =
  seal prms
    ~mul_u:(Tre.mul_generator prms srv ~reuse:false)
    (Pairing.pairing prms srv.Server.sg (encryption_point prms ~id ~release_time))
    ~release_time rng msg

(* Sender-side precomputation: K = e^(r*sG, K_E) = e^(sG, K_E)^r, with sG
   fixed — so prepare sG once and cache the pairing per (id, T); repeated
   encryptions to the same recipient and release time pairing-free, and
   even cache misses skip the Miller loop's point arithmetic. Outputs are
   bit-identical to {!encrypt} on the same rng stream. *)
module Encryptor = struct
  type t = {
    prms : Pairing.params;
    mul_u : Bigint.t -> Curve.point;
    sg_prep : Pairing.prepared;
    cache : (identity * time, Fp2.t) Hashtbl.t;
  }

  let create prms (srv : Server.public) =
    {
      prms;
      mul_u = Tre.mul_generator prms srv ~reuse:true;
      sg_prep = Pairing.prepare prms srv.Server.sg;
      cache = Hashtbl.create 8;
    }

  let session_base enc ~id ~release_time =
    match Hashtbl.find_opt enc.cache (id, release_time) with
    | Some k -> k
    | None ->
        let k =
          Pairing.pairing_prepared enc.prms enc.sg_prep
            (encryption_point enc.prms ~id ~release_time)
        in
        Hashtbl.add enc.cache (id, release_time) k;
        k

  let encrypt enc id ~release_time rng msg =
    seal enc.prms ~mul_u:enc.mul_u
      (session_base enc ~id ~release_time) ~release_time rng msg
end

let decrypt prms ~private_key upd ct =
  if upd.Tre.update_time <> ct.release_time then raise Update_mismatch;
  let kd = Curve.add prms.Pairing.curve private_key upd.Tre.update_value in
  let k = Pairing.pairing prms ct.u kd in
  Hashing.Kdf.xor ct.v (Pairing.h2 prms k (String.length ct.v))

(* Same sharding story as {!Tre.decrypt_batch}: each pair is one pairing
   over immutable inputs, output order is positional, so the pool path is
   bit-identical to the serial one. *)
let decrypt_batch ?pool prms ~private_key pairs =
  let one (upd, ct) = decrypt prms ~private_key upd ct in
  match pool with
  | None -> List.map one pairs
  | Some pool -> Pool.map pool one pairs

let escrow_decrypt prms (sec : Server.secret) id ct =
  (* The server derives the user's private key and the update by itself —
     inherent key escrow of identity-based schemes. *)
  decrypt prms ~private_key:(Server.extract prms sec id)
    (Server.issue_update prms sec ct.release_time)
    ct

let ciphertext_to_bytes prms ct =
  Codec.encode prms Codec.Ciphertext_id (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_point prms buf ct.u;
      Codec.add_var buf ct.v)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext_id s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let u = Codec.read_g1 ~what:"U" prms r in
      let v = Codec.read_var ~what:"V" r in
      { u; v; release_time })
