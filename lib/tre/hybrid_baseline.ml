type receiver_secret = Bigint.t
type receiver_public = Curve.point

type ciphertext = {
  u1 : Curve.point;
  c1 : string;
  u2 : Curve.point;
  c2 : string;
  body : string;
  release_time : Tre.time;
}

let subkey_bytes = 32

let receiver_keygen prms rng =
  let x = Pairing.random_scalar prms rng in
  (x, Curve.mul prms.Pairing.curve x prms.Pairing.g)

(* Hashed-ElGamal KEM mask from a shared G1 point. *)
let elgamal_mask prms shared n =
  Hashing.Kdf.mask ("HYB-PKE|" ^ Curve.to_bytes prms.Pairing.curve shared) n

let combine_keys k1 k2 n =
  Hashing.Hkdf.derive ~info:"HYB-combine" (k1 ^ k2) n |> fun prk ->
  Hashing.Kdf.mask ("HYB-DEM|" ^ prk) n

let encrypt prms (srv : Tre.Server.public) (pk : receiver_public) ~release_time rng msg =
  let curve = prms.Pairing.curve in
  let k1 = Hashing.Drbg.generate rng subkey_bytes in
  let k2 = Hashing.Drbg.generate rng subkey_bytes in
  (* PKE leg: hashed ElGamal on K1. *)
  let r1 = Pairing.random_scalar prms rng in
  let u1 = Pairing.mul_g prms r1 in
  let c1 = Hashing.Kdf.xor k1 (elgamal_mask prms (Curve.mul curve r1 pk) subkey_bytes) in
  (* IBE leg: Boneh-Franklin BasicIdent on K2 with identity = release time,
     U2 = r2 G and K = e^(sG, H1(T))^r2 on TRE's own seal. *)
  let u2, c2 =
    Tre.seal prms ~mul_u:(Tre.mul_generator prms srv ~reuse:false)
      (Pairing.pairing prms srv.Tre.Server.sg (Pairing.hash_to_g1 prms release_time))
      (Pairing.random_scalar prms rng) k2
  in
  (* DEM: symmetric encryption under the combined key. *)
  let body = Hashing.Kdf.xor msg (combine_keys k1 k2 (String.length msg)) in
  { u1; c1; u2; c2; body; release_time }

let decrypt prms x (upd : Tre.update) ct =
  if upd.Tre.update_time <> ct.release_time then raise Tre.Update_mismatch;
  let curve = prms.Pairing.curve in
  let k1 = Hashing.Kdf.xor ct.c1 (elgamal_mask prms (Curve.mul curve x ct.u1) subkey_bytes) in
  let gid = Pairing.pairing prms ct.u2 upd.Tre.update_value in
  let k2 = Hashing.Kdf.xor ct.c2 (Pairing.h2 prms gid subkey_bytes) in
  Hashing.Kdf.xor ct.body (combine_keys k1 k2 (String.length ct.body))

let ciphertext_overhead prms = 4 + (2 * Pairing.point_bytes prms) + (2 * subkey_bytes)
