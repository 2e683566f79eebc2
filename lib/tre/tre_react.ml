exception Decryption_failed

type ciphertext = {
  u : Curve.point;
  c1 : string;
  c2 : string;
  tag : string;
  release_time : Tre.time;
}

let r_bytes = 32
let tag_bytes = 32

let mask_g r n = Hashing.Kdf.mask ("TRE-REACT-G|" ^ r) n

(* Every field is length-prefixed: bare concatenation would let bytes
   shift between [msg] and its neighbours across the fixed-width middle
   fields without changing the hash input. *)
let tag_h ~r ~msg ~u_bytes ~c1 ~c2 =
  Hashing.Sha256.digest_concat
    (Codec.length_prefixed ~domain:"TRE-REACT-H" [ r; msg; u_bytes; c1; c2 ])

let tag = tag_h

let encrypt prms (srv : Tre.Server.public) pk ~release_time rng msg =
  if not (Tre.validate_receiver_key prms srv pk) then raise Tre.Invalid_receiver_key;
  let seed = Hashing.Drbg.generate rng r_bytes in
  let u, c1 =
    Tre.seal prms ~mul_u:(Tre.mul_generator prms srv ~reuse:false)
      (Tre.release_key prms pk release_time) (Pairing.random_scalar prms rng) seed
  in
  let c2 = Hashing.Kdf.xor msg (mask_g seed (String.length msg)) in
  let u_bytes = Curve.to_bytes prms.Pairing.curve u in
  { u; c1; c2; tag = tag_h ~r:seed ~msg ~u_bytes ~c1 ~c2; release_time }

let decrypt prms a upd ct =
  if upd.Tre.update_time <> ct.release_time then raise Tre.Update_mismatch;
  if String.length ct.c1 <> r_bytes || String.length ct.tag <> tag_bytes then
    raise Decryption_failed;
  let seed = Tre.unseal prms a ct.u upd.Tre.update_value ct.c1 in
  let msg = Hashing.Kdf.xor ct.c2 (mask_g seed (String.length ct.c2)) in
  let u_bytes = Curve.to_bytes prms.Pairing.curve ct.u in
  let expected = tag_h ~r:seed ~msg ~u_bytes ~c1:ct.c1 ~c2:ct.c2 in
  if not (Hashing.ct_equal expected ct.tag) then raise Decryption_failed;
  msg

let ciphertext_to_bytes prms ct =
  if String.length ct.c1 <> r_bytes then
    invalid_arg "Tre_react.ciphertext_to_bytes: C1 must be exactly r_bytes wide";
  if String.length ct.tag <> tag_bytes then
    invalid_arg "Tre_react.ciphertext_to_bytes: tag must be exactly tag_bytes wide";
  Codec.encode prms Codec.Ciphertext_react (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_point prms buf ct.u;
      Codec.add_fixed buf ct.c1;
      Codec.add_fixed buf ct.tag;
      Codec.add_var buf ct.c2)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext_react s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let u = Codec.read_g1 ~what:"U" prms r in
      let c1 = Codec.read_fixed ~what:"C1" r r_bytes in
      let tag = Codec.read_fixed ~what:"tag" r tag_bytes in
      let c2 = Codec.read_var ~what:"C2" r in
      { u; c1; c2; tag; release_time })
