exception Decryption_failed

type ciphertext = {
  u : Curve.point;
  v : string;
  w : string;
  release_time : Tre.time;
}

let seed_bytes = 32

(* H3: derive the encryption scalar from (seed, message, time). Every
   field is length-prefixed: bare concatenation would let (T="A", m="Bx")
   and (T="AB", m="x") hash identically and derive the same scalar. *)
let h3 prms ~seed ~msg ~release_time =
  Tre.scalar_of_seed prms
    (Codec.hash_input ~domain:"TRE-FO-H3" [ seed; release_time; msg ])

(* H4: the data-encapsulation mask. *)
let h4 seed n = Hashing.Kdf.mask ("TRE-FO-H4|" ^ seed) n

(* U = rG and V = seed xor H2(e^(r asG, H1(T))), on {!Tre.seal}. *)
let seal prms srv pk ~release_time ~seed r =
  Tre.seal prms ~mul_u:(Tre.mul_generator prms srv ~reuse:false)
    (Tre.release_key prms pk release_time) r seed

let encrypt prms srv pk ~release_time rng msg =
  if not (Tre.validate_receiver_key prms srv pk) then raise Tre.Invalid_receiver_key;
  let seed = Hashing.Drbg.generate rng seed_bytes in
  let u, v = seal prms srv pk ~release_time ~seed (h3 prms ~seed ~msg ~release_time) in
  { u; v; w = Hashing.Kdf.xor msg (h4 seed (String.length msg)); release_time }

let decrypt prms srv pk a upd ct =
  if upd.Tre.update_time <> ct.release_time then raise Tre.Update_mismatch;
  if String.length ct.v <> seed_bytes then raise Decryption_failed;
  let seed = Tre.unseal prms a ct.u upd.Tre.update_value ct.v in
  let msg = Hashing.Kdf.xor ct.w (h4 seed (String.length ct.w)) in
  (* Full re-encryption check: re-seal the recovered (seed, msg) under
     r = H3(seed, msg, T) and compare U and V. *)
  let release_time = ct.release_time in
  let u, v = seal prms srv pk ~release_time ~seed (h3 prms ~seed ~msg ~release_time) in
  if not (Curve.equal ct.u u && Hashing.ct_equal v ct.v) then raise Decryption_failed;
  msg

let ciphertext_to_bytes prms ct =
  if String.length ct.v <> seed_bytes then
    invalid_arg "Tre_fo.ciphertext_to_bytes: V must be exactly seed_bytes wide";
  Codec.encode prms Codec.Ciphertext_fo (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_point prms buf ct.u;
      Codec.add_fixed buf ct.v;
      Codec.add_var buf ct.w)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext_fo s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let u = Codec.read_g1 ~what:"U" prms r in
      let v = Codec.read_fixed ~what:"V (committed seed)" r seed_bytes in
      let w = Codec.read_var ~what:"W" r in
      { u; v; w; release_time })
