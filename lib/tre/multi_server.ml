exception Invalid_receiver_key
exception Update_mismatch
exception Wrong_update_count

type receiver_public = { ag : Curve.point; k_new : Curve.point }

type ciphertext = {
  us : Curve.point array;
  v : string;
  release_time : Tre.time;
}

let sum_server_points prms servers =
  List.fold_left
    (fun acc (srv : Tre.Server.public) ->
      Curve.add prms.Pairing.curve acc srv.Tre.Server.sg)
    Curve.infinity servers

let receiver_public_of_secret prms servers a =
  if servers = [] then invalid_arg "Multi_server: empty server list";
  let curve = prms.Pairing.curve in
  let scalar = Tre.User.secret_to_scalar a in
  {
    ag = Curve.mul curve scalar prms.Pairing.g;
    k_new = Curve.mul curve scalar (sum_server_points prms servers);
  }

let receiver_keygen prms servers rng =
  let a = Tre.User.secret_of_scalar prms (Pairing.random_scalar prms rng) in
  (a, receiver_public_of_secret prms servers a)

let validate_receiver_key prms servers (pk : receiver_public) =
  servers <> []
  && Pairing.in_g1 prms pk.ag
  && Pairing.in_g1 prms pk.k_new
  && (not (Curve.is_infinity pk.ag))
  && Pairing.ddh prms pk.ag prms.Pairing.g pk.k_new (sum_server_points prms servers)

(* One U per server, each on {!Tre.mul_generator}'s routing, and
   K = e^(K_new, H1(T))^r, on {!Tre.seal}. *)
let encrypt prms servers pk ~release_time rng msg =
  if not (validate_receiver_key prms servers pk) then raise Invalid_receiver_key;
  let muls = List.map (fun srv -> Tre.mul_generator prms srv ~reuse:false) servers in
  let us, v =
    Tre.seal prms
      ~mul_u:(fun r -> Array.of_list (List.map (fun mul -> mul r) muls))
      (Pairing.pairing prms pk.k_new (Pairing.hash_to_g1 prms release_time))
      (Pairing.random_scalar prms rng) msg
  in
  { us; v; release_time }

let decrypt prms a updates ct =
  if List.length updates <> Array.length ct.us then raise Wrong_update_count;
  List.iter
    (fun (u : Tre.update) ->
      if u.Tre.update_time <> ct.release_time then raise Update_mismatch)
    updates;
  let scalar = Tre.User.secret_to_scalar a in
  (* K = (prod_i e^(rG_i, s_i H1(T)))^a — one shared final exponentiation
     and one GT exponentiation regardless of N. *)
  let pairs = List.mapi (fun i (u : Tre.update) -> (ct.us.(i), u.Tre.update_value)) updates in
  let k = Pairing.gt_pow prms (Pairing.pairing_product prms pairs) scalar in
  Hashing.Kdf.xor ct.v (Pairing.h2 prms k (String.length ct.v))

(* Wire bound on N: one byte would do for any deployment the paper
   discusses, but the count is framed as a u32 with an explicit cap so the
   decoder can reject absurd counts before allocating. *)
let max_servers = 255

let ciphertext_to_bytes prms ct =
  let n = Array.length ct.us in
  if n = 0 || n > max_servers then
    invalid_arg "Multi_server.ciphertext_to_bytes: server count out of range";
  Codec.encode prms Codec.Ciphertext_multi (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_u32 buf n;
      Array.iter (Codec.add_point prms buf) ct.us;
      Codec.add_var buf ct.v)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext_multi s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let n = Codec.read_u32 ~what:"server count" ~max:max_servers r in
      if n = 0 then Codec.fail "server count must be positive";
      let us =
        Array.init n (fun i ->
            Codec.read_g1 ~what:(Printf.sprintf "U[%d]" i) prms r)
      in
      let v = Codec.read_var ~what:"V" r in
      { us; v; release_time })

let receiver_public_to_bytes prms pk =
  Codec.encode prms Codec.Multi_receiver (fun buf ->
      Codec.add_point prms buf pk.ag;
      Codec.add_point prms buf pk.k_new)

let receiver_public_of_bytes prms s =
  Codec.decode prms Codec.Multi_receiver s (fun r ->
      let ag = Codec.read_g1 ~what:"aG" prms r in
      let k_new = Codec.read_g1 ~what:"K_new" prms r in
      { ag; k_new })
