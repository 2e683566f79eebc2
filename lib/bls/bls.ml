type secret = Bigint.t
type public = { g : Curve.point; pk : Curve.point }
type signature = Curve.point

(* A custom generator must be a non-identity G1 point: under G = O every
   public point is O and both sides of the verification equation are 1,
   and a component outside G1 is invisible to the pairing. *)
let keypair prms s g =
  let g =
    match g with
    | None -> prms.Pairing.g
    | Some g ->
        if Curve.is_infinity g || not (Pairing.in_g1 prms g) then
          invalid_arg "Bls: generator must be a non-identity G1 point";
        g
  in
  (s, { g; pk = Curve.mul prms.Pairing.curve s g })

let keygen ?g prms rng = keypair prms (Pairing.random_scalar prms rng) g

let secret_of_scalar prms s ?g () =
  if Bigint.sign s <= 0 || Bigint.compare s prms.Pairing.q >= 0 then
    invalid_arg "Bls.secret_of_scalar: scalar out of range";
  keypair prms s g

let secret_to_scalar s = s

let sign prms secret msg =
  Curve.mul prms.Pairing.curve secret (Pairing.hash_to_g1 prms msg)

let verify prms public msg signature =
  Pairing.in_g1 prms signature
  && Pairing.pairing_equal_check prms ~lhs:(public.g, signature)
       ~rhs:(public.pk, Pairing.hash_to_g1 prms msg)

(* Both verification pairings have a fixed first argument (G and pk), so
   a verifier that checks many signatures from one signer prepares them
   once. [vkey] keys the batch-exponent derandomizer to this signer. *)
type verifier = {
  vg : Pairing.prepared;
  vpk : Pairing.prepared;
  vkey : string;
}

let key_bytes prms (public : public) =
  Curve.to_bytes prms.Pairing.curve public.g
  ^ Curve.to_bytes prms.Pairing.curve public.pk

let make_verifier prms (public : public) =
  {
    vg = Pairing.prepare prms public.g;
    vpk = Pairing.prepare prms public.pk;
    vkey = key_bytes prms public;
  }

let verify_with prms vrf msg signature =
  Pairing.in_g1 prms signature
  && Pairing.pairing_equal_check_prepared prms ~lhs:(vrf.vg, signature)
       ~rhs:(vrf.vpk, Pairing.hash_to_g1 prms msg)

(* Batch verification (Bellare–Garay–Rabin small exponents): check
   e^(G, sum d_i sig_i) = e^(pk, sum d_i H1(m_i)) for derandomized 64-bit
   exponents d_i keyed by (signer, batch). A plain unweighted sum is NOT
   sound — two tampered signatures sig_1 + D, sig_2 - D cancel — whereas
   here any tampering survives only if the adversary hits a 2^-64 linear
   relation whose coefficients re-randomize with every change. Duplicate
   messages are fine (the exponents separate them), unlike the classic
   unweighted same-signer aggregation.

   Two batch-level algebraic savings over n per-item verifications,
   beyond sharing the pairings:

   - subgroup checks are aggregated: each signature pays only the cheap
     on-curve test, and ONE q-mult checks the weighted sum. That is sound
     only for items already in G1, which every decoder guarantees: a
     component c_i of order l | h in sig_i drops out of sum d_i sig_i
     whenever l | d_i (probability 1/l, retried by changing the batch),
     and the pairing cannot see it either (e^(G, c) = 1 for c of order
     coprime to q). Such a component authenticates nothing, but the
     batch verdict then differs from the single ones (ROADMAP.md,
     item 1).

   - cofactor clearing inside H1 commutes with the weighted sum
     (sum d_i * (h * P_i) = h * sum d_i * P_i), so each item hashes only
     to the raw curve lift and the batch pays ONE h-mult on the H-sum.

   The per-item work (on-curve check, raw H1 lift) is independent across
   items, so an optional [Pool] shards it; the weighted sums themselves
   are two multi-scalar multiplications ([Curve.msm]: one shared doubling
   chain for all the short exponents) on the caller, so the sums — and
   hence the verdict — are bit-identical to the serial path. *)
let batch_sums ?pool prms ~key pairs =
  let curve = prms.Pairing.curve in
  let seed =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "TRE-bls-batch|";
    Buffer.add_string buf key;
    List.iter
      (fun (m, s) ->
        Buffer.add_string buf (Printf.sprintf "|%d|" (String.length m));
        Buffer.add_string buf m;
        Buffer.add_string buf (Curve.to_bytes curve s))
      pairs;
    Buffer.contents buf
  in
  let ds = Pairing.batch_exponents prms ~seed (List.length pairs) in
  let weigh (m, s) =
    (Curve.on_curve curve s, s, Pairing.hash_to_g1_unclamped prms m)
  in
  let checked =
    match pool with
    | None -> List.map weigh pairs
    | Some pool -> Pool.map pool weigh pairs
  in
  if List.exists (fun (ok, _, _) -> not ok) checked then None
  else begin
    let sum_sig = Curve.msm curve (List.map2 (fun d (_, s, _) -> (d, s)) ds checked) in
    let sum_h_raw =
      Curve.msm curve (List.map2 (fun d (_, _, h) -> (d, h)) ds checked)
    in
    (* One aggregate subgroup check, one aggregate cofactor clearing. *)
    if not (Pairing.in_g1 prms sum_sig) then None
    else Some (sum_sig, Curve.mul curve prms.Pairing.cofactor sum_h_raw)
  end

let verify_batch ?pool prms public pairs =
  if pairs = [] then true
  else begin
    match batch_sums ?pool prms ~key:(key_bytes prms public) pairs with
    | None -> false
    | Some (sum_sig, sum_h) ->
        Pairing.pairing_equal_check prms ~lhs:(public.g, sum_sig)
          ~rhs:(public.pk, sum_h)
  end

let verify_batch_with ?pool prms vrf pairs =
  if pairs = [] then true
  else begin
    match batch_sums ?pool prms ~key:vrf.vkey pairs with
    | None -> false
    | Some (sum_sig, sum_h) ->
        Pairing.pairing_equal_check_prepared prms ~lhs:(vrf.vg, sum_sig)
          ~rhs:(vrf.vpk, sum_h)
  end

let signature_bytes prms = Codec.header_bytes + Pairing.point_bytes prms

let signature_to_bytes prms s =
  Codec.encode prms Codec.Bls_signature (fun buf -> Codec.add_point prms buf s)

(* A BLS signature on a message outside H1's image can legitimately be
   the identity only with negligible probability, but sigma = O is a
   well-formed group element; [Codec.read_point] keeps accepting its
   canonical encoding (and only that one). *)
let signature_of_bytes prms bytes =
  Codec.decode prms Codec.Bls_signature bytes (fun r ->
      Codec.read_point ~what:"signature" prms r)

let public_to_bytes prms pub =
  Codec.encode prms Codec.Bls_public (fun buf ->
      Codec.add_point prms buf pub.g;
      Codec.add_point prms buf pub.pk)

let public_of_bytes prms bytes =
  Codec.decode prms Codec.Bls_public bytes (fun r ->
      let g = Codec.read_g1 ~what:"generator G" prms r in
      let pk = Codec.read_g1 ~what:"public point sG" prms r in
      { g; pk })
