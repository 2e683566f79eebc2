type system = {
  public : Tre.Server.public;
  share_commitments : (int * Curve.point) array;
  share_verifiers : (int * Bls.verifier) array;
  k : int;
  n : int;
}

type share_server = { index : int; share : Bls.secret }

type partial = { server_index : int; value : Curve.point }

let setup prms rng ~k ~n =
  let s = Pairing.random_scalar prms rng in
  let keys =
    List.map
      (fun (sh : Shamir.share) ->
        (sh.Shamir.index, Bls.secret_of_scalar prms sh.Shamir.value ()))
      (Shamir.split prms rng ~secret:s ~k ~n)
  in
  let system =
    {
      public = Tre.Server.public_of_secret (Tre.Server.secret_of_scalar prms s);
      share_commitments =
        Array.of_list (List.map (fun (i, (_, pub)) -> (i, pub.Bls.pk)) keys);
      (* A partial is a BLS signature under (G, s_i G), checked against
         the same key for the system's whole lifetime; prepare it once. *)
      share_verifiers =
        Array.of_list
          (List.map (fun (i, (_, pub)) -> (i, Bls.make_verifier prms pub)) keys);
      k;
      n;
    }
  in
  (system, List.map (fun (index, (share, _)) -> { index; share }) keys)

let issue_partial prms srv t = { server_index = srv.index; value = Bls.sign prms srv.share t }

let verify_partial prms system t partial =
  match
    Array.find_opt (fun (i, _) -> i = partial.server_index) system.share_verifiers
  with
  | None -> false
  | Some (_, vrf) -> Bls.verify_with prms vrf t partial.value

(* Share indices are small positive integers (Shamir evaluation points);
   bound them on the wire so a forged partial cannot smuggle an absurd
   index into the Lagrange combination. *)
let max_partial_index = 0xFFFF

let partial_to_bytes prms p =
  if p.server_index <= 0 || p.server_index > max_partial_index then
    invalid_arg "Threshold_server.partial_to_bytes: share index out of range";
  Codec.encode prms Codec.Threshold_partial (fun buf ->
      Codec.add_u32 buf p.server_index;
      Codec.add_point prms buf p.value)

let partial_of_bytes prms s =
  Codec.decode prms Codec.Threshold_partial s (fun r ->
      let server_index =
        Codec.read_u32 ~what:"share index" ~max:max_partial_index r
      in
      if server_index = 0 then Codec.fail "share index must be positive";
      let value = Codec.read_point ~what:"partial value" prms r in
      { server_index; value })

let combine prms system t partials =
  if List.length partials < system.k then
    invalid_arg "Threshold_server.combine: fewer than k partials";
  (* Use the first k (Lagrange needs exactly the participating set). *)
  let chosen = List.filteri (fun i _ -> i < system.k) partials in
  let indices = List.map (fun p -> p.server_index) chosen in
  let lambdas = Shamir.lagrange_at_zero prms indices in
  let curve = prms.Pairing.curve in
  let value =
    List.fold_left2
      (fun acc p lambda -> Curve.add curve acc (Curve.mul curve lambda p.value))
      Curve.infinity chosen lambdas
  in
  { Tre.update_time = t; update_value = value }
