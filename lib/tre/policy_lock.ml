exception Invalid_receiver_key
exception Missing_witness

type condition = string
type witness = Tre.update

type ciphertext = {
  u : Curve.point;
  v : string;
  conditions : condition list;
}

let issue_witness = Tre.issue_update
let verify_witness = Tre.verify_update

let normalize conditions = List.sort_uniq String.compare conditions

(* sum_i H1(C_i) — the combined lock point. *)
let combined_hash prms conditions =
  List.fold_left
    (fun acc c -> Curve.add prms.Pairing.curve acc (Pairing.hash_to_g1 prms c))
    Curve.infinity conditions

let encrypt prms srv (pk : Tre.User.public) ~conditions rng msg =
  let conditions = normalize conditions in
  if conditions = [] then invalid_arg "Policy_lock.encrypt: no conditions";
  if not (Tre.validate_receiver_key prms srv pk) then raise Invalid_receiver_key;
  let u, v =
    Tre.seal prms ~mul_u:(Tre.mul_generator prms srv ~reuse:false)
      (Pairing.pairing prms pk.Tre.User.asg (combined_hash prms conditions))
      (Pairing.random_scalar prms rng) msg
  in
  { u; v; conditions }

let decrypt prms a witnesses ct =
  (* Pick one witness per required condition; sum them into s * sum H1(C_i). *)
  let find c =
    match
      List.find_opt (fun (w : witness) -> w.Tre.update_time = c) witnesses
    with
    | Some w -> w.Tre.update_value
    | None -> raise Missing_witness
  in
  let curve = prms.Pairing.curve in
  let combined_sig =
    List.fold_left
      (fun acc c -> Curve.add curve acc (find c))
      Curve.infinity ct.conditions
  in
  Tre.unseal prms a ct.u combined_sig ct.v

let ciphertext_overhead prms = 4 + Pairing.point_bytes prms
