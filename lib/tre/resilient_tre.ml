type header = { node_label : string; blob : string }

type ciphertext = {
  u : Curve.point;
  headers : header list;
  body : string;
  release_epoch : int;
}

let key_bytes = 32

let body_mask key n = Hashing.Kdf.mask ("TRE-RESILIENT-DEM|" ^ key) n

let encrypt prms tree srv (pk : Tre.User.public) ~release_epoch rng msg =
  if not (Tre.validate_receiver_key prms srv pk) then raise Tre.Invalid_receiver_key;
  let curve = prms.Pairing.curve in
  let r = Pairing.random_scalar prms rng in
  let u = Tre.mul_generator prms srv ~reuse:false r in
  let rasg = Curve.mul curve r pk.Tre.User.asg in
  let msg_key = Hashing.Drbg.generate rng key_bytes in
  (* All depth+1 header pairings share the first argument r*asG; prepare
     it once and pay only the line evaluations per ancestor. *)
  let rasg_prep = Pairing.prepare prms rasg in
  let headers =
    List.map
      (fun node ->
        let label = Time_tree.node_label tree node in
        let k =
          Pairing.pairing_prepared prms rasg_prep (Pairing.hash_to_g1 prms label)
        in
        { node_label = label; blob = Hashing.Kdf.xor msg_key (Pairing.h2 prms k key_bytes) })
      (Time_tree.ancestors tree release_epoch)
  in
  { u; headers; body = Hashing.Kdf.xor msg (body_mask msg_key (String.length msg)); release_epoch }

let issue_cover prms tree sec ~epoch =
  List.map
    (fun node -> Tre.issue_update prms sec (Time_tree.node_label tree node))
    (Time_tree.cover tree epoch)

let verify_cover prms tree srv ~epoch updates =
  let expected =
    List.map (fun n -> Time_tree.node_label tree n) (Time_tree.cover tree epoch)
  in
  let labels = List.map (fun (u : Tre.update) -> u.Tre.update_time) updates in
  List.sort compare labels = List.sort compare expected
  && begin
       (* One prepared verifier across the whole cover (depth+1 updates
          against the same server key). *)
       let vrf = Tre.make_verifier prms srv in
       List.for_all (Tre.verify_update_with prms vrf) updates
     end

let decrypt prms _tree a ~cover ct =
  (* The one ancestor of the release leaf present in the cover (if the
     cover's epoch has reached the release epoch). *)
  let usable =
    List.find_map
      (fun (h : header) ->
        List.find_map
          (fun (upd : Tre.update) ->
            if upd.Tre.update_time = h.node_label then Some (h, upd) else None)
          cover)
      ct.headers
  in
  match usable with
  | None -> None
  | Some (h, upd) ->
      let msg_key = Tre.unseal prms a ct.u upd.Tre.update_value h.blob in
      Some (Hashing.Kdf.xor ct.body (body_mask msg_key (String.length ct.body)))

let ciphertext_overhead prms tree =
  Pairing.point_bytes prms + ((Time_tree.depth tree + 1) * (key_bytes + 16))
