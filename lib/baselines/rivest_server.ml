let tag_bytes = 32

(* Authenticated symmetric encryption from a key string: mask-then-MAC. *)
let sym_encrypt ~key msg =
  let body = Hashing.Kdf.xor_mask ~seed:("rsw-sym|" ^ key) msg in
  Hashing.Hmac.mac ~key ("rsw-tag|" ^ body) ^ body

let sym_decrypt ~key ct =
  if String.length ct < tag_bytes then None
  else begin
    let tag = String.sub ct 0 tag_bytes in
    let body = String.sub ct tag_bytes (String.length ct - tag_bytes) in
    if Hashing.ct_equal tag (Hashing.Hmac.mac ~key ("rsw-tag|" ^ body)) then
      Some (Hashing.Kdf.xor_mask ~seed:("rsw-sym|" ^ key) body)
    else None
  end

module Online = struct
  type t = {
    net : Simnet.t;
    timeline : Timeline.t;
    name : string;
    seed : string;  (** the only state the server keeps *)
    mutable encryptions : int;
    mutable broadcasts : int;
  }

  let create ~net ~timeline ~name ~seed =
    { net; timeline; name; seed; encryptions = 0; broadcasts = 0 }

  (* K_e from a one-way function of the seed; the server "does not have to
     remember anything except the seed". *)
  let epoch_key t epoch = Hashing.Hmac.mac ~key:t.seed (Printf.sprintf "epoch|%d" epoch)

  let encrypt_via_server t ~sender ~release_epoch msg callback =
    (* Round trip: the server sees sender, plaintext and release time. *)
    Simnet.send t.net ~src:sender ~dst:t.name ~kind:"encrypt-request"
      ~bytes:(String.length msg + 8)
      (fun () ->
        t.encryptions <- t.encryptions + 1;
        let ct = sym_encrypt ~key:(epoch_key t release_epoch) msg in
        Simnet.send t.net ~src:t.name ~dst:sender ~kind:"encrypt-response"
          ~bytes:(String.length ct)
          (fun () -> callback ct))

  let start_broadcasts t ~first_epoch ~epochs ~recipients =
    for e = first_epoch to first_epoch + epochs - 1 do
      Simnet.schedule t.net ~at:(Timeline.start_of t.timeline e) (fun () ->
          t.broadcasts <- t.broadcasts + 1;
          let key = epoch_key t e in
          Simnet.broadcast t.net ~src:t.name ~kind:"epoch-key"
            ~bytes:(String.length key)
            (List.map (fun (nm, h) -> (nm, fun () -> h e key)) recipients))
    done

  let decrypt ~epoch_key ct =
    match sym_decrypt ~key:epoch_key ct with Some m -> m | None -> ""

  let report t =
    {
      Baseline_report.scheme = "rivest-online";
      server_messages = t.encryptions + t.broadcasts;
      server_bytes = Simnet.total_bytes_by t.net t.name;
      server_state_bytes = String.length t.seed;
      sender_server_interactions = 2 * t.encryptions;
      receiver_server_interactions = 0;
      leaks =
        [
          Baseline_report.Sender_identity;
          Baseline_report.Message_content;
          Baseline_report.Release_time;
        ];
    }
end

module Offline_list = struct
  type t = {
    prms : Pairing.params;
    net : Simnet.t;
    timeline : Timeline.t;
    name : string;
    seed : string;
    horizon : int;
    publics : string array;  (** serialized per-epoch ElGamal public keys *)
    mutable releases : int;
  }

  let epoch_secret prms seed epoch =
    Tre.scalar_of_seed prms (Printf.sprintf "rsw-offline|%s|%d" seed epoch)

  let create prms ~net ~timeline ~name ~seed ~horizon_epochs =
    if horizon_epochs < 1 then invalid_arg "Offline_list.create: empty horizon";
    let curve = prms.Pairing.curve in
    let publics =
      Array.init horizon_epochs (fun e ->
          Curve.to_bytes curve (Curve.mul curve (epoch_secret prms seed e) prms.Pairing.g))
    in
    let bulk = Array.fold_left (fun acc s -> acc + String.length s) 0 publics in
    (* The pre-publication: one bulk broadcast of the whole future list. *)
    Simnet.broadcast net ~src:name ~kind:"future-key-list" ~bytes:bulk [];
    { prms; net; timeline; name; seed; horizon = horizon_epochs; publics; releases = 0 }


  let public_key_for t ~epoch =
    if epoch < 0 || epoch >= t.horizon then None else Some t.publics.(epoch)

  (* Hashed-ElGamal encryption under the published epoch public key. *)
  let encrypt t ~epoch msg =
    match public_key_for t ~epoch with
    | None -> None
    | Some pk_bytes -> (
        let curve = t.prms.Pairing.curve in
        match Curve.of_bytes curve pk_bytes with
        | None -> None
        | Some pk ->
            let r = Pairing.random_scalar t.prms (Simnet.rng t.net) in
            let u = Curve.mul curve r t.prms.Pairing.g in
            let shared = Curve.to_bytes curve (Curve.mul curve r pk) in
            let key = Hashing.Sha256.digest ("rsw-offline-kem|" ^ shared) in
            Some (Curve.to_bytes curve u ^ sym_encrypt ~key msg))

  let start_secret_releases t ~first_epoch ~epochs ~recipients =
    for e = first_epoch to first_epoch + epochs - 1 do
      Simnet.schedule t.net ~at:(Timeline.start_of t.timeline e) (fun () ->
          if e < t.horizon then begin
            t.releases <- t.releases + 1;
            let sk =
              Bigint.to_bytes_be ~pad_to:(Pairing.scalar_bytes t.prms)
                (epoch_secret t.prms t.seed e)
            in
            Simnet.broadcast t.net ~src:t.name ~kind:"epoch-secret"
              ~bytes:(String.length sk)
              (List.map (fun (nm, h) -> (nm, fun () -> h e sk)) recipients)
          end)
    done

  let decrypt t ~epoch_secret ct =
    let curve = t.prms.Pairing.curve in
    let w = Pairing.point_bytes t.prms in
    if String.length ct < w then None
    else begin
      match Curve.of_bytes curve (String.sub ct 0 w) with
      | None -> None
      | Some u ->
          let x = Bigint.of_bytes_be epoch_secret in
          let shared = Curve.to_bytes curve (Curve.mul curve x u) in
          let key = Hashing.Sha256.digest ("rsw-offline-kem|" ^ shared) in
          sym_decrypt ~key (String.sub ct w (String.length ct - w))
    end

  let prepublication_bytes t = t.horizon * Pairing.point_bytes t.prms

  let report t =
    {
      Baseline_report.scheme = "rivest-offline";
      server_messages = 1 + t.releases;
      server_bytes = Simnet.total_bytes_by t.net t.name;
      server_state_bytes = String.length t.seed;
      sender_server_interactions = 0;
      receiver_server_interactions = 0;
      leaks = [];
    }
end
