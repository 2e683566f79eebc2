type t = {
  prms : Pairing.params;
  net : Simnet.t;
  timeline : Timeline.t;
  name : string;
  secret : Id_tre.Server.secret;
  public : Id_tre.Server.public;
  mutable users : (string * (int -> Curve.point -> unit)) list;
  mutable extractions : int;
  mutable unicasts : int;
}

let create prms ~net ~timeline ~name =
  let secret, public = Id_tre.Server.keygen prms (Simnet.rng net) in
  {
    prms;
    net;
    timeline;
    name;
    secret;
    public;
    users = [];
    extractions = 0;
    unicasts = 0;
  }


let register t ~identity handler =
  (* Enrollment interaction: the server learns the receiver identity. *)
  Simnet.send t.net ~src:identity ~dst:t.name ~kind:"ibe-enroll"
    ~bytes:(String.length identity)
    (fun () -> t.users <- (identity, handler) :: t.users)

let registered_users t = List.length t.users

let epoch_identity t ~identity ~epoch =
  identity ^ "||" ^ Timeline.label t.timeline epoch

let key_size t = Pairing.point_bytes t.prms

let start_epoch_deliveries t ~first_epoch ~epochs =
  for e = first_epoch to first_epoch + epochs - 1 do
    Simnet.schedule t.net ~at:(Timeline.start_of t.timeline e) (fun () ->
        (* O(N) work and O(N) unicasts, every single epoch. *)
        List.iter
          (fun (identity, handler) ->
            let d =
              Id_tre.Server.extract t.prms t.secret
                (epoch_identity t ~identity ~epoch:e)
            in
            t.extractions <- t.extractions + 1;
            t.unicasts <- t.unicasts + 1;
            Simnet.send t.net ~src:t.name ~dst:identity ~kind:"ibe-epoch-key"
              ~bytes:(key_size t)
              (fun () -> handler e d))
          t.users)
  done

let encrypt t ~identity ~release_epoch msg =
  (* BasicIdent to the augmented identity; release time embedded in the
     identity means no separate update is involved. *)
  let aug = epoch_identity t ~identity ~epoch:release_epoch in
  let zero_h1 = Curve.infinity in
  ignore zero_h1;
  let rng = Simnet.rng t.net in
  let curve = t.prms.Pairing.curve in
  let r = Pairing.random_scalar t.prms rng in
  let gid =
    Pairing.gt_pow t.prms
      (Pairing.pairing t.prms t.public.Id_tre.Server.sg (Pairing.hash_to_g1 t.prms aug))
      r
  in
  {
    Id_tre.u = Curve.mul curve r t.public.Id_tre.Server.g;
    v = Hashing.Kdf.xor msg (Pairing.h2 t.prms gid (String.length msg));
    release_time = Timeline.label t.timeline release_epoch;
  }

let decrypt t ~epoch_private_key (ct : Id_tre.ciphertext) =
  let k = Pairing.pairing t.prms ct.Id_tre.u epoch_private_key in
  Hashing.Kdf.xor ct.Id_tre.v (Pairing.h2 t.prms k (String.length ct.Id_tre.v))

let report t =
  {
    Baseline_report.scheme = "mont-ibe";
    server_messages = t.unicasts;
    server_bytes = Simnet.total_bytes_by t.net t.name;
    server_state_bytes =
      List.fold_left (fun acc (id, _) -> acc + String.length id + 32) 0 t.users;
    sender_server_interactions = 0;
    receiver_server_interactions = t.unicasts + registered_users t;
    leaks = [ Baseline_report.Receiver_identity ];
  }
