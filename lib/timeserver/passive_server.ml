exception Future_update_refused

type t = {
  prms : Pairing.params;
  name : string;
  timeline : Timeline.t;
  secret : Tre.Server.secret;
  public : Tre.Server.public;
  issued : (Tre.time, Tre.update) Hashtbl.t;
  encoded : (Tre.time, string) Hashtbl.t; (* label -> wire bytes, built once *)
  max_skew : float;
  skew_rng : Hashing.Drbg.t;
  mutable updates_issued : int;
  mutable updates_encoded : int;
  mutable bytes_broadcast : int;
}

let create ?(max_skew = 0.0) prms ~net ~timeline ~name =
  if max_skew < 0.0 then invalid_arg "Passive_server.create: negative skew";
  let secret, public = Tre.Server.keygen prms (Simnet.rng net) in
  {
    prms;
    name;
    timeline;
    secret;
    public;
    issued = Hashtbl.create 64;
    encoded = Hashtbl.create 64;
    max_skew;
    skew_rng = Hashing.Drbg.create ~seed:(name ^ "-clock-skew") ();
    updates_issued = 0;
    updates_encoded = 0;
    bytes_broadcast = 0;
  }

(* The section-3 trust model: the server's clock is consistent within a
   bound, so each broadcast may fire up to [max_skew] late (never early:
   a correct server must not release an update before its time). *)
let skew t =
  if t.max_skew = 0.0 then 0.0
  else begin
    let raw = Hashing.Drbg.generate t.skew_rng 4 in
    let v =
      (Char.code raw.[0] lsl 24) lor (Char.code raw.[1] lsl 16)
      lor (Char.code raw.[2] lsl 8) lor Char.code raw.[3]
    in
    t.max_skew *. float_of_int v /. 4294967296.0
  end

let name t = t.name
let max_skew t = t.max_skew
let public t = t.public
let timeline t = t.timeline
let secret t = t.secret

let issue t epoch =
  let label = Timeline.label t.timeline epoch in
  match Hashtbl.find_opt t.issued label with
  | Some upd -> upd
  | None ->
      (* No fixed-base precomputation applies here: the scalar s is fixed
         but the base H1(T) is fresh per epoch, so Curve.mul's Montgomery
         ladder is already the best available. *)
      let upd = Tre.issue_update t.prms t.secret label in
      Hashtbl.replace t.issued label upd;
      upd

(* Encode-once: the wire bytes of an epoch's update are built exactly
   once — the broadcast hands the {e same} string to every recipient
   (via [Simnet.broadcast_bytes]) and the archive serves the same bytes
   again — mirroring the socket daemon's shared-frame fan-out. *)
let encoded_update t epoch =
  let label = Timeline.label t.timeline epoch in
  match Hashtbl.find_opt t.encoded label with
  | Some bytes -> bytes
  | None ->
      let bytes = Tre.update_to_bytes t.prms (issue t epoch) in
      Hashtbl.replace t.encoded label bytes;
      t.updates_encoded <- t.updates_encoded + 1;
      bytes

let update_size t =
  (* Real wire size of one update object: codec envelope, length-prefixed
     label, fixed-width compressed point. The label length varies by a
     byte or two with the epoch index; epoch 1 is the representative. *)
  Codec.header_bytes
  + 4
  + String.length (Timeline.label t.timeline 1)
  + Pairing.point_bytes t.prms

(* One broadcast per epoch boundary; server-side cost is a single signing
   plus a single serialization plus a single channel write, independent
   of |recipients|. The optional pool only parallelizes the RECIPIENTS'
   decode+verify work at delivery — the server side stays one signing and
   one encoding either way. *)
let start ?pool t ~net ~first_epoch ~epochs ~recipients =
  for e = first_epoch to first_epoch + epochs - 1 do
    let at = Timeline.start_of t.timeline e +. skew t in
    Simnet.schedule net ~at (fun () ->
        let payload = encoded_update t e in
        t.updates_issued <- t.updates_issued + 1;
        t.bytes_broadcast <- t.bytes_broadcast + String.length payload;
        Simnet.broadcast_bytes ?pool net ~src:t.name ~kind:"key-update" ~payload
          recipients)
  done

let archive_lookup t net lbl =
  match Timeline.epoch_of_label t.timeline lbl with
  | None -> None
  | Some epoch ->
      if Timeline.start_of t.timeline epoch > Simnet.now net then
        raise Future_update_refused;
      (* Footnote 4: regenerate from s on demand; consistent with any
         previously broadcast copy because issuing is deterministic. *)
      Some (issue t epoch)

let archive_lookup_bytes t net lbl =
  match Timeline.epoch_of_label t.timeline lbl with
  | None -> None
  | Some epoch ->
      if Timeline.start_of t.timeline epoch > Simnet.now net then
        raise Future_update_refused;
      Some (encoded_update t epoch)

let updates_issued t = t.updates_issued
let updates_encoded t = t.updates_encoded
let bytes_broadcast t = t.bytes_broadcast
