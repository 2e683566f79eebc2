type t = {
  prms : Pairing.params;
  name : string;
  core : Server_core.t;
  max_skew : float;
  skew_rng : Hashing.Drbg.t;
  mutable updates_issued : int;
  mutable bytes_broadcast : int;
}

let create ?(max_skew = 0.0) prms ~net ~timeline ~name =
  if max_skew < 0.0 then invalid_arg "Passive_server.create: negative skew";
  let secret, _ = Tre.Server.keygen prms (Simnet.rng net) in
  {
    prms;
    name;
    core = Server_core.create ~wrap:Fun.id prms timeline secret;
    max_skew;
    skew_rng = Hashing.Drbg.create ~seed:(name ^ "-clock-skew") ();
    updates_issued = 0;
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
let public t = Server_core.public t.core

let update_size t =
  (* Real wire size of one update object: codec envelope, length-prefixed
     label, fixed-width compressed point. The label length varies by a
     byte or two with the epoch index; epoch 1 is the representative. *)
  Codec.header_bytes
  + 4
  + String.length (Timeline.label (Server_core.timeline t.core) 1)
  + Pairing.point_bytes t.prms

(* One broadcast per epoch boundary; server-side cost is a single signing
   plus a single serialization plus a single channel write, independent
   of |recipients|. The optional pool only parallelizes the RECIPIENTS'
   decode+verify work at delivery — the server side stays one signing and
   one encoding either way. *)
let start ?pool t ~net ~first_epoch ~epochs ~recipients =
  for e = first_epoch to first_epoch + epochs - 1 do
    let at = Timeline.start_of (Server_core.timeline t.core) e +. skew t in
    Simnet.schedule net ~at (fun () ->
        let payload = Server_core.release t.core e in
        t.updates_issued <- t.updates_issued + 1;
        t.bytes_broadcast <- t.bytes_broadcast + String.length payload;
        Simnet.broadcast_bytes ?pool net ~src:t.name ~kind:"key-update" ~payload
          recipients)
  done

let archive_lookup t label = Server_core.lookup t.core label
let updates_issued t = t.updates_issued
let updates_encoded t = Server_core.updates_encoded t.core
let bytes_broadcast t = t.bytes_broadcast
