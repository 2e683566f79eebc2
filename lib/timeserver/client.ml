type delivery = {
  plaintext : string;
  release_label : Tre.time;
  decrypted_at : float;
}

type t = {
  prms : Pairing.params;
  net : Simnet.t;
  name : string;
  server : Tre.Server.public;
  verifier : Tre.verifier; (* prepared (G, sG) pairings for update checks *)
  secret : Tre.User.secret;
  public : Tre.User.public;
  updates : (Tre.time, Tre.update) Hashtbl.t;
  mutable pending : Tre.ciphertext list;
  mutable delivered : delivery list; (* newest first *)
  mutable rejected : int;
}

let create prms ~net ~server ~name =
  let secret, public = Tre.User.keygen prms server (Simnet.rng net) in
  {
    prms;
    net;
    name;
    server;
    verifier = Tre.make_verifier prms server;
    secret;
    public;
    updates = Hashtbl.create 16;
    pending = [];
    delivered = [];
    rejected = 0;
  }

let name t = t.name
let public_key t = t.public

let try_decrypt t ct =
  match Hashtbl.find_opt t.updates ct.Tre.release_time with
  | None -> false
  | Some upd ->
      let plaintext = Tre.decrypt t.prms t.secret upd ct in
      t.delivered <-
        {
          plaintext;
          release_label = ct.Tre.release_time;
          decrypted_at = Simnet.now t.net;
        }
        :: t.delivered;
      true

let drain_pending t =
  t.pending <- List.filter (fun ct -> not (try_decrypt t ct)) t.pending

let handler t upd =
  (* Duplicate deliveries are idempotent (re-verify, re-cache the same
     value); out-of-order deliveries are absorbed by the cache — nothing
     here depends on epochs arriving in sequence. *)
  if Tre.verify_update_with t.prms t.verifier upd then begin
    Hashtbl.replace t.updates upd.Tre.update_time upd;
    drain_pending t
  end
  else t.rejected <- t.rejected + 1

(* The broadcast-channel entry point: what arrives is the server's shared
   wire bytes (encoded once for all recipients); decoding — and rejecting
   malformed bytes — is this client's own work. *)
let on_wire t payload =
  match Tre.update_of_bytes t.prms payload with
  | Ok upd -> handler t upd
  | Error _ -> t.rejected <- t.rejected + 1

let enqueue_ciphertext t ct =
  if not (try_decrypt t ct) then t.pending <- ct :: t.pending

let fetch_missing t net server lbl =
  (* Anonymous pull of public data: request then response, both traced.
     The response rides the same encode-once cache as the broadcast; a
     miss (foreign label, or an epoch not yet broadcast) ends the pull. *)
  Simnet.send net ~src:t.name ~dst:(Passive_server.name server)
    ~kind:"archive-request" ~bytes:(String.length lbl) (fun () ->
      match Passive_server.archive_lookup server lbl with
      | Error _ -> ()
      | Ok payload ->
          Simnet.send net
            ~src:(Passive_server.name server)
            ~dst:t.name ~kind:"archive-response"
            ~bytes:(String.length payload)
            (fun () -> on_wire t payload))

let deliveries t = List.rev t.delivered
let pending_count t = List.length t.pending
let updates_cached t = Hashtbl.length t.updates
let rejected_updates t = t.rejected
