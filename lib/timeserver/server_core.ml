type miss = Unknown_label | Future_refused

type t = {
  prms : Pairing.params;
  timeline : Timeline.t;
  secret : Tre.Server.secret;
  public : Tre.Server.public;
  wrap : string -> string;
  cache_limit : int;
  cache : (int, string) Hashtbl.t; (* epoch -> wrapped update bytes *)
  lock : Mutex.t;
  released : int Atomic.t;
  encoded : int Atomic.t;
}

let create ?(cache_limit = 4096) ~wrap prms timeline secret =
  {
    prms;
    timeline;
    secret;
    public = Tre.Server.public_of_secret secret;
    wrap;
    cache_limit;
    cache = Hashtbl.create 64;
    lock = Mutex.create ();
    released = Atomic.make 0;
    encoded = Atomic.make 0;
  }

(* Broadcasts and archive pulls share the cache, so a release followed
   by any number of pulls of that epoch encodes once. No fixed-base
   precomputation applies to the signing: s is fixed but the base H1(T)
   is fresh per epoch. *)
let encode t epoch =
  match Hashtbl.find_opt t.cache epoch with
  | Some b -> b
  | None ->
      let upd = Tre.issue_update t.prms t.secret (Timeline.label t.timeline epoch) in
      let b = t.wrap (Tre.update_to_bytes t.prms upd) in
      if Hashtbl.length t.cache >= t.cache_limit then Hashtbl.reset t.cache;
      Hashtbl.replace t.cache epoch b;
      Atomic.incr t.encoded;
      b

(* The watermark only rises, and only under the lock, so a plain
   compare-then-set is enough; readers take it without the lock. *)
let release t epoch =
  Mutex.protect t.lock (fun () ->
      let b = encode t epoch in
      if epoch > Atomic.get t.released then Atomic.set t.released epoch;
      b)

let released t = Atomic.get t.released

let lookup t label =
  match Timeline.epoch_of_label t.timeline label with
  | None -> Error Unknown_label
  | Some e when e > Atomic.get t.released -> Error Future_refused
  | Some e -> Ok (Mutex.protect t.lock (fun () -> encode t e))

let public t = t.public
let timeline t = t.timeline
let updates_encoded t = Atomic.get t.encoded
