(* Typed daemon protocol messages over the strict wire codec. Each
   message kind is a first-class [Codec.kind], so kind confusion between
   protocol traffic and cryptographic objects (or between two protocol
   messages) dies on the envelope, and the decode-fuzzing harness covers
   these bodies like any other wire object. *)

type hello = {
  origin : string;
  granularity_us : int;
  current_epoch : int;
  server_g : Curve.point;
  server_sg : Curve.point;
}

type miss_reason = Server_core.miss = Unknown_label | Future_refused

type tick = { tick_label : string; sent_at_us : int }

type stats = {
  conns_accepted : int;
  conns_open : int;
  subscribers : int;
  updates_encoded : int;
  frames_sent : int;
  bytes_sent : int;
  archive_hits : int;
  archive_misses : int;
  protocol_errors : int;
  slow_disconnects : int;
  queue_bytes : int;
  queue_bytes_peak : int;
  send_syscalls : int;
  poll_wakeups : int;
  shard_conns : int list;
}

let max_shards_on_wire = 4096

(* --- hello --- *)

let hello_to_bytes prms (h : hello) =
  Codec.encode prms Codec.Net_hello (fun buf ->
      Codec.add_label buf h.origin;
      Codec.add_u64 buf h.granularity_us;
      Codec.add_u64 buf h.current_epoch;
      Codec.add_point prms buf h.server_g;
      Codec.add_point prms buf h.server_sg)

let hello_of_bytes prms s =
  Codec.decode prms Codec.Net_hello s (fun r ->
      let origin = Codec.read_label ~what:"origin" r in
      let granularity_us = Codec.read_u64 ~what:"granularity" r in
      if granularity_us = 0 then Codec.fail "granularity: zero";
      let current_epoch = Codec.read_u64 ~what:"current epoch" r in
      let server_g = Codec.read_g1 ~what:"server G" prms r in
      let server_sg = Codec.read_g1 ~what:"server sG" prms r in
      { origin; granularity_us; current_epoch; server_g; server_sg })

(* --- subscribe (empty body) --- *)

let subscribe_to_bytes prms = Codec.encode prms Codec.Net_subscribe (fun _ -> ())
let subscribe_of_bytes prms s = Codec.decode prms Codec.Net_subscribe s (fun _ -> ())

(* --- archive query / miss --- *)

let archive_query_to_bytes prms label =
  Codec.encode prms Codec.Net_archive_query (fun buf -> Codec.add_label buf label)

let archive_query_of_bytes prms s =
  Codec.decode prms Codec.Net_archive_query s (fun r -> Codec.read_label ~what:"label" r)

let miss_reason_tag = function Unknown_label -> 0 | Future_refused -> 1

let archive_miss_to_bytes prms label reason =
  Codec.encode prms Codec.Net_archive_miss (fun buf ->
      Codec.add_label buf label;
      Buffer.add_char buf (Char.chr (miss_reason_tag reason)))

let archive_miss_of_bytes prms s =
  Codec.decode prms Codec.Net_archive_miss s (fun r ->
      let label = Codec.read_label ~what:"label" r in
      match Codec.read_u8 ~what:"reason" r with
      | 0 -> (label, Unknown_label)
      | 1 -> (label, Future_refused)
      | n -> Codec.fail "reason: unknown tag %d" n)

(* --- tick preamble --- *)

let tick_to_bytes prms (t : tick) =
  Codec.encode prms Codec.Net_tick (fun buf ->
      Codec.add_label buf t.tick_label;
      Codec.add_u64 buf t.sent_at_us)

let tick_of_bytes prms s =
  Codec.decode prms Codec.Net_tick s (fun r ->
      let tick_label = Codec.read_label ~what:"label" r in
      let sent_at_us = Codec.read_u64 ~what:"send stamp" r in
      { tick_label; sent_at_us })

(* --- stats --- *)

let stats_query_to_bytes prms = Codec.encode prms Codec.Net_stats_query (fun _ -> ())

let stats_query_of_bytes prms s =
  Codec.decode prms Codec.Net_stats_query s (fun _ -> ())

let stats_to_bytes prms (s : stats) =
  Codec.encode prms Codec.Net_stats (fun buf ->
      List.iter (Codec.add_u64 buf)
        [
          s.conns_accepted; s.conns_open; s.subscribers; s.updates_encoded;
          s.frames_sent; s.bytes_sent; s.archive_hits; s.archive_misses;
          s.protocol_errors; s.slow_disconnects; s.queue_bytes; s.queue_bytes_peak;
          s.send_syscalls; s.poll_wakeups;
        ];
      Codec.add_u32 buf (List.length s.shard_conns);
      List.iter (Codec.add_u64 buf) s.shard_conns)

(* --- pairing delegation --- *)

type delegate_query = {
  query_id : int;
  pairs : (Curve.point * Curve.point) array;
}

type delegate_response = { response_id : int; values : Fp2.t array }

let max_delegate_pairs = 16

let delegate_query_to_bytes prms (q : delegate_query) =
  let n = Array.length q.pairs in
  if n < 1 || n > max_delegate_pairs then
    invalid_arg "Netmsg.delegate_query_to_bytes: pair count out of range";
  Codec.encode prms Codec.Delegate_query (fun buf ->
      Codec.add_u64 buf q.query_id;
      Codec.add_u32 buf n;
      Array.iter
        (fun (p, q) ->
          Codec.add_point prms buf p;
          Codec.add_point prms buf q)
        q.pairs)

let delegate_query_of_bytes prms s =
  Codec.decode prms Codec.Delegate_query s (fun r ->
      let query_id = Codec.read_u64 ~what:"query id" r in
      let n = Codec.read_u32 ~what:"pair count" ~max:max_delegate_pairs r in
      if n = 0 then Codec.fail "pair count: zero";
      let pairs =
        Array.init n (fun _ ->
            let p = Codec.read_g1 ~what:"query point" prms r in
            let q = Codec.read_g1 ~what:"query point" prms r in
            (p, q))
      in
      { query_id; pairs })

let delegate_response_to_bytes prms (resp : delegate_response) =
  let n = Array.length resp.values in
  if n < 1 || n > max_delegate_pairs then
    invalid_arg "Netmsg.delegate_response_to_bytes: value count out of range";
  Codec.encode prms Codec.Delegate_response (fun buf ->
      Codec.add_u64 buf resp.response_id;
      Codec.add_u32 buf n;
      Array.iter (Codec.add_gt prms buf) resp.values)

let delegate_response_of_bytes prms s =
  Codec.decode prms Codec.Delegate_response s (fun r ->
      let response_id = Codec.read_u64 ~what:"response id" r in
      let n = Codec.read_u32 ~what:"value count" ~max:max_delegate_pairs r in
      if n = 0 then Codec.fail "value count: zero";
      let values =
        Array.init n (fun _ -> Codec.read_gt ~what:"pairing value" prms r)
      in
      { response_id; values })

let stats_of_bytes prms s =
  Codec.decode prms Codec.Net_stats s (fun r ->
      let f what = Codec.read_u64 ~what r in
      let conns_accepted = f "conns accepted" in
      let conns_open = f "conns open" in
      let subscribers = f "subscribers" in
      let updates_encoded = f "updates encoded" in
      let frames_sent = f "frames sent" in
      let bytes_sent = f "bytes sent" in
      let archive_hits = f "archive hits" in
      let archive_misses = f "archive misses" in
      let protocol_errors = f "protocol errors" in
      let slow_disconnects = f "slow disconnects" in
      let queue_bytes = f "queue bytes" in
      let queue_bytes_peak = f "queue bytes peak" in
      let send_syscalls = f "send syscalls" in
      let poll_wakeups = f "poll wakeups" in
      let n_shards = Codec.read_u32 ~what:"shard count" ~max:max_shards_on_wire r in
      let shard_conns = List.init n_shards (fun _ -> f "shard conns") in
      {
        conns_accepted; conns_open; subscribers; updates_encoded; frames_sent;
        bytes_sent; archive_hits; archive_misses; protocol_errors;
        slow_disconnects; queue_bytes; queue_bytes_peak; send_syscalls;
        poll_wakeups; shard_conns;
      })
