(* loadgen: the E13 client-load harness for the socket daemon.

     dune exec bench/loadgen.exe -- --clients 100000 --ticks 200
     dune exec bench/loadgen.exe -- --backend epoll --conns 9000 --ticks 30

   Drives 10^5..10^6 {e simulated} clients against {!Net_server} through a
   pool of real connections. On the select backend real descriptors are
   capped by FD_SETSIZE (the harness enforces its historical 900-conn
   bound); on the epoll backend both the server shards and the harness's
   own pump run on {!Poller}, so real connections scale to the process fd
   limit (the harness raises RLIMIT_NOFILE itself — both socket ends
   live in this one process, so N conns cost ~2N descriptors). Whatever
   the bound, [--clients] models [clients/conns] simulated clients per
   socket — honest for the {e server}, whose per-epoch work is one encode
   plus one queued reference per connection either way (that is the
   encode-once property under test), and reported explicitly in the JSON
   so nobody mistakes a sample for a census.

   Phases:
   1. subscribe [--conns] readers (+ [--slow-readers] that never read);
   2. broadcast [--ticks] epochs back-to-back, measuring sustained
      updates/sec and client-observed tick->update latency;
   3. burst extra epochs until back-pressure evicts every slow reader
      (bounded-memory evidence);
   4. archive phase: [--archive-conns] pull [--archive-lookups] past
      epochs (plus one future + one foreign label, both refused);
   5. client-side work, sampled: batch-verify the distinct updates
      (Bellare-Garay-Rabin; what a real client would run per epoch) and
      decrypt [--decrypt-sample] ciphertexts end-to-end;
   6. query stats over the wire, assert encode-once, write BENCH_E13.json.

   [--quiet] suppresses every nondeterministic line (timings, stamps) so
   the cram smoke test can pin the output. *)

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("loadgen: " ^ s); exit 1) fmt

(* ---------------------------------------------------------------- args *)

let clients = ref 100_000
let conns = ref 256
let slow_readers = ref 16
let archive_conns = ref 4
let archive_lookups = ref 1_000
let ticks = ref 50
let params = ref "mid128"
let seed = ref "loadgen-e13"
let max_queue = ref 64
let shards = ref 0
let verify_sample = ref 16
let decrypt_sample = ref 8
let json_path = ref "BENCH_E13.json"
let json_append = ref false
let unix_path = ref ""
let backend_str = ref "auto"
let client_tier = ref "full"
let quiet = ref false

let spec =
  [
    ("--clients", Arg.Set_int clients, "N simulated clients (default 100000)");
    ("--conns", Arg.Set_int conns, "N real subscriber sockets (default 256)");
    ("--slow-readers", Arg.Set_int slow_readers,
     "N subscribers that never read (default 16)");
    ("--archive-conns", Arg.Set_int archive_conns,
     "N concurrent archive pullers (default 4)");
    ("--archive-lookups", Arg.Set_int archive_lookups,
     "N total archive lookups (default 1000)");
    ("--ticks", Arg.Set_int ticks, "N epochs to broadcast (default 50)");
    ("--params", Arg.Set_string params, "NAME parameter set (default mid128)");
    ("--seed", Arg.Set_string seed, "STRING DRBG seed (default loadgen-e13)");
    ("--max-queue", Arg.Set_int max_queue,
     "N server per-connection queue bound, frames (default 64)");
    ("--shards", Arg.Set_int shards, "N server shards (default: core count)");
    ("--verify-sample", Arg.Set_int verify_sample,
     "N single-update verifies to time (default 16)");
    ("--decrypt-sample", Arg.Set_int decrypt_sample,
     "N end-to-end encrypt/decrypt round trips (default 8)");
    ("--json", Arg.Set_string json_path,
     "PATH output table (default BENCH_E13.json; empty = none)");
    ("--append", Arg.Set json_append,
     " append this run as a row of a JSON array at --json PATH");
    ("--unix", Arg.Set_string unix_path,
     "PATH socket path (default: private path under /tmp)");
    ("--backend", Arg.Set_string backend_str,
     "NAME server event backend: auto|select|epoll (default auto)");
    ("--client-tier", Arg.Set_string client_tier,
     "TIER sampled single verifies: full = on-device pairings, thin = \
      blinded delegation to two helper daemons over sockets (default full)");
    ("--quiet", Arg.Set quiet, " deterministic output only (for cram)");
  ]

(* ------------------------------------------------------------- helpers *)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let rss_peak_kb () =
  (* VmHWM: the process's resident-set high-water mark. *)
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          else scan ()
        in
        scan ())
  with _ -> 0

let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_string s) fmt
(* deterministic lines: printed in quiet mode too *)
let pin fmt = Printf.ksprintf print_string fmt

(* ------------------------------------------------------- connection state *)

type role = Subscriber | Slow | Archive

type conn = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  role : role;
  mutable hello : Netmsg.hello option;
  mutable tick_stamp : int; (* sent_at_us of the last Net_tick preamble *)
  mutable last_epoch : int;
  mutable sent_at : int; (* archive: stamp of the in-flight query *)
  mutable replies : int; (* archive: responses received *)
  mutable misses : int;
  mutable alive : bool;
}

let connect path role =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  {
    fd;
    dec = Frame.Decoder.create ();
    role;
    hello = None;
    tick_stamp = 0;
    last_epoch = 0;
    sent_at = 0;
    replies = 0;
    misses = 0;
    alive = true;
  }

let send_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* --------------------------------------------- delegation helper daemons

   The thin-client tier outsources the sampled single verifies: two
   helper daemons, each its own Unix socket, each blindly computing the
   pairings of whatever Delegate queries arrive. They run the honest
   [Delegate.serve] — the adversarial paths live in test_delegate.ml;
   this harness measures the honest protocol over real sockets. *)

let start_helper prms path =
  if Sys.file_exists path then Sys.remove path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 16;
  let serve_client fd =
    let dec = Frame.Decoder.create () in
    let buf = Bytes.create 65536 in
    let rec loop () =
      let n = try Unix.read fd buf 0 (Bytes.length buf) with _ -> 0 in
      if n > 0 then begin
        (match Frame.Decoder.feed dec buf 0 n with
        | Error _ -> ()
        | Ok () ->
            let rec drain () =
              match Frame.Decoder.pop dec with
              | Some p ->
                  (match Netmsg.delegate_query_of_bytes prms p with
                  | Ok q ->
                      let values = Delegate.serve prms q.Netmsg.pairs in
                      send_all fd
                        (Frame.encode
                           (Netmsg.delegate_response_to_bytes prms
                              { Netmsg.response_id = q.Netmsg.query_id; values }))
                  | Error e -> die "helper: undecodable query: %s" e);
                  drain ()
              | None -> ()
            in
            drain ());
        loop ()
      end
    in
    (try loop () with _ -> ());
    try Unix.close fd with _ -> ()
  in
  let accepter =
    Thread.create
      (fun () ->
        try
          while true do
            let fd, _ = Unix.accept lfd in
            ignore (Thread.create serve_client fd)
          done
        with _ -> ())
      ()
  in
  (lfd, accepter)

(* One blocking request/response round trip per transport call — a thin
   client pays two of these per delegated pairing wrap, in sequence,
   which is the honest (unpipelined) cost the E13 row reports. *)
let helper_transport prms fd : Delegate.transport =
  let dec = Frame.Decoder.create () in
  let buf = Bytes.create 65536 in
  let qid = ref 0 in
  fun pairs ->
    incr qid;
    send_all fd
      (Frame.encode
         (Netmsg.delegate_query_to_bytes prms { Netmsg.query_id = !qid; pairs }));
    let rec await () =
      match Frame.Decoder.pop dec with
      | Some p -> (
          match Netmsg.delegate_response_of_bytes prms p with
          | Ok r when r.Netmsg.response_id = !qid -> r.Netmsg.values
          | Ok _ -> await () (* stale id: keep draining *)
          | Error e -> die "helper: undecodable response: %s" e)
      | None ->
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then die "helper connection closed mid-query";
          (match Frame.Decoder.feed dec buf 0 n with
          | Ok () -> ()
          | Error e -> die "helper framing: %s" e);
          await ()
    in
    await ()

(* ------------------------------------------------------------------ main *)

let () =
  Arg.parse spec (fun a -> die "stray argument %S" a) "loadgen [options]";
  let backend =
    match Poller.backend_of_string !backend_str with
    | Ok b -> b
    | Error e -> die "--backend: %s" e
  in
  let effective_backend =
    match backend with
    | Some b -> b
    | None -> if Poller.epoll_available () then Poller.Epoll else Poller.Select
  in
  if effective_backend = Poller.Epoll && not (Poller.epoll_available ()) then
    die "--backend epoll: unavailable on this platform";
  if !conns < 1 then die "--conns must be >= 1";
  if !client_tier <> "full" && !client_tier <> "thin" then
    die "--client-tier must be full or thin";
  (match effective_backend with
  | Poller.Select ->
      (* The shard select loops cap real descriptors at FD_SETSIZE. *)
      if !conns > 900 then
        die "--conns must be <= 900 on the select backend (FD_SETSIZE)";
      if !conns + !slow_readers + !archive_conns > 960 then
        die "total sockets exceed the select/FD_SETSIZE bound"
  | Poller.Epoll ->
      if !conns > 16_000 then die "--conns must be <= 16000";
      (* Both socket ends live in this process: ~2 fds per connection
         plus listeners, pipes, epoll fds and stdio. *)
      let need = (2 * (!conns + !slow_readers + !archive_conns)) + 128 in
      let got = Poller.raise_fd_limit need in
      if got < need then
        die "fd limit %d < %d needed for %d connections (raise ulimit -n)"
          got need !conns);
  let prms =
    match Pairing.by_name !params with
    | Some p -> p
    | None -> die "unknown parameter set %S" !params
  in
  let timeline = Timeline.create ~origin:"utc" ~granularity:1.0 () in
  let path =
    if !unix_path <> "" then !unix_path
    else Filename.temp_file "tre-loadgen" ".sock"
  in
  if Sys.file_exists path then Sys.remove path;
  let cfg =
    {
      (Net_server.default_config prms timeline) with
      Net_server.unix_path = Some path;
      shards = (if !shards > 0 then !shards else Pool.recommended ());
      max_queue_frames = !max_queue;
      backend;
    }
  in
  let rng = Hashing.Drbg.create ~seed:!seed ~personalization:"loadgen" () in
  let srv = Net_server.create cfg rng in
  Net_server.start srv;
  pin "loadgen: %d simulated clients over %d connections (+%d slow, %d archive)\n"
    !clients !conns !slow_readers !archive_conns;

  (* -------- phase 1: subscribe ------------------------------------- *)
  let sub_frame = Frame.encode (Netmsg.subscribe_to_bytes prms) in
  let subs = Array.init !conns (fun _ -> connect path Subscriber) in
  let slows = Array.init !slow_readers (fun _ -> connect path Slow) in
  Array.iter (fun c -> send_all c.fd sub_frame) subs;
  Array.iter (fun c -> send_all c.fd sub_frame) slows;

  (* Shared decode cache: every connection receives the identical frame
     bytes (the encode-once property), so the harness decodes each epoch's
     update exactly once however many connections deliver it. *)
  let updates : (string, Tre.update) Hashtbl.t = Hashtbl.create 256 in
  (* tick->update latency histogram. Scoped to the PACED broadcast phase
     only: the slow-reader burst (phase 3) ticks in a tight loop to force
     eviction, and sampling it would pollute the tail with flood epochs,
     as many as it takes to fill the slow readers' kernel buffers. *)
  let lat_samples = ref [] in
  let measuring = ref true in
  let n_samples = ref 0 in
  let frames_rcvd = ref 0 in
  let server_pub = ref None in

  let on_frame c payload =
    incr frames_rcvd;
    match Codec.peek_kind payload with
    | Ok Codec.Net_hello -> (
        match Netmsg.hello_of_bytes prms payload with
        | Ok h ->
            c.hello <- Some h;
            if !server_pub = None then
              server_pub :=
                Some { Tre.Server.g = h.Netmsg.server_g; sg = h.Netmsg.server_sg }
        | Error e -> die "bad hello: %s" e)
    | Ok Codec.Net_tick -> (
        match Netmsg.tick_of_bytes prms payload with
        | Ok t -> c.tick_stamp <- t.Netmsg.sent_at_us
        | Error e -> die "bad tick: %s" e)
    | Ok Codec.Key_update ->
        let upd =
          match Hashtbl.find_opt updates payload with
          | Some u -> u
          | None -> (
              match Tre.update_of_bytes prms payload with
              | Ok u ->
                  Hashtbl.replace updates payload u;
                  u
              | Error e -> die "bad update: %s" e)
        in
        (match Timeline.epoch_of_label timeline upd.Tre.update_time with
        | Some e -> c.last_epoch <- max c.last_epoch e
        | None -> ());
        if c.role = Archive then
          (* RTT goes to [arch_rtts], reported separately — archive pulls
             are a different measurement than broadcast delivery *)
          c.replies <- c.replies + 1
        else if !measuring && c.tick_stamp > 0 then begin
          lat_samples := float_of_int (now_us () - c.tick_stamp) :: !lat_samples;
          incr n_samples
        end
    | Ok Codec.Net_archive_miss ->
        c.replies <- c.replies + 1;
        c.misses <- c.misses + 1
    | Ok Codec.Net_stats -> () (* handled synchronously below *)
    | Ok k -> die "unexpected frame kind %s" (Codec.kind_label k)
    | Error e -> die "undecodable frame: %s" e
  in

  let rbuf = Bytes.create 65536 in
  let pump_conn c =
    if c.alive then begin
      let n = try Unix.read c.fd rbuf 0 (Bytes.length rbuf) with _ -> 0 in
      if n = 0 then c.alive <- false
      else
        match Frame.Decoder.feed c.dec rbuf 0 n with
        | Error e -> die "framing: %s" e
        | Ok () ->
            let rec drain () =
              match Frame.Decoder.pop c.dec with
              | Some p ->
                  on_frame c p;
                  drain ()
              | None -> ()
            in
            drain ()
    end
  in
  (* The harness's own event loop rides the same Poller abstraction as
     the server, so the client side scales past FD_SETSIZE too: one
     poller per connection group, read interest registered once at
     group creation, dead sockets deregistered as they are found. *)
  let make_pump cs =
    let p = Poller.create () in
    let tbl = Hashtbl.create (2 * Array.length cs) in
    Array.iter
      (fun (c : conn) ->
        Poller.add p c.fd ~read:true ~write:false;
        Hashtbl.replace tbl c.fd c)
      cs;
    (p, tbl)
  in
  let pump_ready (p, tbl) timeout_ms =
    Poller.wait p ~timeout_ms (fun fd ~readable ~writable:_ ->
        if readable then
          match Hashtbl.find_opt tbl fd with
          | Some c ->
              if c.alive then pump_conn c;
              if not c.alive then begin
                Poller.del p fd;
                Hashtbl.remove tbl fd
              end
          | None -> ())
    > 0
  in
  let sub_pump = make_pump subs in
  (* wait for every hello *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while
    Array.exists (fun c -> c.hello = None) subs && Unix.gettimeofday () < deadline
  do
    ignore (pump_ready sub_pump 100)
  done;
  Array.iter (fun c -> if c.hello = None then die "subscriber got no hello") subs;
  pin "subscribed %d connections\n" !conns;

  (* -------- phase 2: measured broadcast ----------------------------- *)
  let epoch = ref 0 in
  let all_caught_up e = Array.for_all (fun c -> c.last_epoch >= e) subs in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to !ticks do
    incr epoch;
    Net_server.tick srv !epoch;
    let deadline = Unix.gettimeofday () +. 60.0 in
    while (not (all_caught_up !epoch)) && Unix.gettimeofday () < deadline do
      ignore (pump_ready sub_pump 50)
    done;
    if not (all_caught_up !epoch) then die "epoch %d never reached all conns" !epoch
  done;
  let bcast_s = Unix.gettimeofday () -. t0 in
  (* give in-flight final-epoch updates a moment to land in the histogram,
     then stop sampling before the burst phase *)
  while pump_ready sub_pump 0 do () done;
  measuring := false;
  let main_epochs = !epoch in
  pin "broadcast %d epochs to all connections\n" main_epochs;
  say "  sustained: %.0f updates/s, %.0f real frames/s, %.3g client deliveries/s\n"
    (float_of_int main_epochs /. bcast_s)
    (float_of_int (main_epochs * !conns) /. bcast_s)
    (float_of_int (main_epochs * !clients) /. bcast_s);

  (* -------- phase 3: slow-reader burst ------------------------------ *)
  let burst_epochs = ref 0 in
  let burst_cap = 50_000 in
  if !slow_readers > 0 then begin
    let evicted () = (Net_server.stats srv).Netmsg.slow_disconnects in
    while evicted () < !slow_readers && !burst_epochs < burst_cap do
      incr epoch;
      incr burst_epochs;
      Net_server.tick srv !epoch;
      (* Gate each burst tick on the honest subscribers having seen it.
         [tick] is asynchronous — shard domains drain their broadcast
         inboxes on their own clock — so an unthrottled burst loop can
         flood ANY reader's bounded queue once ticks get cheap relative
         to shard scheduling (a drain-every-16-ticks cadence held only
         as long as the pairing kernels kept ticks slow). Only the
         deliberately-unread slow conns may back up, or the eviction
         count this phase pins picks up honest readers. *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      while (not (all_caught_up !epoch)) && Unix.gettimeofday () < deadline do
        ignore (pump_ready sub_pump 1)
      done
    done;
    while pump_ready sub_pump 0 do () done;
    if evicted () < !slow_readers then
      die "burst cap hit with %d/%d slow readers evicted" (evicted ())
        !slow_readers;
    pin "slow readers evicted %d/%d under bounded queues\n" (evicted ())
      !slow_readers
  end;

  (* -------- phase 4: archive ---------------------------------------- *)
  let arch_t0 = Unix.gettimeofday () in
  let arch_rtts = ref [] in
  let arch_done = ref 0 in
  let archives = Array.init !archive_conns (fun _ -> connect path Archive) in
  let arch_pump = make_pump archives in
  let next_query = ref 0 in
  let send_query (c : conn) =
    if !next_query < !archive_lookups then begin
      incr next_query;
      let e = 1 + (!next_query mod main_epochs) in
      let q = Netmsg.archive_query_to_bytes prms (Timeline.label timeline e) in
      c.sent_at <- now_us ();
      send_all c.fd (Frame.encode q)
    end
  in
  if !archive_conns > 0 && !archive_lookups > 0 then begin
    let hits0 = (Net_server.stats srv).Netmsg.archive_hits in
    Array.iter send_query archives;
    let deadline = Unix.gettimeofday () +. 60.0 in
    let served = Array.map (fun (c : conn) -> c.replies) archives in
    while !arch_done < !archive_lookups && Unix.gettimeofday () < deadline do
      ignore (pump_ready arch_pump 50);
      Array.iteri
        (fun i c ->
          while c.replies > served.(i) do
            served.(i) <- served.(i) + 1;
            incr arch_done;
            arch_rtts := float_of_int (now_us () - c.sent_at) :: !arch_rtts;
            send_query c
          done)
        archives
    done;
    if !arch_done < !archive_lookups then
      die "archive phase timed out at %d/%d" !arch_done !archive_lookups;
    (* negative lookups: a future epoch and a foreign label, both refused *)
    let c = archives.(0) in
    send_all c.fd
      (Frame.encode
         (Netmsg.archive_query_to_bytes prms (Timeline.label timeline (!epoch + 64))));
    send_all c.fd
      (Frame.encode (Netmsg.archive_query_to_bytes prms "mars#1"));
    let deadline = Unix.gettimeofday () +. 10.0 in
    while c.misses < 2 && Unix.gettimeofday () < deadline do
      ignore (pump_ready arch_pump 50)
    done;
    if c.misses <> 2 then die "archive refusals missing (%d/2)" c.misses;
    let hits = (Net_server.stats srv).Netmsg.archive_hits - hits0 in
    pin "archive served %d lookups (%d hits), refused future + foreign labels\n"
      !arch_done hits
  end;
  let arch_s = Unix.gettimeofday () -. arch_t0 in

  (* -------- phase 5: sampled client-side work ----------------------- *)
  let pub = match !server_pub with Some p -> p | None -> die "no hello seen" in
  let all_updates = Hashtbl.fold (fun _ u acc -> u :: acc) updates [] in
  let verifier = Tre.Verifier.create prms pub in
  let vb_t0 = Unix.gettimeofday () in
  if not (Tre.Verifier.verify_updates prms verifier all_updates) then
    die "batch verification failed";
  let vb_s = Unix.gettimeofday () -. vb_t0 in
  let single_n = min !verify_sample (List.length all_updates) in
  let thin = !client_tier = "thin" in
  (* Thin tier: two helper daemons come up on their own sockets and the
     sampled singles go through blinded delegation (hardened check)
     instead of on-device pairings — the same verdicts, no Miller loop
     on the client. *)
  let helpers =
    if not thin then None
    else begin
      let h1 = start_helper prms (path ^ ".h1") in
      let h2 = start_helper prms (path ^ ".h2") in
      let c1 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect c1 (Unix.ADDR_UNIX (path ^ ".h1"));
      let c2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect c2 (Unix.ADDR_UNIX (path ^ ".h2"));
      pin "thin tier: 2 delegation helpers up, hardened check active\n";
      Some (h1, h2, c1, c2, helper_transport prms c1, helper_transport prms c2)
    end
  in
  let vs_t0 = Unix.gettimeofday () in
  List.iteri
    (fun i u ->
      if i < single_n then
        let ok =
          match helpers with
          | Some (_, _, _, _, t1, t2) ->
              Tre.Verifier.verify_update_delegated prms verifier rng ~helper1:t1
                ~helper2:t2 u
          | None -> Tre.verify_update_with prms verifier u
        in
        if not ok then die "single verification failed")
    all_updates;
  let vs_s = Unix.gettimeofday () -. vs_t0 in
  if thin then
    pin "verified every distinct update (one BGR batch + %d delegated singles)\n"
      single_n
  else pin "verified every distinct update (one BGR batch + %d singles)\n" single_n;
  say "  batch of %d updates in %.3f ms\n" (List.length all_updates)
    (vb_s *. 1000.0);

  let dec_n = min !decrypt_sample main_epochs in
  let dec_s =
    if dec_n = 0 then 0.0
    else begin
      let usec, upub = Tre.User.keygen prms pub rng in
      let enc = Tre.Encryptor.create prms pub upub in
      let by_label = Hashtbl.create 16 in
      List.iter (fun u -> Hashtbl.replace by_label u.Tre.update_time u) all_updates;
      let pairs =
        List.init dec_n (fun i ->
            let lbl = Timeline.label timeline (1 + (i mod main_epochs)) in
            let msg = Printf.sprintf "E13 message %d" i in
            (msg, Tre.Encryptor.encrypt enc ~release_time:lbl rng msg, lbl))
      in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun (msg, ct, lbl) ->
          let u = Hashtbl.find by_label lbl in
          if Tre.decrypt prms usec u ct <> msg then die "decrypt mismatch")
        pairs;
      let dt = Unix.gettimeofday () -. t0 in
      pin "decrypted %d ciphertexts end-to-end\n" dec_n;
      dt
    end
  in

  (* -------- phase 6: stats over the wire, assertions, report --------- *)
  let stat_conn = connect path Archive in
  send_all stat_conn.fd (Frame.encode (Netmsg.stats_query_to_bytes prms));
  let wire_stats = ref None in
  (* after thousands of subscriber sockets this fd is far above
     FD_SETSIZE, so even a one-fd wait must go through the poller *)
  let stat_poll = Poller.create () in
  Poller.add stat_poll stat_conn.fd ~read:true ~write:false;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while !wire_stats = None && Unix.gettimeofday () < deadline do
    let readable =
      let r = ref false in
      ignore
        (Poller.wait stat_poll ~timeout_ms:100 (fun _ ~readable ~writable:_ ->
             if readable then r := true));
      !r
    in
    if readable then begin
      let n = Unix.read stat_conn.fd rbuf 0 (Bytes.length rbuf) in
      if n = 0 then die "stats connection closed"
      else
        match Frame.Decoder.feed stat_conn.dec rbuf 0 n with
        | Error e -> die "framing: %s" e
        | Ok () -> (
            match Frame.Decoder.pop stat_conn.dec with
            | Some p -> (
                match Netmsg.stats_of_bytes prms p with
                | Ok s -> wire_stats := Some s
                | Error e -> die "bad stats: %s" e)
            | None -> ())
    end
  done;
  Poller.close stat_poll;
  let st =
    match !wire_stats with Some s -> s | None -> die "no stats reply"
  in
  let epochs_total = !epoch in
  if st.Netmsg.updates_encoded <> epochs_total then
    die "encode-once violated: %d frames built for %d epochs"
      st.Netmsg.updates_encoded epochs_total;
  (* A load run sends only well-formed traffic: any protocol error is a
     server or harness bug, not noise. CI greps the JSON for this too. *)
  if st.Netmsg.protocol_errors > 0 then
    die "server counted %d protocol errors on clean traffic"
      st.Netmsg.protocol_errors;
  if List.fold_left ( + ) 0 st.Netmsg.shard_conns < 0 then
    die "negative shard connection count";
  (* Client-side cross-check: every connection received byte-identical
     frames, so the distinct-frame count equals the epochs observed (some
     burst-phase frames may still be in flight at drain time). *)
  let distinct = Hashtbl.length updates in
  if distinct < main_epochs || distinct > epochs_total then
    die "distinct update frames %d outside [%d, %d]" distinct main_epochs
      epochs_total;
  pin "encode-once: one frame per epoch, byte-identical across %d subscribers\n"
    (!conns + !slow_readers);
  say "  %d frames built for %d epochs; harness received %d update copies\n"
    st.Netmsg.updates_encoded epochs_total !frames_rcvd;

  let lat = Array.of_list !lat_samples in
  Array.sort compare lat;
  let ms v = v /. 1000.0 in
  let p50 = ms (percentile lat 0.50)
  and p99 = ms (percentile lat 0.99)
  and p999 = ms (percentile lat 0.999) in
  let rtts = Array.of_list !arch_rtts in
  Array.sort compare rtts;
  let qpeak = st.Netmsg.queue_bytes_peak in
  let frame_ref = Hashtbl.fold (fun k _ m -> max m (String.length k + 4)) updates 0 in
  let queue_bound = (!conns + !slow_readers) * !max_queue * (frame_ref + 64) in
  say "  latency (tick->update, %d samples, each standing for ~%d clients): \
       p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms\n"
    (Array.length lat)
    (max 1 (!clients / max 1 !conns))
    p50 p99 p999;
  say "  archive: %.0f lookups/s, rtt p50 %.3f ms\n"
    (float_of_int !arch_done /. arch_s)
    (ms (percentile rtts 0.50));
  say "  back-pressure: queue peak %d B (analytic ceiling %d B), RSS peak %d kB\n"
    qpeak queue_bound (rss_peak_kb ());
  say "  syscalls: %d sends (%.2f frames/send, %.1f sends/epoch), %d poll wakeups\n"
    st.Netmsg.send_syscalls
    (float_of_int st.Netmsg.frames_sent
    /. float_of_int (max 1 st.Netmsg.send_syscalls))
    (float_of_int st.Netmsg.send_syscalls /. float_of_int epochs_total)
    st.Netmsg.poll_wakeups;

  if !json_path <> "" then begin
    let b = Buffer.create 2048 in
    let field k fmt = Buffer.add_string b (Printf.sprintf "  %S: " k); Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_string b ",\n") fmt in
    Buffer.add_string b "{\n";
    field "experiment" "%S" "E13";
    field "params" "%S" !params;
    field "backend" "%S" (Poller.backend_name effective_backend);
    field "clients_simulated" "%d" !clients;
    field "real_connections" "%d" !conns;
    field "clients_per_connection" "%d" (!clients / max 1 !conns);
    field "slow_readers" "%d" !slow_readers;
    field "epochs_measured" "%d" main_epochs;
    field "epochs_total" "%d" epochs_total;
    field "updates_per_sec" "%.1f" (float_of_int main_epochs /. bcast_s);
    field "real_frames_per_sec" "%.1f"
      (float_of_int (main_epochs * !conns) /. bcast_s);
    field "client_deliveries_per_sec" "%.1f"
      (float_of_int (main_epochs * !clients) /. bcast_s);
    field "latency_ms_p50" "%.3f" p50;
    field "latency_ms_p99" "%.3f" p99;
    field "latency_ms_p999" "%.3f" p999;
    field "latency_samples" "%d" (Array.length lat);
    field "latency_note" "%S"
      "one sample per connection per epoch; each stands for clients_per_connection simulated clients sharing the socket";
    field "archive_lookups" "%d" !arch_done;
    field "archive_lookups_per_sec" "%.1f" (float_of_int !arch_done /. arch_s);
    field "archive_rtt_ms_p50" "%.3f" (ms (percentile rtts 0.50));
    field "archive_rtt_ms_p99" "%.3f" (ms (percentile rtts 0.99));
    field "verify_batch_size" "%d" (List.length all_updates);
    field "verify_batch_ms" "%.3f" (vb_s *. 1000.0);
    field "verify_batch_us_per_update" "%.1f"
      (vb_s *. 1e6 /. float_of_int (max 1 (List.length all_updates)));
    field "client_tier" "%S" !client_tier;
    field "verify_single_us" "%.1f" (vs_s *. 1e6 /. float_of_int (max 1 single_n));
    field "decrypt_sample" "%d" dec_n;
    field "decrypt_ms_each" "%.3f" (dec_s *. 1000.0 /. float_of_int (max 1 dec_n));
    field "updates_encoded" "%d" st.Netmsg.updates_encoded;
    field "encode_once" "%b" (st.Netmsg.updates_encoded = epochs_total);
    field "slow_disconnects" "%d" st.Netmsg.slow_disconnects;
    field "queue_bytes_peak" "%d" qpeak;
    field "queue_bytes_ceiling" "%d" queue_bound;
    field "protocol_errors" "%d" st.Netmsg.protocol_errors;
    field "bytes_sent" "%d" st.Netmsg.bytes_sent;
    field "send_syscalls" "%d" st.Netmsg.send_syscalls;
    field "send_syscalls_per_epoch" "%.1f"
      (float_of_int st.Netmsg.send_syscalls /. float_of_int epochs_total);
    field "frames_per_send_syscall" "%.2f"
      (float_of_int st.Netmsg.frames_sent
      /. float_of_int (max 1 st.Netmsg.send_syscalls));
    field "poll_wakeups" "%d" st.Netmsg.poll_wakeups;
    field "rss_peak_kb" "%d" (rss_peak_kb ());
    Buffer.add_string b (Printf.sprintf "  %S: %d\n}\n" "shards" cfg.Net_server.shards);
    let obj = Buffer.contents b in
    let out =
      if not !json_append then obj
      else begin
        (* Accumulate runs as a JSON array so one file can hold the
           select baseline next to the epoll scaling rows. *)
        let existing =
          if Sys.file_exists !json_path then begin
            let ic = open_in_bin !json_path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          end
          else ""
        in
        let trimmed = String.trim existing in
        if trimmed = "" then "[\n" ^ obj ^ "]\n"
        else if trimmed.[String.length trimmed - 1] = ']' then
          String.sub trimmed 0 (String.length trimmed - 1) ^ ",\n" ^ obj ^ "]\n"
        else die "--append: %s is not a JSON array" !json_path
      end
    in
    let oc = open_out !json_path in
    output_string oc out;
    close_out oc;
    say "  wrote %s\n" !json_path
  end;

  Array.iter (fun c -> try Unix.close c.fd with _ -> ()) subs;
  Array.iter (fun c -> try Unix.close c.fd with _ -> ()) slows;
  Array.iter (fun (c : conn) -> try Unix.close c.fd with _ -> ()) archives;
  (match helpers with
  | Some ((l1, _), (l2, _), c1, c2, _, _) ->
      List.iter (fun fd -> try Unix.close fd with _ -> ()) [ c1; c2; l1; l2 ];
      List.iter
        (fun p -> try Sys.remove p with _ -> ())
        [ path ^ ".h1"; path ^ ".h2" ]
  | None -> ());
  (try Unix.close stat_conn.fd with _ -> ());
  Net_server.stop srv;
  (try Sys.remove path with _ -> ());
  pin "clean shutdown\n"
