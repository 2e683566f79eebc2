(* The socket daemon: framing, protocol, fan-out, back-pressure.

   Everything here runs against a REAL Net_server over a Unix-domain
   socket (or a raw socketpair for the framing-attack cases) — no
   simulated network. The properties under test are the ones the load
   harness relies on: length-prefixed framing is strict in both
   directions, the broadcast path encodes each epoch exactly once and
   delivers byte-identical frames to every subscriber, the archive
   endpoint enforces §3's future-refusal, and a reader slower than the
   broadcast rate is evicted instead of growing server memory.

   Every daemon-facing test is parameterized by the {!Poller} backend
   and run against both select and epoll (the latter skipped as a no-op
   where the platform lacks it), so the two event loops stay
   behaviourally interchangeable — including the adversarial framing
   suite and slow-reader eviction. *)

let prms =
  match Pairing.by_name "toy64" with
  | Some p -> p
  | None -> failwith "toy64 params missing"

(* ------------------------------------------------------------ framing *)

let test_frame_roundtrip () =
  let d = Frame.Decoder.create () in
  let payloads = [ ""; "x"; String.make 300 'a'; "last" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  (match Frame.Decoder.feed_string d wire with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed: %s" e);
  List.iter
    (fun expect ->
      match Frame.Decoder.pop d with
      | Some got -> Alcotest.(check string) "frame payload" expect got
      | None -> Alcotest.fail "missing frame")
    payloads;
  Alcotest.(check bool) "drained" true (Frame.Decoder.pop d = None);
  Alcotest.(check int) "no residue" 0 (Frame.Decoder.buffered d)

let test_frame_byte_by_byte () =
  (* The decoder is incremental: one byte per feed must produce exactly
     the same frames as one big feed. *)
  let d = Frame.Decoder.create () in
  let payloads = [ "alpha"; ""; "bravo-bravo" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let got = ref [] in
  String.iter
    (fun ch ->
      (match Frame.Decoder.feed_string d (String.make 1 ch) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "feed: %s" e);
      let rec drain () =
        match Frame.Decoder.pop d with
        | Some p ->
            got := p :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "incremental = whole" payloads (List.rev !got)

let test_frame_oversized_rejected () =
  (* A declared length above max_payload is fatal the moment the prefix
     is visible — before any payload is buffered. *)
  let d = Frame.Decoder.create ~max_payload:64 () in
  let b = Buffer.create 8 in
  Buffer.add_string b "\x00\x00\x01\x00";
  (* 256 > 64 *)
  (match Frame.Decoder.feed_string d (Buffer.contents b) with
  | Ok () -> Alcotest.fail "oversized prefix accepted"
  | Error _ -> ());
  Alcotest.(check bool) "error latched" true (Frame.Decoder.error d <> None);
  Alcotest.(check bool) "no frames after error" true (Frame.Decoder.pop d = None)

let test_frame_oversized_after_valid () =
  (* The oversized prefix can hide behind a valid frame in the same
     chunk; pop must surface the good frame, then latch the error. *)
  let d = Frame.Decoder.create ~max_payload:64 () in
  let wire = Frame.encode "ok" ^ "\xFF\xFF\xFF\xFF" in
  (match Frame.Decoder.feed_string d wire with
  | Ok () -> () (* error may surface now or at pop; either is fine *)
  | Error _ -> ());
  (match Frame.Decoder.pop d with
  | Some p -> Alcotest.(check string) "good frame first" "ok" p
  | None -> Alcotest.fail "good frame lost");
  Alcotest.(check bool) "pop stops" true (Frame.Decoder.pop d = None);
  Alcotest.(check bool) "error visible" true (Frame.Decoder.error d <> None)

let test_frame_truncation_visible () =
  let d = Frame.Decoder.create () in
  (* 2 of 4 prefix bytes *)
  (match Frame.Decoder.feed_string d "\x00\x00" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed: %s" e);
  Alcotest.(check bool) "no frame yet" true (Frame.Decoder.pop d = None);
  Alcotest.(check int) "truncated prefix buffered" 2 (Frame.Decoder.buffered d);
  let d = Frame.Decoder.create () in
  let full = Frame.encode "abcdef" in
  (match
     Frame.Decoder.feed_string d (String.sub full 0 (String.length full - 2))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed: %s" e);
  Alcotest.(check bool) "incomplete payload" true (Frame.Decoder.pop d = None);
  Alcotest.(check bool) "truncation visible at EOF" true
    (Frame.Decoder.buffered d > 0)

(* ----------------------------------------------------- daemon harness *)

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/tre-test-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

let with_server ?(shards = 1) ?(max_queue = 64) ?(ticks_origin = "utc") ?udp_dest ?backend
    f =
  let timeline = Timeline.create ~origin:ticks_origin ~granularity:1.0 () in
  let path = fresh_path () in
  let cfg =
    {
      (Net_server.default_config prms timeline) with
      Net_server.unix_path = Some path;
      shards;
      max_queue_frames = max_queue;
      backend;
      udp_dest;
    }
  in
  let rng = Hashing.Drbg.create ~seed:"test-net" ~personalization:"daemon" () in
  let srv = Net_server.create cfg rng in
  Net_server.start srv;
  Fun.protect
    ~finally:(fun () -> Net_server.stop srv)
    (fun () -> f srv path timeline)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

type peer = { fd : Unix.file_descr; dec : Frame.Decoder.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; dec = Frame.Decoder.create () }

(* Read frames until [n] are available or ~2s pass; EOF is reported as
   fewer frames than asked. *)
let read_frames ?(timeout = 2.0) peer n =
  let buf = Bytes.create 4096 in
  let frames = ref [] in
  let count = ref 0 in
  let deadline = Unix.gettimeofday () +. timeout in
  let eof = ref false in
  while (not !eof) && !count < n && Unix.gettimeofday () < deadline do
    let readable, _, _ = Unix.select [ peer.fd ] [] [] 0.1 in
    if readable <> [] then begin
      let r = Unix.read peer.fd buf 0 (Bytes.length buf) in
      if r = 0 then eof := true
      else
        match Frame.Decoder.feed peer.dec buf 0 r with
        | Error e -> Alcotest.failf "client framing: %s" e
        | Ok () ->
            let rec drain () =
              match Frame.Decoder.pop peer.dec with
              | Some p ->
                  frames := p :: !frames;
                  incr count;
                  drain ()
              | None -> ()
            in
            drain ()
    end
  done;
  List.rev !frames

let expect_eof ?(timeout = 2.0) peer =
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. timeout in
  let eof = ref false in
  while (not !eof) && Unix.gettimeofday () < deadline do
    let readable, _, _ = Unix.select [ peer.fd ] [] [] 0.1 in
    if readable <> [] then
      match Unix.read peer.fd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | _ -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          eof := true
  done;
  Alcotest.(check bool) "server disconnected the peer" true !eof

let subscribe peer =
  send_all peer.fd (Frame.encode (Netmsg.subscribe_to_bytes prms));
  match read_frames peer 1 with
  | [ p ] -> (
      match Netmsg.hello_of_bytes prms p with
      | Ok h -> h
      | Error e -> Alcotest.failf "bad hello: %s" e)
  | fs -> Alcotest.failf "expected hello, got %d frames" (List.length fs)

(* ------------------------------------------------------ daemon tests *)

let test_subscribe_tick_verify backend () =
  with_server ~backend (fun srv path timeline ->
      let c = connect path in
      let h = subscribe c in
      Alcotest.(check string) "hello origin" "utc" h.Netmsg.origin;
      Alcotest.(check int) "hello granularity" 1_000_000 h.Netmsg.granularity_us;
      Alcotest.(check int) "no epochs yet" 0 h.Netmsg.current_epoch;
      let pub = Net_server.public srv in
      Alcotest.(check bool) "hello carries the server key" true
        (Curve.equal h.Netmsg.server_g pub.Tre.Server.g
        && Curve.equal h.Netmsg.server_sg pub.Tre.Server.sg);
      Net_server.tick srv 1;
      (match read_frames c 2 with
      | [ t; u ] -> (
          (match Netmsg.tick_of_bytes prms t with
          | Ok tk ->
              Alcotest.(check string) "tick label" (Timeline.label timeline 1)
                tk.Netmsg.tick_label;
              Alcotest.(check bool) "tick stamped" true (tk.Netmsg.sent_at_us > 0)
          | Error e -> Alcotest.failf "bad tick: %s" e);
          match Tre.update_of_bytes prms u with
          | Ok upd ->
              Alcotest.(check string) "update label" (Timeline.label timeline 1)
                upd.Tre.update_time;
              Alcotest.(check bool) "update verifies" true
                (Tre.verify_update prms pub upd)
          | Error e -> Alcotest.failf "bad update: %s" e)
      | fs -> Alcotest.failf "expected tick+update, got %d" (List.length fs));
      Alcotest.(check int) "watermark raised" 1 (Net_server.current_epoch srv);
      Unix.close c.fd)

let test_udp_tick_fanout backend () =
  (* The tick and the update frame leave as ONE datagram to [udp_dest];
     the update in it is the epoch's one encoding, the bytes the archive
     serves. *)
  let udp = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close udp)
    (fun () ->
      Unix.bind udp (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname udp with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> Alcotest.fail "UDP socket without a port"
      in
      with_server ~udp_dest:("127.0.0.1", port) ~backend (fun srv path timeline ->
          Net_server.tick srv 1;
          let readable, _, _ = Unix.select [ udp ] [] [] 2.0 in
          if readable = [] then Alcotest.fail "no datagram within 2s";
          let buf = Bytes.create 65536 in
          let n, _ = Unix.recvfrom udp buf 0 (Bytes.length buf) [] in
          let dec = Frame.Decoder.create () in
          (match Frame.Decoder.feed dec buf 0 n with
          | Ok () -> ()
          | Error e -> Alcotest.failf "datagram framing: %s" e);
          let tick, upd_bytes =
            match (Frame.Decoder.pop dec, Frame.Decoder.pop dec, Frame.Decoder.pop dec) with
            | Some t, Some u, None -> (t, u)
            | _ -> Alcotest.fail "expected exactly tick + update frames"
          in
          Alcotest.(check int) "datagram holds whole frames" 0 (Frame.Decoder.buffered dec);
          let label = Timeline.label timeline 1 in
          (match Netmsg.tick_of_bytes prms tick with
          | Ok tk -> Alcotest.(check string) "tick label" label tk.Netmsg.tick_label
          | Error e -> Alcotest.failf "bad tick: %s" e);
          (match Tre.update_of_bytes prms upd_bytes with
          | Ok upd ->
              Alcotest.(check string) "update label" label upd.Tre.update_time;
              Alcotest.(check bool) "update verifies" true
                (Tre.verify_update prms (Net_server.public srv) upd)
          | Error e -> Alcotest.failf "bad update: %s" e);
          let c = connect path in
          send_all c.fd (Frame.encode (Netmsg.archive_query_to_bytes prms label));
          (match read_frames c 1 with
          | [ archived ] -> Alcotest.(check string) "datagram = archive bytes" archived upd_bytes
          | fs -> Alcotest.failf "expected 1 archive reply, got %d" (List.length fs));
          Unix.close c.fd))

let test_encode_once_fanout backend () =
  with_server ~backend (fun srv path _ ->
      let peers = List.init 8 (fun _ -> connect path) in
      List.iter (fun c -> ignore (subscribe c)) peers;
      Net_server.tick srv 1;
      Net_server.tick srv 2;
      let frames =
        List.map
          (fun c ->
            match read_frames c 4 with
            | [ _; u1; _; u2 ] -> (u1, u2)
            | fs -> Alcotest.failf "expected 4 frames, got %d" (List.length fs))
          peers
      in
      (* byte-identical across subscribers: the same string was fanned out *)
      let u1, u2 = List.hd frames in
      List.iter
        (fun (a, b) ->
          Alcotest.(check string) "epoch 1 identical" u1 a;
          Alcotest.(check string) "epoch 2 identical" u2 b)
        frames;
      let st = Net_server.stats srv in
      Alcotest.(check int) "encoded once per epoch, 8 subscribers" 2
        st.Netmsg.updates_encoded;
      Alcotest.(check int) "subscribers" 8 st.Netmsg.subscribers;
      List.iter (fun c -> Unix.close c.fd) peers)

let test_shards_spread backend () =
  (* Shard 0 accepts for every shard and deals each connection to the
     one with the fewest; every shard then serves the broadcast. *)
  with_server ~shards:3 ~backend (fun srv path timeline ->
      let peers = List.init 6 (fun _ -> connect path) in
      List.iter (fun c -> ignore (subscribe c)) peers;
      Alcotest.(check (list int)) "two connections per shard" [ 2; 2; 2 ]
        (Net_server.stats srv).Netmsg.shard_conns;
      Net_server.tick srv 1;
      let label = Timeline.label timeline 1 in
      List.iter
        (fun c ->
          (match read_frames c 2 with
          | [ t; u ] -> (
              (match Netmsg.tick_of_bytes prms t with
              | Ok tk -> Alcotest.(check string) "tick label" label tk.Netmsg.tick_label
              | Error e -> Alcotest.failf "bad tick: %s" e);
              match Tre.update_of_bytes prms u with
              | Ok upd ->
                  Alcotest.(check string) "update label" label upd.Tre.update_time;
                  Alcotest.(check bool) "update verifies" true
                    (Tre.verify_update prms (Net_server.public srv) upd)
              | Error e -> Alcotest.failf "bad update: %s" e)
          | fs -> Alcotest.failf "expected tick+update, got %d" (List.length fs));
          Unix.close c.fd)
        peers)

let test_archive_endpoint backend () =
  with_server ~backend (fun srv path timeline ->
      let sub = connect path in
      ignore (subscribe sub);
      Net_server.tick srv 1;
      Net_server.tick srv 2;
      let broadcast2 =
        match read_frames sub 4 with
        | [ _; _; _; u2 ] -> u2
        | fs -> Alcotest.failf "expected 4 frames, got %d" (List.length fs)
      in
      let c = connect path in
      let query lbl =
        send_all c.fd (Frame.encode (Netmsg.archive_query_to_bytes prms lbl));
        match read_frames c 1 with
        | [ p ] -> p
        | fs -> Alcotest.failf "expected 1 reply, got %d" (List.length fs)
      in
      (* hit: byte-identical to the broadcast frame (the same cache) *)
      let got = query (Timeline.label timeline 2) in
      Alcotest.(check string) "archive = broadcast bytes" broadcast2 got;
      (* future epoch: refused, never served (§3) *)
      (match Netmsg.archive_miss_of_bytes prms (query (Timeline.label timeline 9)) with
      | Ok (_, Netmsg.Future_refused) -> ()
      | Ok (_, Netmsg.Unknown_label) -> Alcotest.fail "future mislabeled"
      | Error e -> Alcotest.failf "expected miss, got: %s" e);
      (* foreign label: unknown *)
      (match Netmsg.archive_miss_of_bytes prms (query "mars#1") with
      | Ok (_, Netmsg.Unknown_label) -> ()
      | Ok (_, Netmsg.Future_refused) -> Alcotest.fail "foreign mislabeled"
      | Error e -> Alcotest.failf "expected miss, got: %s" e);
      let st = Net_server.stats srv in
      Alcotest.(check int) "one hit" 1 st.Netmsg.archive_hits;
      Alcotest.(check int) "two misses" 2 st.Netmsg.archive_misses;
      Unix.close c.fd;
      Unix.close sub.fd)

let test_archive_non_canonical_label backend () =
  (* "utc#02" reads as epoch 2 but is not its label: a miss, not the
     update for "utc#2". *)
  with_server ~backend (fun srv path timeline ->
      Net_server.tick srv 1;
      Net_server.tick srv 2;
      let c = connect path in
      let lbl = Timeline.origin timeline ^ "#02" in
      send_all c.fd (Frame.encode (Netmsg.archive_query_to_bytes prms lbl));
      (match read_frames c 1 with
      | [ p ] -> (
          match Netmsg.archive_miss_of_bytes prms p with
          | Ok (_, Netmsg.Unknown_label) -> ()
          | Ok (_, Netmsg.Future_refused) -> Alcotest.failf "%s refused as future" lbl
          | Error e -> Alcotest.failf "%s not a miss: %s" lbl e)
      | fs -> Alcotest.failf "expected 1 reply, got %d" (List.length fs));
      Alcotest.(check int) "no hit" 0 (Net_server.stats srv).Netmsg.archive_hits;
      Unix.close c.fd)

let test_backpressure_evicts_slow_reader backend () =
  (* A tiny queue bound plus a reader that never reads: the broadcast
     loop must evict it (bounded memory) while a normal reader keeps
     receiving every epoch. *)
  with_server ~max_queue:4 ~backend (fun srv path _ ->
      let slow = connect path in
      send_all slow.fd (Frame.encode (Netmsg.subscribe_to_bytes prms));
      let good = connect path in
      ignore (subscribe good);
      (* Fill the kernel socket buffer AND the 4-frame queue. *)
      let evicted = ref false in
      let epoch = ref 0 in
      while (not !evicted) && !epoch < 50_000 do
        incr epoch;
        Net_server.tick srv !epoch;
        ignore (read_frames ~timeout:0.01 good 2);
        evicted := (Net_server.stats srv).Netmsg.slow_disconnects >= 1
      done;
      Alcotest.(check bool) "slow reader evicted" true !evicted;
      (* the good reader is unaffected: it can still receive the next epoch *)
      incr epoch;
      Net_server.tick srv !epoch;
      let saw_update = ref false in
      let deadline = Unix.gettimeofday () +. 2.0 in
      while (not !saw_update) && Unix.gettimeofday () < deadline do
        List.iter
          (fun p ->
            match Codec.peek_kind p with
            | Ok Codec.Key_update -> saw_update := true
            | _ -> ())
          (read_frames ~timeout:0.1 good 1)
      done;
      Alcotest.(check bool) "normal reader still served" true !saw_update;
      expect_eof slow;
      Unix.close slow.fd;
      Unix.close good.fd)

(* --------------------------------------------- adversarial framing *)

let test_attack_truncated_prefix backend () =
  with_server ~backend (fun srv path _ ->
      let c = connect path in
      send_all c.fd "\x00\x00";
      (* half a length prefix, then hang up mid-frame *)
      Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
      expect_eof c;
      let st = Net_server.stats srv in
      Alcotest.(check int) "counted as protocol error" 1
        st.Netmsg.protocol_errors;
      Unix.close c.fd)

let test_attack_oversized_length backend () =
  with_server ~backend (fun srv path _ ->
      let c = connect path in
      (* declared length 0xFFFFFFFF: fatal on sight, nothing buffered *)
      send_all c.fd "\xFF\xFF\xFF\xFF";
      expect_eof c;
      let st = Net_server.stats srv in
      Alcotest.(check int) "protocol error" 1 st.Netmsg.protocol_errors;
      Alcotest.(check int) "no queue growth" 0 st.Netmsg.queue_bytes;
      Unix.close c.fd)

let test_attack_interleaved_partial_frames backend () =
  (* Dribbling valid frames one byte at a time must WORK (the decoder is
     incremental); the attack only wastes the attacker's time. *)
  with_server ~backend (fun srv path _ ->
      let c = connect path in
      let wire = Frame.encode (Netmsg.subscribe_to_bytes prms) in
      String.iter
        (fun ch ->
          send_all c.fd (String.make 1 ch);
          ignore (Unix.select [] [] [] 0.001))
        wire;
      (match read_frames c 1 with
      | [ p ] -> (
          match Netmsg.hello_of_bytes prms p with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "bad hello: %s" e)
      | fs -> Alcotest.failf "expected hello, got %d" (List.length fs));
      let st = Net_server.stats srv in
      Alcotest.(check int) "no protocol error" 0 st.Netmsg.protocol_errors;
      Unix.close c.fd)

let test_attack_kind_confusion backend () =
  (* A well-formed codec object of the WRONG kind — a Key_update pushed
     at the server, a client-bound Net_hello, a Net_stats reply — must
     disconnect, not confuse the dispatcher. *)
  with_server ~backend (fun srv path timeline ->
      let pub = Net_server.public srv in
      let attacks =
        [
          (* a valid Key_update (clients receive these, never send them) *)
          (let rng = Hashing.Drbg.create ~seed:"attacker" () in
           let sec, _ = Tre.Server.keygen prms rng in
           Tre.update_to_bytes prms
             (Tre.issue_update prms sec (Timeline.label timeline 1)));
          (* a server-to-client hello *)
          Netmsg.hello_to_bytes prms
            {
              Netmsg.origin = "utc";
              granularity_us = 1_000_000;
              current_epoch = 0;
              server_g = pub.Tre.Server.g;
              server_sg = pub.Tre.Server.sg;
            };
          (* raw garbage that is not even an envelope *)
          "not a codec object";
        ]
      in
      List.iteri
        (fun i payload ->
          let c = connect path in
          send_all c.fd (Frame.encode payload);
          expect_eof c;
          Unix.close c.fd;
          let st = Net_server.stats srv in
          Alcotest.(check int)
            (Printf.sprintf "attack %d counted" i)
            (i + 1) st.Netmsg.protocol_errors)
        attacks)

(* At fd exhaustion shard 0 must shed a queued connection (the
   client sees EOF) and go idle, not spin on a level-triggered accept
   that keeps failing with EMFILE. The soft RLIMIT_NOFILE comes down and
   placeholder descriptors fill every free slot below it, so the
   client's own socket takes the last one. *)
let test_fd_exhaustion_sheds backend () =
  with_server ~backend (fun _srv path _ ->
      (* a raise to 0 changes nothing: it reads the soft limit *)
      let original = Poller.raise_fd_limit 0 in
      let fillers = ref [] in
      let client = ref None in
      Fun.protect
        ~finally:(fun () ->
          Option.iter (fun c -> Unix.close c.fd) !client;
          List.iter Unix.close !fillers;
          ignore (Poller.set_fd_limit original))
        (fun () ->
          ignore (Poller.set_fd_limit 256);
          (try
             while true do
               fillers := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !fillers
             done
           with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
          (match !fillers with
          | fd :: rest ->
              Unix.close fd;
              fillers := rest
          | [] -> Alcotest.fail "no descriptor below the lowered limit");
          let c = connect path in
          client := Some c;
          expect_eof c;
          let cpu () =
            let t = Unix.times () in
            t.Unix.tms_utime +. t.Unix.tms_stime
          in
          let before = cpu () in
          Unix.sleepf 0.5;
          let spent = cpu () -. before in
          if spent > 0.1 then
            Alcotest.failf "accept loop busy at fd exhaustion: %.3f s CPU in 0.5 s" spent))

(* --------------------------------------------------- poller backend *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () -> f a b)

let test_poller_readiness backend () =
  let p = Poller.create ~backend () in
  Fun.protect
    ~finally:(fun () -> Poller.close p)
    (fun () ->
      Alcotest.(check string) "backend honoured"
        (Poller.backend_name backend)
        (Poller.backend_name (Poller.backend p));
      with_socketpair (fun a b ->
          Poller.add p a ~read:true ~write:false;
          Alcotest.(check int) "registered" 1 (Poller.fd_count p);
          let n = Poller.wait p ~timeout_ms:0 (fun _ ~readable:_ ~writable:_ -> ()) in
          Alcotest.(check int) "idle socket: no events" 0 n;
          ignore (Unix.write b (Bytes.of_string "x") 0 1);
          let saw = ref false in
          let n =
            Poller.wait p ~timeout_ms:2000 (fun fd ~readable ~writable:_ ->
                if fd = a && readable then saw := true)
          in
          Alcotest.(check bool) "ready event reported" true (n >= 1);
          Alcotest.(check bool) "readable" true !saw;
          (* level-triggered: unread bytes keep reporting *)
          saw := false;
          ignore
            (Poller.wait p ~timeout_ms:2000 (fun fd ~readable ~writable:_ ->
                 if fd = a && readable then saw := true));
          Alcotest.(check bool) "level-triggered until drained" true !saw;
          ignore (Unix.read a (Bytes.create 8) 0 8);
          let n = Poller.wait p ~timeout_ms:0 (fun _ ~readable:_ ~writable:_ -> ()) in
          Alcotest.(check int) "drained: quiet again" 0 n;
          Poller.del p a;
          Alcotest.(check int) "deregistered" 0 (Poller.fd_count p)))

let test_poller_interest_transitions backend () =
  (* The server only flips write interest on queue empty<->non-empty
     transitions; modify and del must therefore take effect exactly. *)
  let p = Poller.create ~backend () in
  Fun.protect
    ~finally:(fun () -> Poller.close p)
    (fun () ->
      with_socketpair (fun a _b ->
          Poller.add p a ~read:true ~write:true;
          let w = ref false in
          ignore
            (Poller.wait p ~timeout_ms:2000 (fun fd ~readable:_ ~writable ->
                 if fd = a && writable then w := true));
          Alcotest.(check bool) "empty send buffer is writable" true !w;
          (* queue drained: drop write interest — idle socket goes quiet *)
          Poller.modify p a ~read:true ~write:false;
          let n = Poller.wait p ~timeout_ms:0 (fun _ ~readable:_ ~writable:_ -> ()) in
          Alcotest.(check int) "write interest dropped" 0 n;
          (* queue refilled: write interest back on *)
          Poller.modify p a ~read:true ~write:true;
          w := false;
          ignore
            (Poller.wait p ~timeout_ms:2000 (fun fd ~readable:_ ~writable ->
                 if fd = a && writable then w := true));
          Alcotest.(check bool) "write interest restored" true !w;
          Poller.del p a;
          let n = Poller.wait p ~timeout_ms:0 (fun _ ~readable:_ ~writable:_ -> ()) in
          Alcotest.(check int) "no events after del" 0 n;
          (* del of an unknown fd is a no-op, not an error *)
          Poller.del p a))

let test_poller_writev () =
  if not Poller.writev_available then ()
  else
    with_socketpair (fun a b ->
        let parts = [| "hello"; " "; "vectored"; " world" |] in
        (* first_off models a partially-written head frame *)
        let wrote = Poller.writev a parts ~first_off:2 ~count:4 in
        let expect = "llo vectored world" in
        Alcotest.(check int) "all bytes in one call" (String.length expect) wrote;
        let buf = Bytes.create 64 in
        let r = Unix.read b buf 0 64 in
        Alcotest.(check string) "gather order preserved" expect
          (Bytes.sub_string buf 0 r);
        (* count bounds the submission: trailing elements are ignored *)
        let wrote = Poller.writev a parts ~first_off:0 ~count:1 in
        Alcotest.(check int) "count respected" 5 wrote;
        let r = Unix.read b buf 0 64 in
        Alcotest.(check string) "only the first element" "hello"
          (Bytes.sub_string buf 0 r))

(* Each daemon-facing group runs once per available backend; on
   platforms without epoll the epoll variant collapses to a visible
   skip case instead of silently vanishing from the run. *)

let backends =
  Poller.Select :: (if Poller.epoll_available () then [ Poller.Epoll ] else [])

let per_backend group cases =
  let real =
    List.map
      (fun b ->
        ( Printf.sprintf "%s (%s)" group (Poller.backend_name b),
          List.map
            (fun (name, fn) -> Alcotest.test_case name `Quick (fn b))
            cases ))
      backends
  in
  if Poller.epoll_available () then real
  else
    real
    @ [
        ( Printf.sprintf "%s (epoll)" group,
          [
            Alcotest.test_case "skipped: epoll unavailable" `Quick (fun () ->
                ());
          ] );
      ]

let () =
  Alcotest.run "net"
    ([
       ( "framing",
         [
           Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
           Alcotest.test_case "byte-by-byte" `Quick test_frame_byte_by_byte;
           Alcotest.test_case "oversized rejected" `Quick
             test_frame_oversized_rejected;
           Alcotest.test_case "oversized after valid" `Quick
             test_frame_oversized_after_valid;
           Alcotest.test_case "truncation visible" `Quick
             test_frame_truncation_visible;
         ] );
     ]
    @ per_backend "poller"
        [
          ("readiness + level-trigger", test_poller_readiness);
          ("interest transitions", test_poller_interest_transitions);
        ]
    @ [
        ( "poller (writev)",
          [ Alcotest.test_case "gathered send" `Quick test_poller_writev ] );
      ]
    @ per_backend "daemon"
        [
          ("subscribe/tick/verify", test_subscribe_tick_verify);
          ("encode-once fan-out", test_encode_once_fanout);
          ("shards spread", test_shards_spread);
          ("archive endpoint", test_archive_endpoint);
          ("archive non-canonical label", test_archive_non_canonical_label);
          ("back-pressure eviction", test_backpressure_evicts_slow_reader);
          ("fd exhaustion sheds, no spin", test_fd_exhaustion_sheds);
          ("UDP tick fan-out", test_udp_tick_fanout);
        ]
    @ per_backend "attacks"
        [
          ("truncated prefix", test_attack_truncated_prefix);
          ("oversized length", test_attack_oversized_length);
          ("interleaved partials", test_attack_interleaved_partial_frames);
          ("kind confusion", test_attack_kind_confusion);
        ])
