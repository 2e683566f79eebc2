(* The simulated distributed system: event queue determinism, network
   delivery/loss, timeline mapping, the passive server's no-early-release
   invariant, client update handling and missed-update recovery. *)

let prms = Pairing.toy64 ()

(* --- event queue --- *)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  let order = ref [] in
  List.iter
    (fun (at, tag) -> Event_queue.push q ~at tag)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2"); (0.5, "z") ];
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, tag) ->
        order := tag :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted, stable ties" [ "z"; "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_event_queue_interleaved () =
  let q = Event_queue.create () in
  for i = 99 downto 0 do
    Event_queue.push q ~at:(float_of_int (i mod 10)) i
  done;
  let last = ref neg_infinity and count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (at, _) ->
        if at < !last then Alcotest.fail "out of order";
        last := at;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all delivered" 100 !count;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

(* Regression for a space leak: [pop] used to leave the vacated heap slot
   pointing at the last entry, so a drained queue kept every delivered
   payload reachable until the slot was overwritten. The fix blanks the
   slot; a weak pointer observes that the payload really becomes
   collectable. *)
let test_event_queue_drops_payload_refs () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  (* Allocate the payload inside a function so no local keeps it alive. *)
  let push_one () =
    let payload = Bytes.make 64 'p' in
    Weak.set w 0 (Some payload);
    Event_queue.push q ~at:1.0 payload
  in
  push_one ();
  (match Event_queue.pop q with
  | Some (_, p) -> ignore (Sys.opaque_identity p)
  | None -> Alcotest.fail "queue should pop");
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "payload collected after drain" false (Weak.check w 0)

(* --- simnet --- *)

let test_simnet_delivery_and_clock () =
  let net = Simnet.create ~seed:"t1" ~latency:0.1 ~jitter:0.0 () in
  let got = ref [] in
  Simnet.send net ~src:"a" ~dst:"b" ~kind:"ping" ~bytes:3 (fun () ->
      got := ("ping", Simnet.now net) :: !got);
  Simnet.schedule net ~at:1.0 (fun () -> got := ("timer", Simnet.now net) :: !got);
  Simnet.run net;
  (match List.rev !got with
  | [ ("ping", at1); ("timer", at2) ] ->
      Alcotest.(check (float 1e-9)) "latency applied" 0.1 at1;
      Alcotest.(check (float 1e-9)) "timer at 1.0" 1.0 at2
  | _ -> Alcotest.fail "wrong delivery sequence");
  Alcotest.(check int) "trace has the send" 1 (List.length (Simnet.sent_by net "a"))

let test_simnet_determinism () =
  let run () =
    let net = Simnet.create ~seed:"same-seed" ~jitter:0.05 () in
    let stamps = ref [] in
    for i = 0 to 9 do
      Simnet.send net ~src:"s" ~dst:"d" ~kind:"m" ~bytes:i (fun () ->
          stamps := Simnet.now net :: !stamps)
    done;
    Simnet.run net;
    !stamps
  in
  Alcotest.(check bool) "reproducible" true (run () = run ())

let test_simnet_loss () =
  let net = Simnet.create ~seed:"lossy" ~loss:0.5 () in
  let delivered = ref 0 in
  for _ = 1 to 200 do
    Simnet.send net ~src:"s" ~dst:"d" ~kind:"m" ~bytes:1 (fun () -> incr delivered)
  done;
  Simnet.run net;
  Alcotest.(check bool) "some dropped" true (!delivered < 200);
  Alcotest.(check bool) "some delivered" true (!delivered > 0);
  let lost = List.length (Simnet.sent_to net "(lost)") in
  Alcotest.(check int) "trace accounts for all" 200 (lost + !delivered)

let test_simnet_run_until () =
  let net = Simnet.create ~seed:"ru" ~latency:0.0 ~jitter:0.0 () in
  let fired = ref [] in
  List.iter
    (fun at -> Simnet.schedule net ~at (fun () -> fired := at :: !fired))
    [ 1.0; 2.0; 3.0 ];
  Simnet.run_until net 2.0;
  Alcotest.(check (list (float 0.0))) "only <= 2.0" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock advanced" 2.0 (Simnet.now net);
  Simnet.run net;
  Alcotest.(check int) "rest runs later" 3 (List.length !fired)

let test_simnet_validation () =
  let net = Simnet.create () in
  Alcotest.check_raises "past" (Invalid_argument "Simnet.schedule: time in the past")
    (fun () -> Simnet.run_until net 5.0; Simnet.schedule net ~at:1.0 ignore);
  Alcotest.check_raises "bad loss" (Invalid_argument "Simnet.create: loss must be in [0,1)")
    (fun () -> ignore (Simnet.create ~loss:1.0 ()))

(* --- timeline --- *)

(* Labels that [int_of_string] reads as an epoch but that are not
   [Timeline.label] of an epoch >= 0: other spellings of 2, and negative
   epochs. *)
let non_canonical_labels =
  [ "utc#0x2"; "utc#02"; "utc#+2"; "utc#0b10"; "utc#2_"; "utc#-7"; "utc#-4611686018427387904" ]

let prop_label_roundtrip =
  let tl = Timeline.create ~granularity:60.0 () in
  QCheck2.Test.make ~name:"epoch_of_label (label e) = Some e, e >= 0" ~count:500
    QCheck2.Gen.(oneof [ small_nat; map (fun n -> n land max_int) int; pure max_int ])
    (fun e -> Timeline.epoch_of_label tl (Timeline.label tl e) = Some e)

let test_timeline () =
  let tl = Timeline.create ~granularity:60.0 () in
  Alcotest.(check int) "epoch_at 0" 0 (Timeline.epoch_at tl 0.0);
  Alcotest.(check int) "epoch_at 59.9" 0 (Timeline.epoch_at tl 59.9);
  Alcotest.(check int) "epoch_at 60" 1 (Timeline.epoch_at tl 60.0);
  Alcotest.(check (float 0.0)) "start_of 2" 120.0 (Timeline.start_of tl 2);
  Alcotest.(check (option int)) "label roundtrip" (Some 42)
    (Timeline.epoch_of_label tl (Timeline.label tl 42));
  Alcotest.(check (option int)) "foreign label" None (Timeline.epoch_of_label tl "gps#3");
  List.iter
    (fun lbl -> Alcotest.(check (option int)) lbl None (Timeline.epoch_of_label tl lbl))
    non_canonical_labels;
  Alcotest.check_raises "bad granularity"
    (Invalid_argument "Timeline.create: granularity <= 0") (fun () ->
      ignore (Timeline.create ~granularity:0.0 ()))

(* --- passive server + clients, end to end --- *)

let run_system ~n_clients ~epochs ~loss =
  let net = Simnet.create ~seed:"system" ~latency:0.01 ~jitter:0.005 ~loss () in
  let tl = Timeline.create ~granularity:10.0 () in
  let server = Passive_server.create prms ~net ~timeline:tl ~name:"time-server" in
  let clients =
    List.init n_clients (fun i ->
        Client.create prms ~net ~server:(Passive_server.public server)
          ~name:(Printf.sprintf "client-%d" i))
  in
  let recipients = List.map (fun c -> (Client.name c, Client.on_wire c)) clients in
  Passive_server.start server ~net ~first_epoch:1 ~epochs ~recipients;
  (net, tl, server, clients)

let test_end_to_end_release () =
  let net, tl, server, clients = run_system ~n_clients:3 ~epochs:4 ~loss:0.0 in
  let sender_rng = Hashing.Drbg.create ~seed:"sender" () in
  (* The sender encrypts at t=0 for epoch 3, to each client, with zero
     server interaction. *)
  List.iter
    (fun c ->
      let ct =
        Tre.encrypt prms (Passive_server.public server) (Client.public_key c)
          ~release_time:(Timeline.label tl 3) sender_rng
          ("for " ^ Client.name c)
      in
      Client.enqueue_ciphertext c ct)
    clients;
  (* Before epoch 3: nobody can read. *)
  Simnet.run_until net (Timeline.start_of tl 3 -. 0.5);
  List.iter
    (fun c ->
      Alcotest.(check int) "still locked" 0 (List.length (Client.deliveries c));
      Alcotest.(check int) "pending" 1 (Client.pending_count c))
    clients;
  (* After epoch 3's broadcast: everyone reads. *)
  Simnet.run net;
  List.iter
    (fun c ->
      match Client.deliveries c with
      | [ d ] ->
          Alcotest.(check string) "content" ("for " ^ Client.name c) d.Client.plaintext;
          Alcotest.(check bool) "not before release" true
            (d.Client.decrypted_at >= Timeline.start_of tl 3)
      | _ -> Alcotest.fail "expected exactly one delivery")
    clients

let test_single_update_serves_all () =
  (* Server-side cost must not grow with the number of clients. *)
  let _, _, server_small, _ = run_system ~n_clients:1 ~epochs:5 ~loss:0.0 in
  let _, _, server_large, _ = run_system ~n_clients:50 ~epochs:5 ~loss:0.0 in
  let net_small, _, srv_s, _ = run_system ~n_clients:1 ~epochs:5 ~loss:0.0 in
  let net_large, _, srv_l, _ = run_system ~n_clients:50 ~epochs:5 ~loss:0.0 in
  ignore server_small;
  ignore server_large;
  Simnet.run net_small;
  Simnet.run net_large;
  Alcotest.(check int) "same updates issued" (Passive_server.updates_issued srv_s)
    (Passive_server.updates_issued srv_l);
  Alcotest.(check int) "same bytes broadcast" (Passive_server.bytes_broadcast srv_s)
    (Passive_server.bytes_broadcast srv_l)

let test_no_early_release () =
  let net, tl, server, _ = run_system ~n_clients:1 ~epochs:3 ~loss:0.0 in
  Simnet.run_until net 15.0 (* inside epoch 1 *);
  (* Archive gives epoch 1 (broadcast) but refuses epoch 2 (future). *)
  (match Passive_server.archive_lookup server (Timeline.label tl 1) with
  | Ok bytes -> (
      match Tre.update_of_bytes prms bytes with
      | Ok upd ->
          Alcotest.(check bool) "past update valid" true
            (Tre.verify_update prms (Passive_server.public server) upd)
      | Error e -> Alcotest.failf "archive bytes: %s" e)
  | Error _ -> Alcotest.fail "archive must serve past epochs");
  Alcotest.(check bool) "future refused" true
    (Passive_server.archive_lookup server (Timeline.label tl 2)
    = Error Server_core.Future_refused);
  Alcotest.(check bool) "foreign label" true
    (Passive_server.archive_lookup server "mars#1" = Error Server_core.Unknown_label)

let test_future_pull_is_a_miss () =
  (* A pull of an epoch not yet broadcast gets no response and the run
     goes on: the later broadcasts still arrive. *)
  let net, tl, server, clients = run_system ~n_clients:1 ~epochs:3 ~loss:0.0 in
  let client = List.hd clients in
  Simnet.run_until net 15.0;
  Client.fetch_missing client net server (Timeline.label tl 3);
  Simnet.run net;
  Alcotest.(check int) "all epochs cached" 3 (Client.updates_cached client);
  Alcotest.(check int) "no archive response" 0
    (List.length
       (List.filter
          (fun (m : Simnet.message) -> m.Simnet.kind = "archive-response")
          (Simnet.sent_by net "time-server")))

let test_archive_follows_broadcast () =
  (* Under clock skew a broadcast fires after its epoch starts; the
     archive must not serve the epoch in between. A first run records
     when each broadcast fires and what it carries; a second, identical
     run looks epoch 2 up before and after its broadcast. *)
  let system () =
    let net = Simnet.create ~seed:"late" ~latency:0.0 ~jitter:0.0 () in
    let tl = Timeline.create ~granularity:10.0 () in
    let server = Passive_server.create ~max_skew:5.0 prms ~net ~timeline:tl ~name:"late" in
    let heard = ref [] in
    Passive_server.start server ~net ~first_epoch:1 ~epochs:3
      ~recipients:[ ("observer", fun b -> heard := (Simnet.now net, b) :: !heard) ];
    (net, tl, server, heard)
  in
  let net, _, _, heard = system () in
  Simnet.run net;
  let fired, bytes = List.nth (List.rev !heard) 1 in
  let net, tl, server, _ = system () in
  let label = Timeline.label tl 2 in
  Simnet.run_until net ((Timeline.start_of tl 2 +. fired) /. 2.0);
  Alcotest.(check bool) "refused after its start, before its broadcast" true
    (Passive_server.archive_lookup server label = Error Server_core.Future_refused);
  Simnet.run_until net (fired +. 0.001);
  Alcotest.(check bool) "the broadcast bytes, once it fired" true
    (Passive_server.archive_lookup server label = Ok bytes)

let test_core_regenerates () =
  (* Footnote 4: past updates regenerate from s alone. A cache of two
     holds fewer epochs than are released, and a restarted core on the
     same secret, with no archive, serves the same bytes once its
     watermark has reached them. *)
  let tl = Timeline.create ~granularity:10.0 () in
  let secret, _ = Tre.Server.keygen prms (Hashing.Drbg.create ~seed:"footnote-4" ()) in
  let core = Server_core.create ~cache_limit:2 ~wrap:Fun.id prms tl secret in
  let released = List.init 5 (fun i -> Server_core.release core (i + 1)) in
  let serves core =
    List.iteri
      (fun i b ->
        Alcotest.(check bool) (Printf.sprintf "epoch %d served" (i + 1)) true
          (Server_core.lookup core (Timeline.label tl (i + 1)) = Ok b))
      released
  in
  serves core;
  Alcotest.(check bool) "evicted epochs regenerated" true
    (Server_core.updates_encoded core > 5);
  Alcotest.(check bool) "epoch 6 refused" true
    (Server_core.lookup core (Timeline.label tl 6) = Error Server_core.Future_refused);
  Alcotest.(check bool) "foreign label" true
    (Server_core.lookup core "mars#1" = Error Server_core.Unknown_label);
  let restarted = Server_core.create ~cache_limit:2 ~wrap:Fun.id prms tl secret in
  Alcotest.(check bool) "restart refuses until released" true
    (Server_core.lookup restarted (Timeline.label tl 1) = Error Server_core.Future_refused);
  ignore (Server_core.release restarted 5);
  serves restarted

let test_core_non_canonical_labels () =
  (* An archive pull for "utc#02" must not be answered with the update
     for "utc#2", nor one for "utc#-7" with a freshly signed update. *)
  let tl = Timeline.create ~granularity:10.0 () in
  let secret, _ = Tre.Server.keygen prms (Hashing.Drbg.create ~seed:"labels" ()) in
  let core = Server_core.create ~wrap:Fun.id prms tl secret in
  let b2 = Server_core.release core 2 in
  let encoded = Server_core.updates_encoded core in
  List.iter
    (fun lbl ->
      Alcotest.(check bool) (lbl ^ " unknown") true
        (Server_core.lookup core lbl = Error Server_core.Unknown_label))
    non_canonical_labels;
  Alcotest.(check int) "nothing encoded" encoded (Server_core.updates_encoded core);
  Alcotest.(check bool) "utc#2 served" true (Server_core.lookup core "utc#2" = Ok b2)

let test_missed_update_recovery () =
  (* With a very lossy broadcast channel some client misses an update; it
     recovers via the public archive and still decrypts. *)
  let net, tl, server, clients = run_system ~n_clients:1 ~epochs:2 ~loss:0.5 in
  let client = List.hd clients in
  let sender_rng = Hashing.Drbg.create ~seed:"sender2" () in
  let ct =
    Tre.encrypt prms (Passive_server.public server) (Client.public_key client)
      ~release_time:(Timeline.label tl 2) sender_rng "recovered"
  in
  Client.enqueue_ciphertext client ct;
  Simnet.run net;
  (* The archive pull also rides the lossy network; retry like any client
     fetching a webpage would. *)
  let attempts = ref 0 in
  while Client.deliveries client = [] && !attempts < 100 do
    incr attempts;
    Client.fetch_missing client net server (Timeline.label tl 2);
    Simnet.run net
  done;
  match Client.deliveries client with
  | [ d ] -> Alcotest.(check string) "recovered" "recovered" d.Client.plaintext
  | _ -> Alcotest.fail "recovery failed"

let test_recovery_out_of_order_and_duplicates () =
  (* A client that missed several epochs pulls them from the archive in
     the WRONG order, twice each — recovery must be insensitive to both
     (the update cache is keyed by label and idempotent). *)
  let net, tl, server, clients = run_system ~n_clients:1 ~epochs:4 ~loss:0.0 in
  let client = List.hd clients in
  let sender_rng = Hashing.Drbg.create ~seed:"sender3" () in
  let cts =
    List.map
      (fun e ->
        Tre.encrypt prms (Passive_server.public server)
          (Client.public_key client)
          ~release_time:(Timeline.label tl e) sender_rng
          (Printf.sprintf "msg-%d" e))
      [ 1; 2; 3 ]
  in
  List.iter (Client.enqueue_ciphertext client) cts;
  (* let all epochs pass WITHOUT delivering the broadcasts: pull-only *)
  Simnet.run net;
  let fresh = Client.create prms ~net ~server:(Passive_server.public server)
      ~name:"late-joiner" in
  List.iter (Client.enqueue_ciphertext fresh)
    (List.map
       (fun e ->
         Tre.encrypt prms (Passive_server.public server)
           (Client.public_key fresh)
           ~release_time:(Timeline.label tl e) sender_rng
           (Printf.sprintf "late-%d" e))
       [ 1; 2; 3 ]);
  (* out of order, and every label twice *)
  List.iter
    (fun e ->
      Client.fetch_missing fresh net server (Timeline.label tl e);
      Simnet.run net)
    [ 3; 1; 2; 2; 3; 1 ];
  Alcotest.(check int) "three distinct updates cached" 3
    (Client.updates_cached fresh);
  Alcotest.(check int) "no rejections from duplicates" 0
    (Client.rejected_updates fresh);
  let got = List.map (fun d -> d.Client.plaintext) (Client.deliveries fresh) in
  List.iter
    (fun e ->
      let want = Printf.sprintf "late-%d" e in
      Alcotest.(check bool) want true (List.mem want got))
    [ 1; 2; 3 ];
  (* duplicate delivery on the BROADCAST path is idempotent too: replay
     a wire frame the client already processed *)
  (match Passive_server.archive_lookup server (Timeline.label tl 1) with
  | Ok payload ->
      Client.on_wire fresh payload;
      Client.on_wire fresh payload;
      Alcotest.(check int) "cache unchanged by replay" 3
        (Client.updates_cached fresh)
  | Error _ -> Alcotest.fail "archive bytes missing")

let test_broadcast_encode_once () =
  (* The per-epoch serialization count must not scale with the audience:
     1 client or 40, each epoch is encoded exactly once. *)
  let count_encodes n_clients =
    let net, _, server, _ = run_system ~n_clients ~epochs:5 ~loss:0.0 in
    Simnet.run net;
    ignore net;
    Passive_server.updates_encoded server
  in
  Alcotest.(check int) "1 client: 5 encodes" 5 (count_encodes 1);
  Alcotest.(check int) "40 clients: still 5 encodes" 5 (count_encodes 40)

let test_forged_broadcast_rejected () =
  let net, _, server, clients = run_system ~n_clients:1 ~epochs:1 ~loss:0.0 in
  let client = List.hd clients in
  ignore server;
  (* An attacker injects a bogus update into the broadcast channel. *)
  let fake = { Tre.update_time = "utc#1"; update_value = prms.Pairing.g } in
  Client.handler client fake;
  Simnet.run net;
  Alcotest.(check int) "rejected count" 1 (Client.rejected_updates client);
  (* The genuine broadcast still lands. *)
  Alcotest.(check int) "genuine cached" 1 (Client.updates_cached client)

let test_clock_skew_bounded_and_never_early () =
  (* Section 3 trust model: broadcasts drift late by at most max_skew and
     are never early. *)
  let net = Simnet.create ~seed:"skew" ~latency:0.0 ~jitter:0.0 () in
  let tl = Timeline.create ~granularity:10.0 () in
  let server = Passive_server.create ~max_skew:2.0 prms ~net ~timeline:tl ~name:"skewed" in
  Alcotest.(check (float 0.0)) "skew recorded" 2.0 (Passive_server.max_skew server);
  let stamps = ref [] in
  let handler _ = stamps := Simnet.now net :: !stamps in
  Passive_server.start server ~net ~first_epoch:1 ~epochs:5
    ~recipients:[ ("observer", handler) ];
  Simnet.run net;
  Alcotest.(check int) "all epochs heard" 5 (List.length !stamps);
  List.iteri
    (fun i at ->
      let epoch = 5 - i in
      let nominal = Timeline.start_of tl epoch in
      if at < nominal then Alcotest.fail "update released early";
      if at > nominal +. 2.0 +. 0.001 then Alcotest.fail "drift beyond bound")
    !stamps

let test_clock_monotone_updates () =
  (* Updates are issued in epoch order and never before their epoch. *)
  let net, tl, server, clients = run_system ~n_clients:2 ~epochs:6 ~loss:0.0 in
  ignore clients;
  Simnet.run net;
  Alcotest.(check int) "all issued" 6 (Passive_server.updates_issued server);
  List.iter
    (fun (m : Simnet.message) ->
      if m.Simnet.kind = "key-update" then begin
        (* broadcast trace timestamp is the issue instant *)
        let e = Timeline.epoch_at tl (m.Simnet.at +. 1e-9) in
        if Timeline.start_of tl e > m.Simnet.at +. 0.001 then
          Alcotest.fail "update broadcast before its epoch"
      end)
    (Simnet.sent_by net "time-server")

let () =
  Alcotest.run "timeserver"
    [
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "interleaved" `Quick test_event_queue_interleaved;
          Alcotest.test_case "no payload retention" `Quick test_event_queue_drops_payload_refs;
        ] );
      ( "simnet",
        [
          Alcotest.test_case "delivery+clock" `Quick test_simnet_delivery_and_clock;
          Alcotest.test_case "determinism" `Quick test_simnet_determinism;
          Alcotest.test_case "loss" `Quick test_simnet_loss;
          Alcotest.test_case "run_until" `Quick test_simnet_run_until;
          Alcotest.test_case "validation" `Quick test_simnet_validation;
        ] );
      ( "timeline",
        [ Alcotest.test_case "mapping" `Quick test_timeline;
          QCheck_alcotest.to_alcotest prop_label_roundtrip ] );
      ( "system",
        [
          Alcotest.test_case "end-to-end release" `Quick test_end_to_end_release;
          Alcotest.test_case "single update serves all" `Quick test_single_update_serves_all;
          Alcotest.test_case "no early release" `Quick test_no_early_release;
          Alcotest.test_case "future pull is a miss" `Quick test_future_pull_is_a_miss;
          Alcotest.test_case "archive follows the broadcast" `Quick
            test_archive_follows_broadcast;
          Alcotest.test_case "footnote 4: the core regenerates" `Quick
            test_core_regenerates;
          Alcotest.test_case "non-canonical labels miss" `Quick
            test_core_non_canonical_labels;
          Alcotest.test_case "missed update recovery" `Quick test_missed_update_recovery;
          Alcotest.test_case "recovery out-of-order + duplicates" `Quick
            test_recovery_out_of_order_and_duplicates;
          Alcotest.test_case "broadcast encode-once" `Quick
            test_broadcast_encode_once;
          Alcotest.test_case "forged broadcast rejected" `Quick test_forged_broadcast_rejected;
          Alcotest.test_case "monotone updates" `Quick test_clock_monotone_updates;
          Alcotest.test_case "bounded clock skew" `Quick test_clock_skew_bounded_and_never_early;
        ] );
    ]
