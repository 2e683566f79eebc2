(* tre-serverd: the paper's passive time server as a long-running daemon.

     dune exec bin/tre_serverd.exe -- --unix /tmp/tre.sock --ticks 10
     dune exec bin/tre_serverd.exe -- --tcp 7100 --udp 127.0.0.1:7101 \
         --granularity 1.0 --period 1.0

   At each period it broadcasts one key update to every subscriber —
   constant work independent of the audience (§4's scalability claim),
   with clients pulling missed epochs from the archive endpoint (§6).
   SIGINT/SIGTERM stop it cleanly and print the operational counters. *)

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("tre-serverd: " ^ s); exit 1) fmt

let params = ref "mid128"
let unix_path = ref ""
let tcp_port = ref 0
let udp_dest = ref ""
let origin = ref "utc"
let granularity = ref 1.0
let period = ref 1.0
let shards = ref 0
let max_queue = ref 64
let backend_str = ref "auto"
let seed = ref ""
let ticks = ref 0
let first_epoch = ref 1
let quiet = ref false

let spec =
  [
    ("--params", Arg.Set_string params,
     Printf.sprintf "NAME parameter set (default %s; available: %s)" !params
       (String.concat ", " Pairing.all_names));
    ("--unix", Arg.Set_string unix_path, "PATH listen on a Unix-domain socket");
    ("--tcp", Arg.Set_int tcp_port, "PORT listen on 127.0.0.1:PORT");
    ("--udp", Arg.Set_string udp_dest, "HOST:PORT also fan ticks out over UDP");
    ("--origin", Arg.Set_string origin, "NAME timeline label prefix (default utc)");
    ("--granularity", Arg.Set_float granularity,
     "SECONDS timeline epoch length (default 1.0)");
    ("--period", Arg.Set_float period,
     "SECONDS wall-clock delay between broadcasts (default 1.0)");
    ("--shards", Arg.Set_int shards,
     "N accept/decode/respond domains (default: host core count)");
    ("--max-queue", Arg.Set_int max_queue,
     "N per-connection back-pressure bound, in frames (default 64)");
    ("--backend", Arg.Set_string backend_str,
     "NAME event backend: auto|select|epoll (default auto)");
    ("--seed", Arg.Set_string seed,
     "STRING deterministic key material (default: system entropy)");
    ("--ticks", Arg.Set_int ticks,
     "N broadcast N epochs then exit (default 0: run until SIGINT)");
    ("--first-epoch", Arg.Set_int first_epoch, "N starting epoch (default 1)");
    ("--quiet", Arg.Set quiet, " no per-tick output");
  ]

let usage = "tre-serverd [options]   (at least one of --unix / --tcp)"

let parse_udp s =
  match String.rindex_opt s ':' with
  | None -> die "--udp expects HOST:PORT, got %S" s
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> (host, p)
      | _ -> die "--udp: bad port in %S" s)

let print_stats (st : Netmsg.stats) =
  Printf.printf
    "conns accepted %d, open %d; subscribers %d\n\
     updates encoded %d; frames sent %d (%d bytes)\n\
     archive hits %d, misses %d; protocol errors %d; slow disconnects %d\n\
     queue bytes now %d, peak %d\n\
     send syscalls %d; poll wakeups %d; conns per shard [%s]\n%!"
    st.Netmsg.conns_accepted st.Netmsg.conns_open st.Netmsg.subscribers
    st.Netmsg.updates_encoded st.Netmsg.frames_sent st.Netmsg.bytes_sent
    st.Netmsg.archive_hits st.Netmsg.archive_misses st.Netmsg.protocol_errors
    st.Netmsg.slow_disconnects st.Netmsg.queue_bytes st.Netmsg.queue_bytes_peak
    st.Netmsg.send_syscalls st.Netmsg.poll_wakeups
    (String.concat "; " (List.map string_of_int st.Netmsg.shard_conns))

let () =
  Arg.parse spec (fun a -> die "stray argument %S" a) usage;
  let prms =
    match Pairing.by_name !params with
    | Some p -> p
    | None ->
        die "unknown parameter set %S (available: %s)" !params
          (String.concat ", " Pairing.all_names)
  in
  let timeline = Timeline.create ~origin:!origin ~granularity:!granularity () in
  let backend =
    match Poller.backend_of_string !backend_str with
    | Ok b -> b
    | Error e -> die "--backend: %s" e
  in
  if backend = Some Poller.Epoll && not (Poller.epoll_available ()) then
    die "--backend epoll: unavailable on this platform";
  let cfg =
    {
      (Net_server.default_config prms timeline) with
      Net_server.unix_path =
        (if !unix_path = "" then None else Some !unix_path);
      tcp_port = (if !tcp_port = 0 then None else Some !tcp_port);
      udp_dest = (if !udp_dest = "" then None else Some (parse_udp !udp_dest));
      shards = (if !shards > 0 then !shards else Pool.recommended ());
      max_queue_frames = !max_queue;
      backend;
    }
  in
  if cfg.Net_server.unix_path = None && cfg.Net_server.tcp_port = None then
    die "no transport: pass --unix PATH and/or --tcp PORT";
  let seed =
    if !seed <> "" then !seed else Hashing.Drbg.system_entropy ~n:32 ()
  in
  let rng = Hashing.Drbg.create ~seed ~personalization:"tre-serverd" () in
  let srv = Net_server.create cfg rng in
  let stopping = Atomic.make false in
  let request_stop _ = Atomic.set stopping true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Net_server.start srv;
  if not !quiet then begin
    Printf.printf
      "tre-serverd: %s, origin %s, granularity %gs, %d shard%s, %s backend\n"
      !params !origin !granularity cfg.Net_server.shards
      (if cfg.Net_server.shards = 1 then "" else "s")
      (Net_server.backend_name srv);
    Option.iter (Printf.printf "  unix %s\n") cfg.Net_server.unix_path;
    Option.iter
      (Printf.printf "  tcp %s:%d\n" cfg.Net_server.tcp_addr)
      cfg.Net_server.tcp_port;
    Option.iter
      (fun (h, p) -> Printf.printf "  udp %s:%d\n" h p)
      cfg.Net_server.udp_dest;
    flush stdout
  end;
  let epoch = ref !first_epoch in
  let sent = ref 0 in
  (* The broadcast loop. A signal only flips [stopping]; shutdown work
     happens here, outside the handler. *)
  while (not (Atomic.get stopping)) && (!ticks = 0 || !sent < !ticks) do
    Net_server.tick srv !epoch;
    if not !quiet then
      Printf.printf "tick %s\n%!" (Timeline.label timeline !epoch);
    incr epoch;
    incr sent;
    if (!ticks = 0 || !sent < !ticks) && !period > 0.0 then
      (* interruptible sleep: signals cut it short via EINTR *)
      try Unix.sleepf !period with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let st = Net_server.stats srv in
  Net_server.stop srv;
  if not !quiet then print_stats st;
  Printf.printf "clean shutdown\n%!"
