(* The networked passive time server.

   Architecture (DESIGN §2): shard 0 also watches the Unix and/or TCP
   listening sockets, accepts, and deals each connection to the shard with
   the fewest open connections. Each shard owns its connections outright
   — reads, frame decoding, request dispatch and writes for a connection
   all happen on its shard, so there is no per-connection locking
   anywhere. Cross-shard traffic is two Treiber stacks per shard (new
   connections, broadcast frames), pushed with a CAS loop and drained
   with a single [Atomic.exchange] — the broadcast fan-out path takes no
   lock — plus a self-pipe byte to interrupt the shard's poller.

   Event backend ({!Poller}): each shard runs on a pluggable poller —
   Linux epoll when available, portable select otherwise, overridable in
   the config. Readiness interest is registered once per descriptor and
   modified only on transitions (output queue empty <-> non-empty), never
   rebuilt per iteration, so a shard's steady-state cost is O(ready
   descriptors) per wake-up on epoll instead of select's O(all
   connections) scan and FD_SETSIZE ceiling.

   The hot loop is allocation-lean by construction: each update is
   issued and encoded exactly once per epoch ({!Server_core}, whose
   cache every shard, the tick and the archive path share), and the
   resulting framed byte string is enqueued by reference on every
   subscriber — encode once, write N times. Read scratch and the
   self-pipe drain buffer are one reusable [Bytes] per shard (not per
   connection, not per call), and the send path snapshots a connection's
   bounded queue into a reusable per-shard iovec and drains it with one
   [writev] instead of one write per frame.

   Back-pressure: every connection has a bounded output queue (frame
   references). A subscriber that stops reading while broadcasts keep
   coming overflows its bound and is evicted — the server's memory
   ceiling is [max_queue_frames] references per connection regardless of
   how many slow readers attack it, and honest subscribers are never
   throttled by a slow one. *)

type config = {
  prms : Pairing.params;
  timeline : Timeline.t;
  unix_path : string option;
  tcp_port : int option;
  tcp_addr : string;
  udp_dest : (string * int) option;
  shards : int;
  max_queue_frames : int;
  archive_cache_limit : int;
  backend : Poller.backend option;
}

let default_config prms timeline =
  {
    prms;
    timeline;
    unix_path = None;
    tcp_port = None;
    tcp_addr = "127.0.0.1";
    udp_dest = None;
    shards = Pool.recommended ();
    max_queue_frames = 64;
    archive_cache_limit = 4096;
    backend = None;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  outq : string Queue.t;
  mutable out_off : int; (* bytes of the head frame already written *)
  mutable subscribed : bool;
  mutable alive : bool;
  mutable wreg : bool; (* write interest currently registered *)
}

type shard = {
  sid : int;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  poller : Poller.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_conns : Unix.file_descr list Atomic.t;
  inbox_bcast : string list Atomic.t; (* newest first; drain reverses *)
  nconns : int Atomic.t; (* owned + assigned-not-yet-adopted *)
  rbuf : Bytes.t; (* shared read scratch: one per shard, not per conn *)
  wakebuf : Bytes.t; (* self-pipe drain scratch *)
  iov : string array; (* writev snapshot of one bounded queue *)
}

type t = {
  cfg : config;
  core : Server_core.t; (* key, watermark, framed-update cache *)
  shards : shard array;
  mutable listeners : Unix.file_descr list; (* polled by shard 0 *)
  mutable spare : Unix.file_descr option; (* shard 0's reserve, see [shed] *)
  mutable udp : (Unix.file_descr * Unix.sockaddr) option;
  stopping : bool Atomic.t;
  mutable shard_domains : unit Domain.t list;
  (* stats *)
  st_accepted : int Atomic.t;
  st_open : int Atomic.t;
  st_subscribers : int Atomic.t;
  st_frames_sent : int Atomic.t;
  st_bytes_sent : int Atomic.t;
  st_archive_hits : int Atomic.t;
  st_archive_misses : int Atomic.t;
  st_proto_errors : int Atomic.t;
  st_slow_disconnects : int Atomic.t;
  st_queue_bytes : int Atomic.t;
  st_queue_peak : int Atomic.t;
  st_send_syscalls : int Atomic.t;
  st_poll_wakeups : int Atomic.t;
}

(* --- lock-free mailboxes --- *)

let push_atomic cell v =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (v :: old)) then go ()
  in
  go ()

let drain_atomic cell = List.rev (Atomic.exchange cell [])

let wake sh =
  (* A full pipe already guarantees a pending wake-up. *)
  try ignore (Unix.single_write_substring sh.wake_w "x" 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let bump_peak t =
  let now = Atomic.get t.st_queue_bytes in
  let rec go () =
    let peak = Atomic.get t.st_queue_peak in
    if now > peak && not (Atomic.compare_and_set t.st_queue_peak peak now) then go ()
  in
  go ()

(* --- connection lifecycle (shard-local) --- *)

let queued_bytes c =
  Queue.fold (fun acc f -> acc + String.length f) (-c.out_off) c.outq

let close_conn t sh c =
  if c.alive then begin
    c.alive <- false;
    ignore (Atomic.fetch_and_add t.st_queue_bytes (-queued_bytes c));
    if c.subscribed then Atomic.decr t.st_subscribers;
    Atomic.decr t.st_open;
    Atomic.decr sh.nconns;
    Hashtbl.remove sh.conns c.fd;
    Poller.del sh.poller c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Write interest tracks the queue's empty <-> non-empty transitions:
   one [Poller.modify] per transition, zero per steady-state iteration.
   In the common case the opportunistic write after enqueue drains the
   queue entirely and no interest change ever reaches the kernel. *)
let sync_interest sh c =
  if c.alive then begin
    let want = not (Queue.is_empty c.outq) in
    if want <> c.wreg then begin
      c.wreg <- want;
      try Poller.modify sh.poller c.fd ~read:true ~write:want
      with Unix.Unix_error _ -> ()
    end
  end

let enqueue t sh c frame =
  if c.alive then begin
    if Queue.length c.outq >= t.cfg.max_queue_frames then begin
      (* Back-pressure bound hit: the reader is slower than the
         broadcast rate. Evict — the frame references it holds are
         shared, so the memory reclaimed is the queue itself. *)
      Atomic.incr t.st_slow_disconnects;
      close_conn t sh c
    end
    else begin
      Queue.push frame c.outq;
      Atomic.incr t.st_frames_sent;
      ignore (Atomic.fetch_and_add t.st_queue_bytes (String.length frame));
      bump_peak t
    end
  end

let proto_error t sh c =
  Atomic.incr t.st_proto_errors;
  close_conn t sh c

(* --- request dispatch --- *)

let stats t =
  {
    Netmsg.conns_accepted = Atomic.get t.st_accepted;
    conns_open = Atomic.get t.st_open;
    subscribers = Atomic.get t.st_subscribers;
    updates_encoded = Server_core.updates_encoded t.core;
    frames_sent = Atomic.get t.st_frames_sent;
    bytes_sent = Atomic.get t.st_bytes_sent;
    archive_hits = Atomic.get t.st_archive_hits;
    archive_misses = Atomic.get t.st_archive_misses;
    protocol_errors = Atomic.get t.st_proto_errors;
    slow_disconnects = Atomic.get t.st_slow_disconnects;
    queue_bytes = Stdlib.max 0 (Atomic.get t.st_queue_bytes);
    queue_bytes_peak = Atomic.get t.st_queue_peak;
    send_syscalls = Atomic.get t.st_send_syscalls;
    poll_wakeups = Atomic.get t.st_poll_wakeups;
    shard_conns =
      Array.to_list (Array.map (fun sh -> Atomic.get sh.nconns) t.shards);
  }

let hello_frame t =
  let pub = Server_core.public t.core in
  Frame.encode
    (Netmsg.hello_to_bytes t.cfg.prms
       {
         Netmsg.origin = Timeline.origin t.cfg.timeline;
         granularity_us =
           int_of_float (Timeline.granularity t.cfg.timeline *. 1e6);
         current_epoch = Server_core.released t.core;
         server_g = pub.Tre.Server.g;
         server_sg = pub.Tre.Server.sg;
       })

(* --- output path --- *)

(* Drain as much of [c]'s queue as the socket accepts: snapshot up to
   |iov| frames into the shard's reusable array and submit them in one
   [writev], so a broadcast epoch (tick preamble + update) or a backlog
   of archive replies costs one syscall, not one per frame. *)
let handle_write t sh c =
  let progress = ref true in
  while c.alive && !progress && not (Queue.is_empty c.outq) do
    let cap = Array.length sh.iov in
    let n = ref 0 in
    let total = ref (-c.out_off) in
    (try
       Queue.iter
         (fun f ->
           if !n >= cap then raise Exit;
           sh.iov.(!n) <- f;
           incr n;
           total := !total + String.length f)
         c.outq
     with Exit -> ());
    match Poller.writev c.fd sh.iov ~first_off:c.out_off ~count:!n with
    | written ->
        Atomic.incr t.st_send_syscalls;
        ignore (Atomic.fetch_and_add t.st_bytes_sent written);
        ignore (Atomic.fetch_and_add t.st_queue_bytes (-written));
        let rem = ref written in
        while !rem > 0 do
          let head = Queue.peek c.outq in
          let left = String.length head - c.out_off in
          if !rem >= left then begin
            ignore (Queue.pop c.outq);
            c.out_off <- 0;
            rem := !rem - left
          end
          else begin
            c.out_off <- c.out_off + !rem;
            rem := 0
          end
        done;
        if written < !total then progress := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        Atomic.incr t.st_send_syscalls;
        progress := false
    | exception Unix.Unix_error (_, _, _) -> close_conn t sh c
  done;
  (* Drop the snapshot's frame references so the shared strings don't
     outlive their queues through the scratch array. *)
  Array.fill sh.iov 0 (Array.length sh.iov) ""

(* Enqueue-and-flush: try the socket immediately instead of waiting a
   poller round trip. On an undersaturated socket this writes the reply
   in the dispatching iteration and write interest never changes. *)
let flush t sh c =
  if c.alive then begin
    handle_write t sh c;
    sync_interest sh c
  end

let handle_archive t sh c label =
  match Server_core.lookup t.core label with
  | Ok frame ->
      Atomic.incr t.st_archive_hits;
      enqueue t sh c frame
  | Error miss ->
      Atomic.incr t.st_archive_misses;
      enqueue t sh c (Frame.encode (Netmsg.archive_miss_to_bytes t.cfg.prms label miss))

let dispatch t sh c payload =
  match Codec.peek_kind payload with
  | Error _ -> proto_error t sh c
  | Ok Codec.Net_subscribe -> (
      match Netmsg.subscribe_of_bytes t.cfg.prms payload with
      | Ok () ->
          if not c.subscribed then begin
            c.subscribed <- true;
            Atomic.incr t.st_subscribers
          end;
          enqueue t sh c (hello_frame t)
      | Error _ -> proto_error t sh c)
  | Ok Codec.Net_archive_query -> (
      match Netmsg.archive_query_of_bytes t.cfg.prms payload with
      | Ok label -> handle_archive t sh c label
      | Error _ -> proto_error t sh c)
  | Ok Codec.Net_stats_query -> (
      match Netmsg.stats_query_of_bytes t.cfg.prms payload with
      | Ok () -> enqueue t sh c (Frame.encode (Netmsg.stats_to_bytes t.cfg.prms (stats t)))
      | Error _ -> proto_error t sh c)
  | Ok _ ->
      (* Kind confusion: clients have no business sending key updates,
         ciphertexts or server responses at the daemon. *)
      proto_error t sh c

(* --- accepting (shard 0) --- *)

(* Least-open-connections shard pick. [nconns] is bumped here, at
   assignment — not at adoption — so a connection burst spreads by the
   counts it is itself creating, and decremented when the shard closes
   the connection. Ties break toward the lowest shard id. *)
let assign t fd =
  let best = ref t.shards.(0) in
  let bestn = ref (Atomic.get t.shards.(0).nconns) in
  Array.iter
    (fun sh ->
      let n = Atomic.get sh.nconns in
      if n < !bestn then begin
        best := sh;
        bestn := n
      end)
    t.shards;
  let sh = !best in
  Atomic.incr sh.nconns;
  push_atomic sh.inbox_conns fd;
  wake sh

(* At fd exhaustion accept fails with EMFILE/ENFILE and leaves the
   connection queued, so the level-triggered listening socket would be
   reported again at once and shard 0 would spin. Shard 0 therefore holds
   one spare descriptor: on exhaustion it closes the spare, accepts the
   connection into the freed slot, closes it (the peer sees EOF) and
   reopens the spare. [start] opens the first spare, so it exists before
   [start] returns. *)
let open_spare () =
  try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  with Unix.Unix_error _ -> None

(* Whether a connection was shed. Accept reports EMFILE before it looks
   at the queue, so an empty queue shows up only here. Without a spare,
   only a descriptor freed elsewhere ends the exhaustion. *)
let shed t lfd =
  match t.spare with
  | None ->
      t.spare <- open_spare ();
      false
  | Some s ->
      Unix.close s;
      let shed =
        match Unix.accept ~cloexec:true lfd with
        | fd, _ ->
            Unix.close fd;
            true
        | exception Unix.Unix_error _ -> false
      in
      t.spare <- open_spare ();
      shed

let accept_all t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Atomic.incr t.st_accepted;
        Atomic.incr t.st_open;
        assign t fd
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        continue := shed t lfd
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* --- shard event loop --- *)

let handle_read t sh c =
  match Unix.read c.fd sh.rbuf 0 (Bytes.length sh.rbuf) with
  | 0 ->
      (* EOF mid-frame is a truncated transmission — count it like any
         other framing violation; a clean EOF is just a hangup. *)
      if Frame.Decoder.buffered c.dec > 0 then proto_error t sh c
      else close_conn t sh c
  | n -> (
      match Frame.Decoder.feed c.dec sh.rbuf 0 n with
      | Error _ -> proto_error t sh c
      | Ok () ->
          let rec drain () =
            if c.alive then
              match Frame.Decoder.pop c.dec with
              | Some payload ->
                  dispatch t sh c payload;
                  drain ()
              | None -> if Frame.Decoder.error c.dec <> None then proto_error t sh c
          in
          drain ();
          flush t sh c)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t sh c

let adopt t sh fd =
  let c =
    {
      fd;
      dec = Frame.Decoder.create ();
      outq = Queue.create ();
      out_off = 0;
      subscribed = false;
      alive = true;
      wreg = false;
    }
  in
  match Poller.add sh.poller fd ~read:true ~write:false with
  | () -> Hashtbl.replace sh.conns fd c
  | exception Unix.Unix_error (_, _, _) ->
      (* Registration failed (fd limit, raced close): drop the socket. *)
      Atomic.decr t.st_open;
      Atomic.decr sh.nconns;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let drain_wake sh =
  let rec go () =
    match Unix.read sh.wake_r sh.wakebuf 0 (Bytes.length sh.wakebuf) with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let shard_loop t sh =
  let on_event fd ~readable ~writable =
    if fd = sh.wake_r then begin
      if readable then drain_wake sh
    end
    else if List.mem fd t.listeners then begin
      if readable then accept_all t fd
    end
    else begin
      (match Hashtbl.find_opt sh.conns fd with
      | Some c when c.alive && readable -> handle_read t sh c
      | _ -> ());
      match Hashtbl.find_opt sh.conns fd with
      | Some c when c.alive && writable ->
          handle_write t sh c;
          sync_interest sh c
      | _ -> ()
    end
  in
  while not (Atomic.get t.stopping) do
    List.iter (adopt t sh) (drain_atomic sh.inbox_conns);
    (match drain_atomic sh.inbox_bcast with
    | [] -> ()
    | frames ->
        (* Snapshot first: enqueue may evict (mutating the table). *)
        let cs = Hashtbl.fold (fun _ c acc -> c :: acc) sh.conns [] in
        List.iter
          (fun c ->
            if c.subscribed then begin
              List.iter (enqueue t sh c) frames;
              (* One flush for the whole epoch: tick preamble + update
                 leave in a single writev. *)
              flush t sh c
            end)
          cs);
    match Poller.wait sh.poller ~timeout_ms:200 on_event with
    | 0 -> ()
    | _ -> Atomic.incr t.st_poll_wakeups
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) sh.conns;
  Hashtbl.reset sh.conns;
  Poller.close sh.poller

(* --- construction / control --- *)

let make_shard cfg sid =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poller = Poller.create ?backend:cfg.backend () in
  Poller.add poller wake_r ~read:true ~write:false;
  {
    sid;
    conns = Hashtbl.create 64;
    poller;
    wake_r;
    wake_w;
    inbox_conns = Atomic.make [];
    inbox_bcast = Atomic.make [];
    nconns = Atomic.make 0;
    rbuf = Bytes.create 65536;
    wakebuf = Bytes.create 64;
    iov = Array.make (Stdlib.max 1 (Stdlib.min cfg.max_queue_frames 64)) "";
  }

let create ?secret (cfg : config) rng =
  if cfg.shards < 1 then invalid_arg "Net_server.create: shards must be >= 1";
  let secret =
    match secret with Some s -> s | None -> fst (Tre.Server.keygen cfg.prms rng)
  in
  {
    cfg;
    core =
      Server_core.create ~cache_limit:cfg.archive_cache_limit ~wrap:Frame.encode cfg.prms
        cfg.timeline secret;
    shards = Array.init cfg.shards (make_shard cfg);
    listeners = [];
    spare = None;
    udp = None;
    stopping = Atomic.make false;
    shard_domains = [];
    st_accepted = Atomic.make 0;
    st_open = Atomic.make 0;
    st_subscribers = Atomic.make 0;
    st_frames_sent = Atomic.make 0;
    st_bytes_sent = Atomic.make 0;
    st_archive_hits = Atomic.make 0;
    st_archive_misses = Atomic.make 0;
    st_proto_errors = Atomic.make 0;
    st_slow_disconnects = Atomic.make 0;
    st_queue_bytes = Atomic.make 0;
    st_queue_peak = Atomic.make 0;
    st_send_syscalls = Atomic.make 0;
    st_poll_wakeups = Atomic.make 0;
  }

let public t = Server_core.public t.core
let current_epoch t = Server_core.released t.core
let backend t = Poller.backend t.shards.(0).poller
let backend_name t = Poller.backend_name (backend t)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 512;
  Unix.set_nonblock fd;
  fd

let listen_tcp addr port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen fd 512;
  Unix.set_nonblock fd;
  fd

let start t =
  let ls = ref [] in
  (match t.cfg.unix_path with Some p -> ls := listen_unix p :: !ls | None -> ());
  (match t.cfg.tcp_port with
  | Some port -> ls := listen_tcp t.cfg.tcp_addr port :: !ls
  | None -> ());
  if !ls = [] then invalid_arg "Net_server.start: no transport configured";
  t.listeners <- !ls;
  List.iter (fun fd -> Poller.add t.shards.(0).poller fd ~read:true ~write:false) !ls;
  t.spare <- open_spare ();
  (match t.cfg.udp_dest with
  | Some (addr, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
      Unix.setsockopt fd Unix.SO_BROADCAST true;
      t.udp <- Some (fd, Unix.ADDR_INET (Unix.inet_addr_of_string addr, port))
  | None -> ());
  t.shard_domains <-
    Array.to_list
      (Array.map (fun sh -> Domain.spawn (fun () -> shard_loop t sh)) t.shards)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* The per-epoch broadcast: encode once, fan the same frame out to every
   shard (lock-free push + wake). The tick preamble carries the server's
   send stamp so the load harness can measure client-observed latency
   without trusting anything but the shared host clock. *)
let tick t epoch =
  let label = Timeline.label t.cfg.timeline epoch in
  let upd_frame = Server_core.release t.core epoch in
  let tick_frame =
    Frame.encode
      (Netmsg.tick_to_bytes t.cfg.prms
         { Netmsg.tick_label = label; sent_at_us = now_us () })
  in
  Array.iter
    (fun sh ->
      push_atomic sh.inbox_bcast tick_frame;
      push_atomic sh.inbox_bcast upd_frame;
      wake sh)
    t.shards;
  match t.udp with
  | Some (fd, dest) ->
      let datagram = tick_frame ^ upd_frame in
      (try
         ignore
           (Unix.sendto_substring fd datagram 0 (String.length datagram) [] dest)
       with Unix.Unix_error _ -> ())
  | None -> ()

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    Array.iter wake t.shards;
    List.iter Domain.join t.shard_domains;
    t.shard_domains <- [];
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    t.listeners <- [];
    Option.iter Unix.close t.spare;
    t.spare <- None;
    (match t.udp with
    | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    t.udp <- None;
    Array.iter
      (fun sh ->
        (try Unix.close sh.wake_r with Unix.Unix_error _ -> ());
        try Unix.close sh.wake_w with Unix.Unix_error _ -> ())
      t.shards;
    match t.cfg.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ()
  end
