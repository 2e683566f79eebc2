(* perfbench: end-to-end benchmark of the timed-release stack.

     python3 perfbench/run.py --workload release --seed 1 --seconds 30 --trace 0

   (run.py builds this program and runs it with the same arguments.)
   Three open-loop workloads, each a user-visible path of the scheme:

   - release: the server process ticks one epoch every [period]; one
     subscribed receiver decodes and verifies each update and decrypts
     the two letters of its mailbox for that epoch. One op = one epoch.
   - catchup: a returning receiver every [catchup_period] connects,
     pipelines 16 archive queries, batch-verifies the 16 replies, decrypts
     16 letters and closes. 14 epochs per session are recent (cached by
     the server), 2 are old and never repeat (regenerated from s). One op
     = one session.
   - seal: no server; every [period] a sender decodes a receiver key from
     its wire bytes, runs the one-shot [Tre.encrypt] (key validation plus
     encryption) and serializes the ciphertext. One op = one sealed letter.

   Every op is timed from its due instant to its result. Inputs come from
   --seed only; their digest is printed with the diagnostics. The last
   line of stdout is the result object. See README.md in this directory
   for the metrics and how to read a trace. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------- settings *)

(* Every workload is an open loop below half the load process's
   capacity: one epoch, one seal every 40 ms (about a quarter), one
   catch-up session every 150 ms (just under half; 200 sessions in
   30 s, so hundreds of samples lie behind its p90). *)
let period = 0.040
let catchup_period = 0.150
let letters_per_epoch = 2
let items = 16 (* catchup: updates per session *)
let old_items = 2 (* of which the server must regenerate *)
let history = 256 (* recent epochs broadcast before catchup, so cached *)
let pool_per_epoch = 4 (* catchup letters per recent epoch *)
let base_epoch = 1_000_000 (* live epochs start above, old ones below *)
let population = 64 (* seal: receivers *)
(* A phase runs in [segments] timed segments. Before the first and
   after each one comes a set-up point: [setups_per_point] set-ups back
   to back. setup_s thus samples the host across the whole run, as the
   timed ops do. *)
let segments = 5
let setups_per_point = 5
let msg_len = 32
let replay_ops = 16

(* ----------------------------------------------------------- statistics *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; an infinite neighbour
   (a failed op) makes the percentile infinite. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    if i >= n - 1 || f = 0.0 then a.(i)
    else if a.(i + 1) = infinity then infinity
    else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
  end

let median l = percentile (sorted_array l) 0.5
let per n x = if n = 0 then 0.0 else x /. float_of_int n

let cpu_s = Server_proc.cpu_s

(* A fixed pure-OCaml loop, timed at the start and end of every run: it
   tells host speed drift apart from benchmark noise and is never folded
   into a metric. It does schoolbook limb products over small int arrays,
   like the field arithmetic under every pairing: on the reference host a
   dependent register-only loop barely moved while pairings slowed ~2x. *)
let host_probe_ms () =
  let once () =
    let a = Array.init 16 (fun i -> (i * 0x9E3779B1) land 0x3FFFFFF) in
    let b = Array.init 16 (fun i -> (i * 0x85EBCA77) land 0x3FFFFFF) in
    let acc = Array.make 32 0 in
    let t = now () in
    for r = 1 to 3000 do
      for i = 0 to 15 do
        let ai = a.(i) in
        for j = 0 to 15 do
          acc.(i + j) <- (acc.(i + j) + (ai * b.(j))) land 0xFFFFFFFFFFFF
        done
      done;
      a.(r land 15) <- acc.(r land 31) land 0x3FFFFFF
    done;
    ignore (Sys.opaque_identity acc);
    (now () -. t) *. 1e3
  in
  median (List.init 5 (fun _ -> once ()))

(* (steal, total) jiffies of all vCPUs, from the "cpu" line of
   /proc/stat; (0, 0) where it is unavailable. Steal is time a vCPU
   wanted to run while the hypervisor ran something else. On the
   reference host it comes in episodes of tens of seconds to minutes
   and stretches ops while they run, which moves the p90 of the short
   ops most. Like [host_probe_ms], a diagnostic only. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let l = try input_line ic with End_of_file -> "" in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: f when List.length f >= 8 ->
          let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string f) in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))

(* ------------------------------------------------------------ run state *)

let tr = Trace.create ()
let problems = ref [] (* reasons the run is not correct *)

let problem fmt =
  Printf.ksprintf
    (fun s -> if not (List.mem s !problems) then problems := s :: !problems)
    fmt

(* Replay timings: primitive name -> per-call ms. *)
let replays : (string, float list) Hashtbl.t = Hashtbl.create 16

let timed name f =
  let t = now () in
  let v = f () in
  let d = (now () -. t) *. 1e3 in
  Hashtbl.replace replays name
    (d :: Option.value ~default:[] (Hashtbl.find_opt replays name));
  v

let rand_int rng bound =
  let b = Hashing.Drbg.generate rng 4 in
  let v =
    (Char.code b.[0] lsl 24) lor (Char.code b.[1] lsl 16)
    lor (Char.code b.[2] lsl 8) lor Char.code b.[3]
  in
  v mod bound

(* ------------------------------------------------------------- sockets *)

type conn = { fd : Unix.file_descr; dec : Frame.Decoder.t }

exception Timeout

let rbuf = Bytes.create 65536

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; dec = Frame.Decoder.create () }

let send c s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0

(* Next frame payload: blocks on readiness (select) until [deadline];
   the read plus decoder work is the [frame.read] span. *)
let rec next_frame c ~deadline =
  match Frame.Decoder.pop c.dec with
  | Some p -> p
  | None -> (
      (match Frame.Decoder.error c.dec with
      | Some e -> failwith ("framing: " ^ e)
      | None -> ());
      let wait = deadline -. now () in
      if wait <= 0.0 then raise Timeout;
      match Unix.select [ c.fd ] [] [] wait with
      | [], _, _ -> raise Timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_frame c ~deadline
      | _ ->
          let sp = Trace.enter tr "frame.read" (Trace.current_op tr) in
          let n = Unix.read c.fd rbuf 0 (Bytes.length rbuf) in
          let fed = if n = 0 then Ok () else Frame.Decoder.feed c.dec rbuf 0 n in
          let p = Frame.Decoder.pop c.dec in
          Trace.leave tr sp;
          if n = 0 then failwith "server closed the connection";
          (match fed with Error e -> failwith ("framing: " ^ e) | Ok () -> ());
          match p with Some p -> p | None -> next_frame c ~deadline)

(* -------------------------------------------------------------- inputs *)

type letter = { label : string; ct : string; msg : string }

(* Key material is a function of the seed, so the generator (before
   timing) and every set-up derive the same keys. *)
let derive_keys prms seed_str =
  let rng = Hashing.Drbg.create ~seed:("perfbench-keys|" ^ seed_str) () in
  let ssec, spub = Tre.Server.keygen prms rng in
  let usec, upub = Tre.User.keygen prms spub rng in
  (ssec, spub, usec, upub)

type seal_op = { who : int; rt : string; text : string; rng_seed : string }

type inputs =
  | Release_in of letter array array array (* phase -> epoch -> letters *)
  | Catchup_in of letter array array array (* phase -> session -> items *)
  | Seal_in of {
      keys : (Tre.User.secret * string) array; (* secret, public key bytes *)
      ops : seal_op array array; (* phase -> op *)
    }

let digest_inputs ~workload ~seed_str inputs =
  let h = Hashing.Sha256.init () in
  let add s =
    Hashing.Sha256.update h (string_of_int (String.length s));
    Hashing.Sha256.update h ":";
    Hashing.Sha256.update h s
  in
  add workload;
  add seed_str;
  let letters = Array.iter (Array.iter (Array.iter (fun l -> add l.label; add l.ct; add l.msg))) in
  (match inputs with
  | Release_in ph ->
      add (Printf.sprintf "schedule period=%.6f first=%d" period (base_epoch + 1));
      letters ph
  | Catchup_in ph ->
      add (Printf.sprintf "history first=%d count=%d" (base_epoch + 1) history);
      letters ph
  | Seal_in { keys; ops } ->
      Array.iter (fun (_, pk) -> add pk) keys;
      Array.iter
        (Array.iter (fun o ->
             add (string_of_int o.who);
             add o.rt;
             add o.text;
             add o.rng_seed))
        ops);
  Hashing.Hex.encode (Hashing.Sha256.finalize h)

let gen_release prms tl rng (_, spub, _, upub) ~phases ~epochs =
  let enc = Tre.Encryptor.create prms spub upub in
  Release_in
    (Array.init phases (fun ph ->
         Array.init epochs (fun i ->
             let label = Timeline.label tl (base_epoch + 1 + (ph * epochs) + i) in
             Array.init letters_per_epoch (fun _ ->
                 let msg = Hashing.Drbg.generate rng msg_len in
                 let ct = Tre.Encryptor.encrypt enc ~release_time:label rng msg in
                 { label; ct = Tre.ciphertext_to_bytes prms ct; msg }))))

(* Recent epochs draw their letters from a pool (pool_per_epoch per
   epoch); every old epoch is drawn once in the whole run, so the server
   regenerates exactly [old_items] updates per session. *)
let gen_catchup prms tl rng (_, spub, _, upub) ~phases ~sessions =
  let enc = Tre.Encryptor.create prms spub upub in
  let letter e =
    let label = Timeline.label tl e in
    let msg = Hashing.Drbg.generate rng msg_len in
    let ct = Tre.Encryptor.encrypt enc ~release_time:label rng msg in
    { label; ct = Tre.ciphertext_to_bytes prms ct; msg }
  in
  let pool =
    Array.init history (fun j ->
        Array.init pool_per_epoch (fun _ -> letter (base_epoch + 1 + j)))
  in
  let used_old = Hashtbl.create 4096 in
  let rec fresh_old () =
    let e = 1 + rand_int rng (base_epoch - 1) in
    if Hashtbl.mem used_old e then fresh_old ()
    else begin
      Hashtbl.add used_old e ();
      e
    end
  in
  let session () =
    let recent = Hashtbl.create items in
    let rec pick () =
      let j = rand_int rng history in
      if Hashtbl.mem recent j then pick () else Hashtbl.add recent j ()
    in
    for _ = 1 to items - old_items do
      pick ()
    done;
    let olds = List.init old_items (fun _ -> fresh_old ()) in
    let recents = Hashtbl.fold (fun j () acc -> j :: acc) recent [] in
    (* a returning receiver asks for its pending epochs oldest first *)
    let olds = List.sort compare olds and recents = List.sort compare recents in
    Array.of_list
      (List.map letter olds
      @ List.map (fun j -> pool.(j).(rand_int rng pool_per_epoch)) recents)
  in
  Catchup_in (Array.init phases (fun _ -> Array.init sessions (fun _ -> session ())))

let gen_seal prms tl rng (_, spub, _, _) ~phases ~ops =
  let keys =
    Array.init population (fun _ ->
        let usec, upub = Tre.User.keygen prms spub rng in
        (usec, Tre.user_public_to_bytes prms upub))
  in
  let op _ =
    {
      who = rand_int rng population;
      rt = Timeline.label tl (1 + rand_int rng (base_epoch + history));
      text = Hashing.Drbg.generate rng msg_len;
      rng_seed = Hashing.Drbg.generate rng 32;
    }
  in
  Seal_in { keys; ops = Array.init phases (fun _ -> Array.init ops op) }

(* -------------------------------------------------------------- set-up *)

type env = {
  prms : Pairing.params;
  ssec : Tre.Server.secret;
  spub : Tre.Server.public;
  usec : Tre.User.secret;
  vrf : Tre.verifier;
  server : Server_proc.t option;
  sub : conn option; (* release: the subscribed connection *)
}

(* One set-up, as a user of the system pays it: build the parameter set
   (what [Pairing.by_name] does on first use), derive keys and the
   verifier, start the daemon process, connect and subscribe. Sealing
   needs only the parameters and the server key from its wire bytes. *)
let setup ~workload ~pname ~seed_str ~tl ~sock ~spub_bytes =
  let t0 = now () in
  let base = Option.get (Pairing.by_name pname) in
  let prms =
    Pairing.make ~family:base.Pairing.family ~name:pname ~p:base.Pairing.p
      ~q:base.Pairing.q ()
  in
  if workload = "seal" then begin
    let spub =
      match Tre.server_public_of_bytes prms spub_bytes with
      | Ok p -> p
      | Error e -> failwith ("server key: " ^ e)
    in
    let dt = now () -. t0 in
    (* the secrets and verifier only serve the output check, untimed *)
    let ssec, _, usec, _ = derive_keys prms seed_str in
    ( { prms; ssec; spub; usec; vrf = Tre.make_verifier prms spub; server = None; sub = None },
      dt )
  end
  else begin
    let ssec, spub, usec, _ = derive_keys prms seed_str in
    let vrf = Tre.make_verifier prms spub in
    let server = Server_proc.spawn prms ssec tl sock in
    let c = connect sock in
    send c (Frame.encode (Netmsg.subscribe_to_bytes prms));
    (match Netmsg.hello_of_bytes prms (next_frame c ~deadline:(now () +. 10.0)) with
    | Ok h when Curve.equal h.Netmsg.server_sg spub.Tre.Server.sg -> ()
    | Ok _ -> failwith "hello carries another server key"
    | Error e -> failwith ("hello: " ^ e));
    let sub =
      if workload = "release" then Some c
      else begin
        Unix.close c.fd;
        None
      end
    in
    ({ prms; ssec; spub; usec; vrf; server = Some server; sub }, now () -. t0)
  end

let teardown env =
  Option.iter (fun c -> Unix.close c.fd) env.sub;
  match env.server with Some s -> Server_proc.stop s | None -> 0

(* Set-up times in s, one array per set-up point. *)
let setup_samples : float array list ref = ref []

(* One set-up point. Every set-up but the last is torn down at once; the
   last is returned when [keep]. The heap is collected on either side,
   so neither the set-ups nor the timed segment pay for the other's
   garbage. Tracing is off meanwhile. *)
let setup_point ~keep make =
  let was = tr.Trace.enabled in
  tr.Trace.enabled <- false;
  Gc.full_major ();
  let times = Array.make setups_per_point 0.0 in
  let rec go k =
    let env, dt = make () in
    times.(k) <- dt;
    if keep && k = setups_per_point - 1 then Some env
    else begin
      ignore (teardown env);
      if k = setups_per_point - 1 then None else go (k + 1)
    end
  in
  let env = go 0 in
  setup_samples := times :: !setup_samples;
  Gc.full_major ();
  tr.Trace.enabled <- was;
  env

(* setup_s: pass r is the r-th set-up of every point, and its value is
   their mean, so each pass spans the run; setup_s is the median pass. *)
let setup_s () =
  let points = !setup_samples in
  median
    (List.init setups_per_point (fun r ->
         List.fold_left (fun a t -> a +. t.(r)) 0.0 points
         /. float_of_int (List.length points)))

(* --------------------------------------------------------------- gates *)

(* The receiver's decode-plus-verify path as the workload runs it:
   single verification in release, batch verification in catchup. *)
let accepts_updates workload env payloads =
  let decoded = List.map (Tre.update_of_bytes env.prms) payloads in
  List.for_all Result.is_ok decoded
  &&
  let ups = List.map Result.get_ok decoded in
  if workload = "release" then
    List.for_all (Tre.verify_update_with env.prms env.vrf) ups
  else Tre.Verifier.verify_updates env.prms env.vrf ups

let off_subgroup_point prms =
  let rec go i =
    let p = Pairing.hash_to_g1_unclamped prms (Printf.sprintf "perfbench-off-g1|%d" i) in
    if Curve.on_curve prms.Pairing.curve p && not (Pairing.in_g1 prms p) then p
    else go (i + 1)
  in
  go 0

let update_gates workload env tl =
  let prms = env.prms in
  let n = if workload = "release" then 1 else items in
  let epochs = List.init n (fun i -> base_epoch + 1 + i) in
  let genuine =
    List.map (fun e -> Tre.issue_update prms env.ssec (Timeline.label tl e)) epochs
  in
  let enc = List.map (Tre.update_to_bytes prms) in
  let swap_last f = List.mapi (fun i u -> if i = n - 1 then f u else u) genuine in
  let relabeled =
    swap_last (fun u -> { u with Tre.update_time = Timeline.label tl (base_epoch + 7 * items) })
  in
  let off_g1 = swap_last (fun u -> { u with Tre.update_value = off_subgroup_point prms }) in
  let future =
    let c = connect (Option.get env.server).Server_proc.sock in
    let q = Timeline.label tl (10 * base_epoch) in
    send c (Frame.encode (Netmsg.archive_query_to_bytes prms q));
    let reply = next_frame c ~deadline:(now () +. 10.0) in
    Unix.close c.fd;
    match Netmsg.archive_miss_of_bytes prms reply with
    | Ok (l, Netmsg.Future_refused) -> l = q
    | Ok (_, Netmsg.Unknown_label) | Error _ -> false
  in
  [
    ("genuine_accepted", accepts_updates workload env (enc genuine));
    ("relabeled_rejected", not (accepts_updates workload env (enc relabeled)));
    ("off_subgroup_rejected", not (accepts_updates workload env (enc off_g1)));
    ("future_refused", future);
  ]

let seal_gates env keys tl =
  let prms = env.prms in
  let pk i =
    Result.get_ok (Tre.user_public_of_bytes prms (snd keys.(i)))
  in
  (* (aG, bsG) with b <> a: on the curve, in G1, but not a receiver key *)
  let bad = { (pk 0) with Tre.User.asg = (pk 1).Tre.User.asg } in
  let rejected =
    match Tre.user_public_of_bytes prms (Tre.user_public_to_bytes prms bad) with
    | Error _ -> false
    | Ok k -> (
        match
          Tre.encrypt prms env.spub k ~release_time:(Timeline.label tl 1)
            (Hashing.Drbg.create ~seed:"perfbench-gate" ())
            "gate"
        with
        | _ -> false
        | exception Tre.Invalid_receiver_key -> true)
  in
  [ ("foreign_key_rejected", rejected) ]

(* -------------------------------------------------------------- phases *)

type phase = {
  attempted : int;
  failed : int;
  elapsed : float;
  lat : float array; (* ms per attempted op, sorted; infinity = failed *)
  cpu : float; (* load process CPU, s *)
  minor_words : float;
  major_gcs : int;
  marks : (Server_proc.mark * Server_proc.mark) list; (* per segment *)
  waits : float array; (* release: due -> update in hand, ms, sorted *)
  late : float array; (* op start (release: tick start) - due, ms, sorted *)
  ticks : int; (* epochs the server ticked *)
}

(* What a traced phase keeps for the replay: per completed op, the
   decoded objects and the results the [Tre] calls returned. *)
type kept =
  | K_release of Tre.update * (Tre.ciphertext * string) list
  | K_catchup of Tre.update list * (Tre.ciphertext * string) list
  | K_seal of Tre.User.public * seal_op * string

let kept : kept list ref = ref []
let keep k = if tr.Trace.enabled then kept := k :: !kept

(* Server CPU of each traced tick, ms. The tick's wall span also holds
   the time its thread waits for a CPU after handing the frame off. *)
let tick_cpu : float list ref = ref []

let counters env f =
  let m0 = Option.map Server_proc.mark env.server in
  let g0 = Gc.quick_stat () and c0 = cpu_s () in
  let r = f () in
  let c1 = cpu_s () and g1 = Gc.quick_stat () in
  let m1 = Option.map Server_proc.mark env.server in
  let marks = match (m0, m1) with Some a, Some b -> [ (a, b) ] | _ -> [] in
  ( r,
    c1 -. c0,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections,
    marks )

let check_plain ~what got want =
  if got <> want then begin
    problem "%s: wrong plaintext" what;
    false
  end
  else true

let decrypt_letter env ~what upd (l : letter) =
  match Trace.span tr "codec.ciphertext_of_bytes" (Trace.current_op tr) (fun () ->
            Tre.ciphertext_of_bytes env.prms l.ct)
  with
  | Error e ->
      problem "%s: ciphertext decode: %s" what e;
      None
  | Ok ct ->
      let m =
        Trace.span tr "tre.decrypt" (Trace.current_op tr) (fun () ->
            Tre.decrypt env.prms env.usec upd ct)
      in
      if check_plain ~what m l.msg then Some (ct, m) else None

(* Epochs [first], [first]+1, ... of [letters]: the server ticks them on
   the schedule and they arrive in that order on the one subscription.
   Each epoch's root span opens at its due instant, before its frame is
   read, so the read and every call after it nest under it. *)
let run_release env (letters : letter array array) ~first =
  let n = Array.length letters in
  let srv = Option.get env.server and c = Option.get env.sub in
  let lat = Array.make n infinity and waits = Array.make n infinity in
  let roots = Array.make n (-1) in
  let t0 = now () +. 0.05 in
  let deadline = t0 +. (float_of_int n *. period) +. 5.0 in
  let ((ticks, completed, t_end), cpu, minor_words, major_gcs, marks) =
    counters env (fun () ->
        Server_proc.start_release srv ~t0 ~period ~first ~count:n;
        let completed = ref 0 in
        let epoch_op i ~due =
          let epoch = first + i in
          roots.(i) <- Trace.current tr;
          let rec update_frame () =
            let p = next_frame c ~deadline in
            match Codec.peek_kind p with
            | Ok Codec.Net_tick -> update_frame ()
            | _ -> p
          in
          let payload = update_frame () in
          let t_hand = now () in
          ignore (Trace.record tr "release.wait" ~op:epoch ~parent:roots.(i) due t_hand);
          match
            Trace.span tr "codec.update_of_bytes" epoch (fun () ->
                Tre.update_of_bytes env.prms payload)
          with
          | Error e -> problem "release: update decode: %s" e
          | Ok upd when upd.Tre.update_time <> letters.(i).(0).label ->
              problem "release: update for an unexpected epoch"
          | Ok upd ->
              let ok =
                Trace.span tr "tre.verify_update" epoch (fun () ->
                    Tre.verify_update_with env.prms env.vrf upd)
              in
              if not ok then problem "release: genuine update rejected";
              let plains =
                List.filter_map (decrypt_letter env ~what:"release" upd) (Array.to_list letters.(i))
              in
              if ok && List.length plains = letters_per_epoch then begin
                incr completed;
                lat.(i) <- (now () -. due) *. 1e3;
                waits.(i) <- (t_hand -. due) *. 1e3;
                keep (K_release (upd, plains))
              end
        in
        (try
           for i = 0 to n - 1 do
             let due = t0 +. (float_of_int i *. period) in
             Trace.span tr "op" (first + i) ~start:due (fun () -> epoch_op i ~due)
           done
         with Timeout | Failure _ | Unix.Unix_error _ -> ());
        (Server_proc.release_ticks srv, !completed, now ()))
  in
  let late =
    Array.mapi
      (fun k (st, en, _) ->
        let due = t0 +. (float_of_int k *. period) in
        if roots.(k) >= 0 then
          ignore (Trace.record tr "net_server.tick" ~op:(first + k) ~parent:roots.(k) st en);
        (st -. due) *. 1e3)
      ticks
  in
  if tr.Trace.enabled then
    Array.iter (fun (_, _, c) -> tick_cpu := (c *. 1e3) :: !tick_cpu) ticks;
  Array.sort compare lat;
  Array.sort compare waits;
  Array.sort compare late;
  {
    attempted = n;
    failed = n - completed;
    elapsed = t_end -. t0;
    lat; cpu; minor_words; major_gcs; marks; waits; late;
    ticks = Array.length ticks;
  }

(* Connect, pipeline one archive query per letter, and wait for as many
   replies (they come back in query order). *)
let fetch_updates prms sock (plan : letter array) =
  let c = connect sock in
  match
    let b = Buffer.create 1024 in
    Array.iter (fun l -> Frame.add b (Netmsg.archive_query_to_bytes prms l.label)) plan;
    send c (Buffer.contents b);
    let deadline = now () +. 10.0 in
    Array.map (fun _ -> next_frame c ~deadline) plan
  with
  | replies -> (c, replies)
  | exception e ->
      Unix.close c.fd;
      raise e

let open_session env (plan : letter array) replies ~op =
  let prms = env.prms in
  let decoded =
    Array.mapi
      (fun i p ->
        match Codec.peek_kind p with
        | Ok Codec.Net_archive_miss ->
            problem "catchup: archive miss for a past epoch";
            None
        | _ -> (
            match
              Trace.span tr "codec.update_of_bytes" op (fun () -> Tre.update_of_bytes prms p)
            with
            | Ok u when u.Tre.update_time = plan.(i).label -> Some u
            | Ok _ ->
                problem "catchup: reply for another epoch";
                None
            | Error e ->
                problem "catchup: update decode: %s" e;
                None))
      replies
  in
  if Array.exists Option.is_none decoded then None
  else begin
    let ups = Array.to_list (Array.map Option.get decoded) in
    if
      not
        (Trace.span tr "tre.verify_updates" op (fun () ->
             Tre.Verifier.verify_updates prms env.vrf ups))
    then begin
      problem "catchup: genuine batch rejected";
      None
    end
    else begin
      let plains =
        List.filter_map Fun.id
          (List.mapi (fun i u -> decrypt_letter env ~what:"catchup" u plan.(i)) ups)
      in
      if List.length plains = items then Some (ups, plains) else None
    end
  end

let catchup_session env sock (plan : letter array) ~op ~due =
  Trace.span tr "op" op ~start:due (fun () ->
      match
        Trace.span tr "catchup.archive_wait" op (fun () -> fetch_updates env.prms sock plan)
      with
      | exception (Timeout | Failure _ | Unix.Unix_error _) -> None
      | c, replies ->
          Fun.protect
            ~finally:(fun () -> Unix.close c.fd)
            (fun () -> open_session env plan replies ~op))

(* Open loop for the load process's own arrivals: op k is due at
   t0 + k * period. The loader sleeps until an op is due (a late start
   shows in [gen.late_ms_p90]) and times it from the due instant, so a
   slow op also delays the ops queued behind it. [f k ~due] is true when
   op k completed correctly. *)
let open_loop env ~period ~count f =
  let lat = Array.make count infinity and late = Array.make count 0.0 in
  let completed = ref 0 in
  let t0 = now () +. 0.05 in
  let (), cpu, minor_words, major_gcs, marks =
    counters env (fun () ->
        for k = 0 to count - 1 do
          let due = t0 +. (float_of_int k *. period) in
          let wait = due -. now () in
          if wait > 0.0 then Unix.sleepf wait;
          late.(k) <- (now () -. due) *. 1e3;
          if f k ~due then begin
            incr completed;
            lat.(k) <- (now () -. due) *. 1e3
          end
        done)
  in
  let elapsed = now () -. t0 in
  Array.sort compare lat;
  Array.sort compare late;
  {
    attempted = count;
    failed = count - !completed;
    elapsed;
    lat; cpu; minor_words; major_gcs; marks; late;
    waits = [||];
    ticks = 0;
  }

(* The segments of a phase as one phase. *)
let merge_segments = function
  | [] -> invalid_arg "merge_segments"
  | ps ->
      let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
      let sumf f = List.fold_left (fun a p -> a +. f p) 0.0 ps in
      let cat f =
        let a = Array.concat (List.map f ps) in
        Array.sort compare a;
        a
      in
      {
        attempted = sum (fun p -> p.attempted);
        failed = sum (fun p -> p.failed);
        elapsed = sumf (fun p -> p.elapsed);
        lat = cat (fun p -> p.lat);
        cpu = sumf (fun p -> p.cpu);
        minor_words = sumf (fun p -> p.minor_words);
        major_gcs = sum (fun p -> p.major_gcs);
        marks = List.concat_map (fun p -> p.marks) ps;
        waits = cat (fun p -> p.waits);
        late = cat (fun p -> p.late);
        ticks = sum (fun p -> p.ticks);
      }

(* Sessions [lo, lo + len) of a phase; the session index is the op id. *)
let run_catchup env (sessions : letter array array) ~lo ~len =
  let sock = (Option.get env.server).Server_proc.sock in
  open_loop env ~period:catchup_period ~count:len (fun i ~due ->
      match catchup_session env sock sessions.(lo + i) ~op:(lo + i) ~due with
      | Some (ups, plains) ->
          keep (K_catchup (ups, plains));
          true
      | None -> false)

let sealed : string option array ref = ref [||]

let seal_one env keys (o : seal_op) =
  let prms = env.prms in
  let rng = Hashing.Drbg.create ~seed:o.rng_seed () in
  let op = Trace.current_op tr in
  match
    Trace.span tr "codec.user_public_of_bytes" op (fun () ->
        Tre.user_public_of_bytes prms (snd keys.(o.who)))
  with
  | Error e ->
      problem "seal: receiver key decode: %s" e;
      None
  | Ok pk -> (
      match
        Trace.span tr "tre.encrypt" op (fun () ->
            Tre.encrypt prms env.spub pk ~release_time:o.rt rng o.text)
      with
      | exception Tre.Invalid_receiver_key ->
          problem "seal: genuine receiver key rejected";
          None
      | ct ->
          Some
            ( pk,
              Trace.span tr "codec.ciphertext_to_bytes" op (fun () ->
                  Tre.ciphertext_to_bytes prms ct) ))

(* Seals [lo, lo + len) of a phase; [!sealed] holds the phase's output. *)
let run_seal env keys (ops : seal_op array) ~lo ~len =
  open_loop env ~period ~count:len (fun i ~due ->
      let i = lo + i in
      match Trace.span tr "op" i ~start:due (fun () -> seal_one env keys ops.(i)) with
      | Some (pk, b) ->
          !sealed.(i) <- Some b;
          keep (K_seal (pk, ops.(i), b));
          true
      | None -> false)

(* Every sealed letter must open: decrypt a seeded sample of them with
   the receiver's key and the update for their release time. *)
let check_sealed env keys (ops : seal_op array) rng =
  let done_ =
    List.filter_map
      (fun i -> Option.map (fun b -> (i, b)) !sealed.(i))
      (List.init (Array.length ops) Fun.id)
  in
  let arr = Array.of_list done_ in
  let n = Array.length arr in
  for _ = 1 to min n 64 do
    let i, b = arr.(rand_int rng n) in
    let o = ops.(i) in
    match Tre.ciphertext_of_bytes env.prms b with
    | Error e -> problem "seal: sealed letter does not decode: %s" e
    | Ok ct ->
        if ct.Tre.release_time <> o.rt then problem "seal: wrong release time";
        let upd = Tre.issue_update env.prms env.ssec o.rt in
        ignore
          (check_plain ~what:"seal"
             (Tre.decrypt env.prms (fst keys.(o.who)) upd ct)
             o.text)
  done

(* -------------------------------------------------------------- replay *)

(* The pairing.* and curve.* rows: after the traced phase, re-run the
   primitives each [Tre] call is made of, on a sample of that phase's
   own inputs, timing each call. Each replay must reproduce the result
   of the call it breaks down, or the run fails. *)

let replay_decrypt prms a upd (ct, plain) =
  let k = timed "pairing.pairing" (fun () -> Pairing.pairing prms ct.Tre.u upd.Tre.update_value) in
  let k = timed "pairing.gt_pow" (fun () -> Pairing.gt_pow prms k (Tre.User.secret_to_scalar a)) in
  let mask = timed "pairing.h2" (fun () -> Pairing.h2 prms k (String.length ct.Tre.v)) in
  if Hashing.Kdf.xor ct.Tre.v mask <> plain then problem "replay: decrypt differs from Tre.decrypt"

let replay_decode prms p =
  let b = Curve.to_bytes prms.Pairing.curve p in
  (match timed "curve.of_bytes" (fun () -> Curve.of_bytes prms.Pairing.curve b) with
  | Some q when Curve.equal p q -> ()
  | _ -> problem "replay: point decode differs");
  if not (timed "pairing.in_g1" (fun () -> Pairing.in_g1 prms p)) then
    problem "replay: decoded point not in G1"

let replay env spub =
  let prms = env.prms in
  let curve = prms.Pairing.curve in
  let vg = Pairing.prepare prms spub.Tre.Server.g
  and vsg = Pairing.prepare prms spub.Tre.Server.sg in
  let all = Array.of_list (List.rev !kept) in
  let n = Array.length all in
  let stride = max 1 (n / replay_ops) in
  let sample = List.filteri (fun i _ -> i mod stride = 0 && i / stride < replay_ops) (Array.to_list all) in
  List.iter
    (function
      | K_release (upd, plains) ->
          replay_decode prms upd.Tre.update_value;
          let v =
            timed "pairing.in_g1" (fun () -> Pairing.in_g1 prms upd.Tre.update_value)
            &&
            let h = timed "pairing.hash_to_g1" (fun () -> Pairing.hash_to_g1 prms upd.Tre.update_time) in
            timed "pairing.check_prepared" (fun () ->
                Pairing.pairing_equal_check_prepared prms ~lhs:(vsg, h)
                  ~rhs:(vg, upd.Tre.update_value))
          in
          if not v then problem "replay: verify differs from Tre.verify_update_with";
          List.iter
            (fun (ct, plain) ->
              replay_decode prms ct.Tre.u;
              replay_decrypt prms env.usec upd (ct, plain))
            plains
      | K_catchup (ups, plains) ->
          List.iter (fun u -> replay_decode prms u.Tre.update_value) ups;
          let seed =
            let b = Buffer.create 256 in
            Buffer.add_string b "TRE-update-batch|";
            Buffer.add_string b (Curve.to_bytes curve spub.Tre.Server.g);
            Buffer.add_string b (Curve.to_bytes curve spub.Tre.Server.sg);
            List.iter
              (fun u ->
                Buffer.add_string b (Printf.sprintf "|%d|" (String.length u.Tre.update_time));
                Buffer.add_string b u.Tre.update_time;
                Buffer.add_string b (Curve.to_bytes curve u.Tre.update_value))
              ups;
            Buffer.contents b
          in
          let ds = Pairing.batch_exponents prms ~seed (List.length ups) in
          let hs =
            List.map
              (fun u ->
                timed "pairing.hash_to_g1_unclamped" (fun () ->
                    Pairing.hash_to_g1_unclamped prms u.Tre.update_time))
              ups
          in
          let sum_h = timed "curve.msm" (fun () -> Curve.msm curve (List.combine ds hs)) in
          let sum_sig =
            timed "curve.msm" (fun () ->
                Curve.msm curve (List.map2 (fun d u -> (d, u.Tre.update_value)) ds ups))
          in
          let v =
            List.for_all (fun u -> Curve.on_curve curve u.Tre.update_value) ups
            && timed "pairing.in_g1" (fun () -> Pairing.in_g1 prms sum_sig)
            &&
            let hh = timed "curve.mul" (fun () -> Curve.mul curve prms.Pairing.cofactor sum_h) in
            timed "pairing.check_prepared" (fun () ->
                Pairing.pairing_equal_check_prepared prms ~lhs:(vsg, hh) ~rhs:(vg, sum_sig))
          in
          if not v then problem "replay: batch verify differs from Tre.Verifier.verify_updates";
          List.iter2
            (fun u (ct, plain) ->
              replay_decode prms ct.Tre.u;
              replay_decrypt prms env.usec u (ct, plain))
            ups plains
      | K_seal (pk, o, bytes) ->
          replay_decode prms pk.Tre.User.ag;
          replay_decode prms pk.Tre.User.asg;
          let valid =
            timed "pairing.in_g1" (fun () -> Pairing.in_g1 prms pk.Tre.User.ag)
            && timed "pairing.in_g1" (fun () -> Pairing.in_g1 prms pk.Tre.User.asg)
            && (not (Curve.is_infinity pk.Tre.User.ag))
            && timed "pairing.equal_check" (fun () ->
                   Pairing.pairing_equal_check prms ~lhs:(pk.Tre.User.ag, spub.Tre.Server.sg)
                     ~rhs:(spub.Tre.Server.g, pk.Tre.User.asg))
          in
          if not valid then problem "replay: key validation differs from Tre.encrypt";
          let rng = Hashing.Drbg.create ~seed:o.rng_seed () in
          let r = Pairing.random_scalar prms rng in
          let u = timed "curve.mul" (fun () -> Curve.mul curve r spub.Tre.Server.g) in
          let rasg = timed "curve.mul" (fun () -> Curve.mul curve r pk.Tre.User.asg) in
          let h = timed "pairing.hash_to_g1" (fun () -> Pairing.hash_to_g1 prms o.rt) in
          let k = timed "pairing.pairing" (fun () -> Pairing.pairing prms rasg h) in
          let mask = timed "pairing.h2" (fun () -> Pairing.h2 prms k (String.length o.text)) in
          let ct = { Tre.u; v = Hashing.Kdf.xor o.text mask; release_time = o.rt } in
          if Tre.ciphertext_to_bytes prms ct <> bytes then
            problem "replay: ciphertext differs from Tre.encrypt")
    sample;
  List.length sample

(* -------------------------------------------------------------- output *)

let metric_json (name, value, unit) =
  let v = if Float.is_finite value then value else 1e9 in
  Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit

let e2e_metrics (p : phase) ~setup_s ~rss_mb =
  let done_ = p.attempted - p.failed in
  [
    ("ops_per_s", float_of_int done_ /. p.elapsed, "op/s");
    ("latency_ms_p50", percentile p.lat 0.5, "ms");
    ("latency_ms_p90", percentile p.lat 0.9, "ms");
    ("cpu_ms_per_op", per done_ (p.cpu *. 1e3), "ms");
    ("setup_s", setup_s, "s");
    ("rss_mb", rss_mb, "MB");
  ]

(* Spans timed in the traced phase: median per call, calls per op. *)
let span_layers =
  [ "net_server.tick"; "frame.read"; "catchup.archive_wait"; "codec.update_of_bytes";
    "codec.ciphertext_of_bytes"; "codec.user_public_of_bytes";
    "codec.ciphertext_to_bytes"; "tre.verify_update"; "tre.verify_updates";
    "tre.decrypt"; "tre.encrypt" ]

let replay_layers =
  [ "pairing.in_g1"; "curve.of_bytes"; "pairing.hash_to_g1"; "pairing.check_prepared";
    "pairing.pairing"; "pairing.gt_pow"; "pairing.h2"; "pairing.hash_to_g1_unclamped";
    "curve.msm"; "pairing.equal_check"; "curve.mul" ]

let layer_metrics ~(untraced : phase) ~(traced : phase) ~replayed ~server_rss_mb =
  let ops = traced.attempted - traced.failed in
  let names = Trace.by_name tr in
  let span_rows name =
    let durs, _ = Option.value ~default:([], []) (Hashtbl.find_opt names name) in
    [ (name ^ "_ms", median durs, "ms");
      (name ^ ".calls_per_op", per ops (float_of_int (List.length durs)), "count/op") ]
  in
  let replay_rows name =
    let durs = Option.value ~default:[] (Hashtbl.find_opt replays name) in
    [ (name ^ "_ms", median durs, "ms");
      (name ^ ".calls_per_op", per replayed (float_of_int (List.length durs)), "count/op") ]
  in
  (* counters come from the untraced phase of this run *)
  let u = untraced in
  let uops = u.attempted - u.failed in
  (* server counter deltas, summed over the segments *)
  let srv f = List.fold_left (fun acc (a, b) -> acc +. f a b) 0.0 u.marks in
  let st f = srv (fun a b -> float_of_int (f b.Server_proc.stats - f a.Server_proc.stats)) in
  let final f =
    match List.rev u.marks with (_, b) :: _ -> float_of_int (f b.Server_proc.stats) | [] -> 0.0
  in
  let encoded = st (fun s -> s.Netmsg.updates_encoded) in
  let hits = st (fun s -> s.Netmsg.archive_hits) in
  let requests = hits +. float_of_int u.ticks in
  let sends = st (fun s -> s.Netmsg.send_syscalls) in
  let overhead f = if f untraced = 0.0 then 0.0 else ((f traced /. f untraced) -. 1.0) *. 100.0 in
  List.concat_map span_rows span_layers
  @ [
      ("net_server.tick_cpu_ms", median !tick_cpu, "ms");
      ("gen.late_ms_p90", percentile traced.late 0.9, "ms");
      ("release.wait_ms_p50", percentile traced.waits 0.5, "ms");
      ("release.wait_ms_p90", percentile traced.waits 0.9, "ms");
      ("net_server.frame_cache_hit_share",
       (if requests = 0.0 then 0.0 else 1.0 -. (encoded /. requests)), "share");
      ("net_server.updates_encoded_per_op", per uops encoded, "count/op");
      ("net_server.send_syscalls_per_op", per uops sends, "count/op");
      ("net_server.frames_per_send",
       (if sends = 0.0 then 0.0 else st (fun s -> s.Netmsg.frames_sent) /. sends), "count");
      ("net_server.poll_wakeups_per_op", per uops (st (fun s -> s.Netmsg.poll_wakeups)), "count/op");
      ("net_server.bytes_sent_per_op", per uops (st (fun s -> s.Netmsg.bytes_sent)), "B/op");
      ("net_server.conns_accepted_per_op", per uops (st (fun s -> s.Netmsg.conns_accepted)), "count/op");
      ("net_server.protocol_errors", final (fun s -> s.Netmsg.protocol_errors), "count");
      ("net_server.slow_disconnects", final (fun s -> s.Netmsg.slow_disconnects), "count");
      ("gc.minor_words_per_op", per uops u.minor_words, "words/op");
      ("gc.major_collections_per_op", per uops (float_of_int u.major_gcs), "count/op");
      ("server.gc.minor_words_per_op",
       per uops (srv (fun a b -> b.Server_proc.minor_words -. a.Server_proc.minor_words)), "words/op");
      ("server.cpu_ms_per_op",
       per uops (srv (fun a b -> (b.Server_proc.cpu_s -. a.Server_proc.cpu_s) *. 1e3)), "ms");
      ("server.rss_mb", server_rss_mb, "MB");
      ("trace.overhead_cpu_pct",
       overhead (fun p -> per (p.attempted - p.failed) p.cpu), "%");
      ("trace.overhead_latency_p50_pct", overhead (fun p -> percentile p.lat 0.5), "%");
    ]
  @ List.concat_map replay_rows replay_layers

(* ---------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let pname = ref "mid128" and out_dir = ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME release | catchup | seal");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "N measured seconds per phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end metrics, or per-layer trace");
      ("--params", Arg.Set_string pname, "NAME parameter set (default mid128)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds N --trace 0|1";
  if not (List.mem !workload [ "release"; "catchup"; "seal" ]) then
    failwith "--workload must be release, catchup or seal";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    failwith "need --seconds N >= 1 and --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let workload = !workload and traced = !trace = 1 in
  let seconds = float_of_int !seconds in
  let seed_str = Printf.sprintf "perfbench|%s|%s|%d" workload !pname !seed in
  let probe_start = host_probe_ms () in
  let steal0, jiffies0 = cpu_jiffies () in
  let phases = if traced then 2 else 1 in
  let tl = Timeline.create ~granularity:period () in
  (* ---- inputs (not part of setup_s) *)
  let gen_t0 = now () in
  let prms0 =
    match Pairing.by_name !pname with
    | Some p -> p
    | None -> failwith ("unknown parameter set " ^ !pname)
  in
  let keys0 = derive_keys prms0 seed_str in
  let rng = Hashing.Drbg.create ~seed:("perfbench-inputs|" ^ seed_str) () in
  let cache_limit = (Net_server.default_config prms0 tl).Net_server.archive_cache_limit in
  let inputs =
    match workload with
    | "release" ->
        gen_release prms0 tl rng keys0 ~phases
          ~epochs:(int_of_float (Float.round (seconds /. period)))
    | "catchup" ->
        let sessions = int_of_float (Float.round (seconds /. catchup_period)) in
        (* every session adds [old_items] regenerated frames to the
           server's cache; it must not reach its wholesale reset *)
        if history + (sessions * old_items * phases) >= cache_limit then
          failwith "--seconds too long for the server's frame cache";
        gen_catchup prms0 tl rng keys0 ~phases ~sessions
    | _ ->
        gen_seal prms0 tl rng keys0 ~phases
          ~ops:(int_of_float (Float.round (seconds /. period)))
  in
  let digest = digest_inputs ~workload ~seed_str inputs in
  let gen_s = now () -. gen_t0 in
  (* ---- the first set-up point; its last set-up is kept *)
  let spub_bytes =
    let _, spub, _, _ = keys0 in
    Tre.server_public_to_bytes prms0 spub
  in
  let socks = ref 0 in
  let make_setup () =
    incr socks;
    let sock = Printf.sprintf "%s/s%d.%d" out_dir (Unix.getpid ()) !socks in
    setup ~workload ~pname:!pname ~seed_str ~tl ~sock ~spub_bytes
  in
  let env = Option.get (setup_point ~keep:true make_setup) in
  let history_s =
    match (workload, env.server) with
    | "catchup", Some srv ->
        let t = now () in
        Server_proc.history srv ~first:(base_epoch + 1) ~count:history;
        now () -. t
    | _ -> 0.0
  in
  (* ---- gates *)
  let gates =
    match inputs with
    | Seal_in { keys; _ } -> seal_gates env keys tl
    | _ -> update_gates workload env tl
  in
  List.iter (fun (g, ok) -> if not ok then problem "gate %s failed" g) gates;
  (* ---- phases: untraced, then (with --trace 1) traced; each is
     [segments] segments, each followed by a set-up point *)
  let run_phase ph =
    let count =
      match inputs with
      | Release_in p -> Array.length p.(ph)
      | Catchup_in p -> Array.length p.(ph)
      | Seal_in { ops; _ } -> Array.length ops.(ph)
    in
    let segment ~lo ~len =
      match inputs with
      | Release_in p ->
          run_release env (Array.sub p.(ph) lo len) ~first:(base_epoch + 1 + (ph * count) + lo)
      | Catchup_in p -> run_catchup env p.(ph) ~lo ~len
      | Seal_in { keys; ops } -> run_seal env keys ops.(ph) ~lo ~len
    in
    sealed := Array.make count None;
    let parts = ref [] in
    for s = 0 to segments - 1 do
      let lo = s * count / segments and hi = (s + 1) * count / segments in
      parts := segment ~lo ~len:(hi - lo) :: !parts;
      ignore (setup_point ~keep:false make_setup)
    done;
    (match inputs with
    | Seal_in { keys; ops } ->
        check_sealed env keys ops.(ph) (Hashing.Drbg.create ~seed:("perfbench-check|" ^ seed_str) ())
    | _ -> ());
    merge_segments (List.rev !parts)
  in
  let untraced = run_phase 0 in
  let traced_phase =
    if traced then begin
      tr.Trace.enabled <- true;
      let p = run_phase 1 in
      tr.Trace.enabled <- false;
      Some p
    end
    else None
  in
  let replayed = if traced then replay env env.spub else 0 in
  let server_rss_kb = teardown env in
  let setup_s = setup_s () in
  let rss_mb = float_of_int (Server_proc.peak_rss_kb ()) /. 1024.0 in
  let probe_end = host_probe_ms () in
  let steal_pct =
    let steal1, jiffies1 = cpu_jiffies () in
    if jiffies1 = jiffies0 then 0.0
    else 100.0 *. float_of_int (steal1 - steal0) /. float_of_int (jiffies1 - jiffies0)
  in
  let trace_file =
    if traced then begin
      let f = Printf.sprintf "%s/trace-%s-%d.tsv" out_dir workload !seed in
      Trace.write tr f;
      f
    end
    else ""
  in
  let ph = [ untraced ] @ Option.to_list traced_phase in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 ph in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 ph in
  let correct = !problems = [] in
  (* ---- diagnostics line, then the result line *)
  let self_summary =
    if not traced then ""
    else
      let names = Trace.by_name tr in
      let ops = float_of_int (max 1 ((Option.get traced_phase).attempted)) in
      Printf.sprintf ", \"self_ms_per_op\": {%s}"
        (String.concat ", "
           (Hashtbl.fold
              (fun name (_, selfs) acc ->
                Printf.sprintf "%S: %.4f" name (List.fold_left ( +. ) 0.0 selfs /. ops) :: acc)
              names []))
  in
  Printf.printf
    "{\"diagnostics\": {\"workload\": %S, \"seed\": %d, \"params\": %S, \"input_digest\": %S, \
     \"gen_s\": %.4f, \"history_s\": %.4f, \"setup_s_each\": [%s], \"host.probe_ms_start\": %.4f, \
     \"host.probe_ms_end\": %.4f, \"host.steal_pct\": %.3f, \"gates\": {%s}, \"phase_s\": [%s], \
     \"replayed_ops\": %d, \"trace_file\": %S, \"problems\": [%s]%s}}\n"
    workload !seed !pname digest gen_s history_s
    (String.concat ", "
       (List.rev_map
          (fun t -> "[" ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.5f") t)) ^ "]")
          !setup_samples))
    probe_start probe_end steal_pct
    (String.concat ", " (List.map (fun (g, ok) -> Printf.sprintf "%S: %b" g ok) gates))
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%.3f" p.elapsed) ph))
    replayed trace_file
    (String.concat ", " (List.map (Printf.sprintf "%S") !problems))
    self_summary;
  let metrics =
    match traced_phase with
    | None -> e2e_metrics untraced ~setup_s ~rss_mb
    | Some traced ->
        layer_metrics ~untraced ~traced ~replayed
          ~server_rss_mb:(float_of_int server_rss_kb /. 1024.0)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics));
  exit (if correct then 0 else 1)
