(* Benchmark harness regenerating every comparative claim of the paper as
   a table or series (experiments E1-E12, see DESIGN.md and EXPERIMENTS.md).

     dune exec bench/main.exe                 # full report
     dune exec bench/main.exe -- --quick      # smaller sweeps (CI)
     dune exec bench/main.exe -- --json f.json# also dump all rows as JSON
     dune exec bench/main.exe -- --smoke      # agreement asserts only
     dune exec bench/main.exe -- --e1kernel   # kernel-vs-reference report only
                                              # (regenerates BENCH_E1_KERNEL.json)
     dune exec bench/main.exe -- --e14delegate  # delegation report only
                                              # (regenerates BENCH_E14_DELEGATE.json)

   Every timed row comes from one sampler ([measure] below: minimum
   [Sys.time] and median [Gc.minor_words] per op), mostly at the mid128
   parameter set; structural numbers (bytes, messages, rounds) come from
   the actual implementations and the discrete-event simulator. Absolute
   times are machine-dependent; the claims under test are the RATIOS and
   SHAPES (who wins, by what factor, what scales how). *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let e1kernel_only = Array.exists (fun a -> a = "--e1kernel") Sys.argv
let e14delegate_only = Array.exists (fun a -> a = "--e14delegate") Sys.argv

let json_path =
  let rec find = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let prms = Pairing.mid128 ()
let toy = Pairing.toy64 ()
let rng = Hashing.Drbg.create ~seed:"bench" ()

let msg32 = String.make 32 'm'

(* Shared fixtures at mid128. *)
let srv_sec, srv_pub = Tre.Server.keygen prms rng
let usr_sec, usr_pub = Tre.User.keygen prms srv_pub rng
let t_label = "bench-epoch"
let upd = Tre.issue_update prms srv_sec t_label
let tre_ct = Tre.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32
let fo_ct = Tre_fo.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32
let react_ct = Tre_react.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32

let id_sec, id_pub = Id_tre.Server.keygen prms rng
let id_priv = Id_tre.Server.extract prms id_sec "bench-user"
let id_ct = Id_tre.encrypt prms id_pub "bench-user" ~release_time:t_label rng msg32
let id_upd = Id_tre.Server.issue_update prms id_sec t_label

let hyb_sec, hyb_pub = Hybrid_baseline.receiver_keygen prms rng
let hyb_ct = Hybrid_baseline.encrypt prms srv_pub hyb_pub ~release_time:t_label rng msg32

let epoch_key = Key_insulation.derive prms usr_sec upd

let pp_time ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.2f ns" ns

let heading title = Printf.printf "\n=== %s ===\n" title

(* --- JSON row registry (--json) ---

   Each report records its table rows as flat objects; the driver dumps
   them at exit. Hand-rolled writer: the dependency set has no JSON
   library and the values are only strings and numbers. *)

type jv = S of string | F of float | I of int

let json_rows : (string * (string * jv) list) list ref = ref []
let record experiment fields = json_rows := (experiment, fields) :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jv_to_string = function
  | S s -> "\"" ^ json_escape s ^ "\""
  | I i -> string_of_int i
  | F f ->
      if Float.is_nan f then "null"
      else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.6g" f

let json_row_to_string (experiment, fields) =
  "  {\"experiment\": \"" ^ json_escape experiment ^ "\""
  ^ String.concat ""
      (List.map (fun (k, v) -> ", \"" ^ json_escape k ^ "\": " ^ jv_to_string v) fields)
  ^ "}"

let write_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.map json_row_to_string rows));
  output_string oc "\n]\n";
  close_out oc

(* The one timer behind every timed row. Each side is calibrated to
   >= 20 ms per sample, then the sides' samples ALTERNATE, so a
   contention epoch longer than one sample but shorter than a row's run
   slows every side of a ratio instead of whichever side owned that
   window (separate runs per side swung speedups by +-20% on rows whose
   true ratio is stable). Time is the MINIMUM per-op [Sys.time] over the
   samples: contention only ever makes a sample slower, so the minimum
   keeps checked-in speedups (and the bench_guard floors over them)
   stable where a median wobbles by +-10%. Words are the MEDIAN per-op
   [Gc.minor_words] delta; [Gc.allocated_bytes] cannot serve, as OCaml
   5.1 counts in it the words allocated since the last minor collection
   at one eighth. Blocks over 256 words skip the minor heap and are not
   counted. Growth of the [excluded] clock (seconds a side spends on
   work not its own: E14's helpers) is taken off its sample. Returns
   (ns/op, words/op) per side, in order. *)
let measure ?(samples = 5) ?(excluded = ref 0.0) sides =
  let calibrate f =
    ignore (f ());
    let t0 = Sys.time () in
    ignore (f ());
    let once = Stdlib.max 1e-7 (Sys.time () -. t0) in
    Stdlib.max 1 (int_of_float (0.02 /. once))
  in
  let iters = Array.map calibrate sides in
  let one i f =
    let x0 = !excluded in
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    for _ = 1 to iters.(i) do
      ignore (f ())
    done;
    let dt = Sys.time () -. t0 -. (!excluded -. x0) in
    let dw = Gc.minor_words () -. w0 in
    let n = float_of_int iters.(i) in
    (dt /. n, dw /. n)
  in
  let runs = Array.init samples (fun _ -> Array.mapi one sides) in
  Array.mapi
    (fun i _ ->
      let times = Array.map (fun run -> fst run.(i)) runs in
      let words = Array.map (fun run -> snd run.(i)) runs in
      Array.sort compare times;
      Array.sort compare words;
      (times.(0) *. 1e9, words.(samples / 2)))
    sides

let measure1 ?samples f = (measure ?samples [| f |]).(0)

let measure2 ?excluded f g =
  let m = measure ?excluded [| f; g |] in
  (m.(0), m.(1))

let pp_words w =
  if Float.is_nan w then "n/a"
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

(* =========================================================================
   E1 - operation costs of the schemes
   ========================================================================= *)

let e1_ops =
  [
    ( "tre-encrypt",
      fun () -> ignore (Tre.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32) );
    ( "tre-encrypt-prevalidated",
      fun () ->
        ignore
          (Tre.encrypt_prevalidated prms srv_pub usr_pub ~release_time:t_label rng msg32) );
    ("tre-decrypt", fun () -> ignore (Tre.decrypt prms usr_sec upd tre_ct));
    ( "fo-encrypt",
      fun () -> ignore (Tre_fo.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32) );
    ("fo-decrypt", fun () -> ignore (Tre_fo.decrypt prms srv_pub usr_pub usr_sec upd fo_ct));
    ( "react-encrypt",
      fun () ->
        ignore (Tre_react.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32) );
    ("react-decrypt", fun () -> ignore (Tre_react.decrypt prms usr_sec upd react_ct));
    ( "idtre-encrypt",
      fun () ->
        ignore (Id_tre.encrypt prms id_pub "bench-user" ~release_time:t_label rng msg32) );
    ("idtre-decrypt", fun () -> ignore (Id_tre.decrypt prms ~private_key:id_priv id_upd id_ct));
    ("update-generate", fun () -> ignore (Tre.issue_update prms srv_sec t_label));
    ("update-verify", fun () -> ignore (Tre.verify_update prms srv_pub upd));
    ("validate-receiver-key", fun () -> ignore (Tre.validate_receiver_key prms srv_pub usr_pub));
    ("pairing", fun () -> ignore (Pairing.pairing prms prms.Pairing.g prms.Pairing.g));
    ("hash-to-g1", fun () -> ignore (Pairing.hash_to_g1 prms t_label));
  ]

let e1_report () =
  heading "E1: operation costs (mid128: 128-bit q, 256-bit p; 32-byte message)";
  Printf.printf "%-28s %12s %10s\n" "operation" "time/op" "words/op";
  List.iter
    (fun (name, f) ->
      let ns, w = measure1 f in
      record "E1" [ ("operation", S name); ("ns", F ns); ("alloc_words", F w) ];
      Printf.printf "%-28s %12s %10s\n" name (pp_time ns) (pp_words w))
    e1_ops;
  Printf.printf
    "shape check: enc/dec are within small factors of one pairing; update\n\
     generation is one hash-to-G1 + one scalar mult; verification ~2 pairings.\n"

(* =========================================================================
   E2 - TRE vs the hybrid PKE+IBE construction (the "50% reduction" claim)
   ========================================================================= *)

let e2_report () =
  heading "E2: TRE vs hybrid PKE+IBE (footnote 3) - the ~50% reduction claim";
  let enc =
    measure
      [| (fun () -> ignore (Tre.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32));
         (fun () ->
           ignore
             (Tre.encrypt_prevalidated prms srv_pub usr_pub ~release_time:t_label rng msg32));
         (fun () ->
           ignore
             (Hybrid_baseline.encrypt prms srv_pub hyb_pub ~release_time:t_label rng msg32))
      |]
  in
  let tre_dec, hyb_dec =
    measure2
      (fun () -> ignore (Tre.decrypt prms usr_sec upd tre_ct))
      (fun () -> ignore (Hybrid_baseline.decrypt prms hyb_sec upd hyb_ct))
  in
  Printf.printf "%-22s %12s %12s %9s\n" "operation" "TRE" "hybrid" "hyb/TRE";
  let e2_row name (tre, tre_w) (hyb, hyb_w) =
    record "E2"
      [ ("operation", S name); ("ns_tre", F tre); ("alloc_words_tre", F tre_w);
        ("ns_hybrid", F hyb); ("alloc_words_hybrid", F hyb_w);
        ("ratio", F (hyb /. tre)) ];
    Printf.printf "%-22s %12s %12s %8.2fx\n" name (pp_time tre) (pp_time hyb)
      (hyb /. tre)
  in
  e2_row "encrypt (1st msg)" enc.(0) enc.(2);
  e2_row "encrypt (validated)" enc.(1) enc.(2);
  e2_row "decrypt" tre_dec hyb_dec;
  Printf.printf "\n%-12s %10s %10s %10s %10s %10s\n" "msg bytes" "TRE ct" "hybrid ct"
    "FO ct" "REACT ct" "hyb/TRE";
  List.iter
    (fun n ->
      let m = String.make n 'x' in
      let tre_sz =
        String.length
          (Tre.ciphertext_to_bytes prms
             (Tre.encrypt prms srv_pub usr_pub ~release_time:t_label rng m))
      in
      let fo_sz =
        String.length
          (Tre_fo.ciphertext_to_bytes prms
             (Tre_fo.encrypt prms srv_pub usr_pub ~release_time:t_label rng m))
      in
      let react_sz =
        String.length
          (Tre_react.ciphertext_to_bytes prms
             (Tre_react.encrypt prms srv_pub usr_pub ~release_time:t_label rng m))
      in
      let hyb_sz =
        let ct = Hybrid_baseline.encrypt prms srv_pub hyb_pub ~release_time:t_label rng m in
        Hybrid_baseline.ciphertext_overhead prms
        + String.length ct.Hybrid_baseline.body
        + String.length t_label
      in
      record "E2-size"
        [ ("msg_bytes", I n); ("tre_ct", I tre_sz); ("hybrid_ct", I hyb_sz);
          ("fo_ct", I fo_sz); ("react_ct", I react_sz) ];
      Printf.printf "%-12d %10d %10d %10d %10d %9.2fx\n" n tre_sz hyb_sz fo_sz react_sz
        (float_of_int hyb_sz /. float_of_int tre_sz))
    [ 32; 256; 1024; 4096 ];
  Printf.printf
    "shape check: hybrid carries 2 encapsulations vs TRE's 1; overhead ratio\n\
     is ~2x for short messages (the paper's 50%% reduction), converging to 1\n\
     as the body dominates.\n"

(* =========================================================================
   E3 - scalability in the number of receivers (simulation, toy64 params)
   ========================================================================= *)

let e3_simulate n_users =
  let epochs = 3 in
  (* TRE: passive server, one broadcast per epoch. *)
  let net = Simnet.create ~seed:(Printf.sprintf "e3-tre-%d" n_users) () in
  let tl = Timeline.create ~granularity:10.0 () in
  let server = Passive_server.create toy ~net ~timeline:tl ~name:"server" in
  let clients =
    List.init n_users (fun i ->
        Client.create toy ~net ~server:(Passive_server.public server)
          ~name:(Printf.sprintf "c%d" i))
  in
  Passive_server.start server ~net ~first_epoch:1 ~epochs
    ~recipients:(List.map (fun c -> (Client.name c, Client.on_wire c)) clients);
  Simnet.run net;
  let tre_msgs = Passive_server.updates_issued server in
  let tre_bytes = Passive_server.bytes_broadcast server in
  (* Mont IBE: per-user delivery. *)
  let net2 = Simnet.create ~seed:(Printf.sprintf "e3-mont-%d" n_users) () in
  let vault = Mont_ibe.create toy ~net:net2 ~timeline:tl ~name:"vault" in
  for i = 0 to n_users - 1 do
    Mont_ibe.register vault ~identity:(Printf.sprintf "u%d" i) (fun _ _ -> ())
  done;
  Simnet.run net2;
  Mont_ibe.start_epoch_deliveries vault ~first_epoch:1 ~epochs;
  Simnet.run net2;
  let mont = Mont_ibe.report vault in
  (* May escrow: one deposit per user (everyone receives one sealed item). *)
  let net3 = Simnet.create ~seed:(Printf.sprintf "e3-may-%d" n_users) () in
  let agent = May_escrow.create ~net:net3 ~timeline:tl ~name:"agent" in
  for i = 0 to n_users - 1 do
    May_escrow.deposit agent ~sender:"s" ~receiver:(Printf.sprintf "u%d" i)
      ~deliver:ignore ~release_epoch:2 (String.make 64 'm')
  done;
  Simnet.run net3;
  let may = May_escrow.report agent in
  (* COT: each user decrypts once -> one protocol run each. *)
  let net4 = Simnet.create ~seed:(Printf.sprintf "e3-cot-%d" n_users) () in
  let cot = Cot_server.create ~net:net4 ~name:"cot" ~time_parameter_bits:20 in
  Cot_server.set_current_epoch cot 10;
  for i = 0 to n_users - 1 do
    Cot_server.request_decryption cot ~receiver:(Printf.sprintf "u%d" i)
      ~release_epoch:2 ~payload_bytes:64 ~granted:ignore
  done;
  Simnet.run net4;
  let cot_r = Cot_server.report cot in
  (tre_msgs, tre_bytes, mont, may, cot_r)

let e3_report () =
  heading "E3: server cost vs number of receivers (3 epochs, toy64 params)";
  Printf.printf "%-8s | %-19s | %-19s | %-19s | %-19s\n" "users" "TRE (passive)"
    "Mont IBE" "May escrow" "COT";
  Printf.printf "%-8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n" "" "msgs" "bytes"
    "msgs" "bytes" "msgs" "bytes" "msgs" "bytes";
  let sizes = if quick then [ 1; 10; 100 ] else [ 1; 10; 100; 1000; 10000 ] in
  List.iter
    (fun n ->
      let tre_msgs, tre_bytes, mont, may, cot = e3_simulate n in
      record "E3"
        [ ("users", I n); ("tre_msgs", I tre_msgs); ("tre_bytes", I tre_bytes);
          ("mont_msgs", I mont.Baseline_report.server_messages);
          ("may_msgs", I may.Baseline_report.server_messages);
          ("cot_msgs", I cot.Baseline_report.server_messages) ];
      Printf.printf "%-8d | %9d %9d | %9d %9d | %9d %9d | %9d %9d\n" n tre_msgs
        tre_bytes mont.Baseline_report.server_messages mont.Baseline_report.server_bytes
        may.Baseline_report.server_messages may.Baseline_report.server_bytes
        cot.Baseline_report.server_messages cot.Baseline_report.server_bytes)
    sizes;
  Printf.printf
    "shape check: TRE's column is CONSTANT in users (one update per epoch);\n\
     every baseline grows linearly (per-user unicasts / deposits / sessions).\n";
  let _, _, mont, may, cot = e3_simulate 100 in
  heading "E3b: interaction and anonymity (100 users)";
  Printf.printf "%-16s %12s %12s  %s\n" "scheme" "sender-int" "recv-int" "server learns";
  Printf.printf "%-16s %12d %12d  %s\n" "tre-passive" 0 0 "nothing";
  List.iter
    (fun (r : Baseline_report.t) ->
      Printf.printf "%-16s %12d %12d  %s\n" r.Baseline_report.scheme
        r.Baseline_report.sender_server_interactions
        r.Baseline_report.receiver_server_interactions
        (Baseline_report.leaks_to_string r.Baseline_report.leaks))
    [ mont; may; cot ]

(* =========================================================================
   E4 - release-time precision: time-lock puzzles vs the passive server
   ========================================================================= *)

let e4_report () =
  heading "E4: release precision - time-lock puzzle vs TRE broadcast";
  let rate = Timelock.calibrate ~modulus_bits:256 ~sample:(if quick then 500 else 3000) () in
  Printf.printf "calibrated solver: %.0f squarings/s (256-bit modulus)\n" rate;
  (* Real end-to-end validation at small scale: target ~0.3s. *)
  let target = if quick then 0.05 else 0.3 in
  let t = Timelock.squarings_for ~rate ~seconds:target in
  let puzzle = Timelock.create ~rng ~modulus_bits:256 ~squarings:t "precision-probe" in
  let start = Sys.time () in
  let solved = Timelock.solve puzzle in
  let actual = Sys.time () -. start in
  assert (solved = "precision-probe");
  Printf.printf "real solve: intended %.2fs, actual %.2fs (error %+.0f%%)\n" target actual
    ((actual -. target) /. target *. 100.0);
  Printf.printf "\n%-14s %-12s %-16s %-12s\n" "solver speed" "start delay"
    "actual release" "error";
  let intended = 3600.0 in
  List.iter
    (fun (speed, delay) ->
      let p =
        Timelock.release_precision ~intended_delay:intended ~speed_factor:speed
          ~start_delay:delay
      in
      record "E4"
        [ ("speed_factor", F speed); ("start_delay_s", F delay);
          ("actual_release_s", F p.Timelock.actual_release);
          ("error_s", F p.Timelock.error) ];
      Printf.printf "%-14s %-12s %13.0f s %+9.0f s\n"
        (Printf.sprintf "%.2fx" speed)
        (Printf.sprintf "%.0f s" delay)
        p.Timelock.actual_release p.Timelock.error)
    [
      (0.25, 0.0); (0.5, 0.0); (1.0, 0.0); (2.0, 0.0); (4.0, 0.0);
      (1.0, 1800.0); (1.0, 3600.0); (2.0, 1800.0);
    ];
  (* TRE's error: broadcast latency only, measured in the simulator. *)
  let net = Simnet.create ~seed:"e4-tre" ~latency:0.05 ~jitter:0.02 () in
  let tl = Timeline.create ~granularity:100.0 () in
  let server = Passive_server.create toy ~net ~timeline:tl ~name:"server" in
  let client = Client.create toy ~net ~server:(Passive_server.public server) ~name:"c" in
  Passive_server.start server ~net ~first_epoch:1 ~epochs:1
    ~recipients:[ (Client.name client, Client.on_wire client) ];
  let ct =
    Tre.encrypt toy (Passive_server.public server) (Client.public_key client)
      ~release_time:(Timeline.label tl 1) (Simnet.rng net) "x"
  in
  Client.enqueue_ciphertext client ct;
  Simnet.run net;
  (match Client.deliveries client with
  | [ d ] ->
      Printf.printf
        "\nTRE (any machine, any start): release error = broadcast latency = %+.3f s\n"
        (d.Client.decrypted_at -. Timeline.start_of tl 1)
  | _ -> print_endline "TRE simulation failed");
  Printf.printf
    "shape check: puzzle error scales with machine speed and start delay\n\
     (relative, uncontrollable); TRE error is network latency only (absolute).\n"

(* =========================================================================
   E5 - multi-server overhead
   ========================================================================= *)

let e5_fixture n =
  let servers =
    List.init n (fun i ->
        let g = Curve.mul prms.Pairing.curve (Bigint.of_int (23 + i)) prms.Pairing.g in
        Tre.Server.keygen ~g prms rng)
  in
  let secs = List.map fst servers and pubs = List.map snd servers in
  let a, pk = Multi_server.receiver_keygen prms pubs rng in
  let ct = Multi_server.encrypt prms pubs pk ~release_time:t_label rng msg32 in
  let updates = List.map (fun s -> Tre.issue_update prms s t_label) secs in
  (pubs, pk, a, ct, updates)

let e5_report () =
  heading "E5: multi-server TRE - cost per additional server (mid128)";
  Printf.printf "%-10s %12s %12s %14s\n" "servers" "encrypt" "decrypt" "ciphertext B";
  List.iter
    (fun n ->
      let pubs, pk, a, ct, updates = e5_fixture n in
      let size =
        4
        + (Array.length ct.Multi_server.us * Pairing.point_bytes prms)
        + String.length ct.Multi_server.v
      in
      let (enc, w_enc), (dec, w_dec) =
        measure2
          (fun () ->
            ignore (Multi_server.encrypt prms pubs pk ~release_time:t_label rng msg32))
          (fun () -> ignore (Multi_server.decrypt prms a updates ct))
      in
      record "E5"
        [ ("servers", I n); ("ns_encrypt", F enc); ("alloc_words_encrypt", F w_enc);
          ("ns_decrypt", F dec); ("alloc_words_decrypt", F w_dec);
          ("ciphertext_bytes", I size) ];
      Printf.printf "%-10d %12s %12s %14d\n" n (pp_time enc) (pp_time dec) size)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "shape check: ciphertext grows by exactly one G1 point per server;\n\
     decryption by ~one pairing per server; collusion resistance N-1 (tested).\n"

(* =========================================================================
   E6 - self-authenticated updates (BLS) vs update + separate signature
   ========================================================================= *)

let e6_report () =
  heading "E6: key updates are self-authenticating BLS signatures";
  let upd_bytes = String.length (Tre.update_to_bytes prms upd) in
  let sig_bytes = Bls.signature_bytes prms in
  Printf.printf "update wire size:                   %4d bytes\n" upd_bytes;
  Printf.printf "strawman update + separate BLS sig: %4d bytes (+%d%%)\n"
    (upd_bytes + sig_bytes)
    (100 * sig_bytes / upd_bytes);
  let bls_pub = { Bls.g = srv_pub.Tre.Server.g; pk = srv_pub.Tre.Server.sg } in
  let pairs =
    List.init 32 (fun i ->
        let m = Printf.sprintf "epoch-%d" i in
        (m, (Tre.issue_update prms srv_sec m).Tre.update_value))
  in
  let (single, w_single), (batch, w_batch) =
    measure2
      (fun () -> ignore (Tre.verify_update prms srv_pub upd))
      (fun () -> ignore (Bls.verify_batch prms bls_pub pairs))
  in
  record "E6"
    [ ("update_bytes", I upd_bytes); ("sig_bytes", I sig_bytes);
      ("ns_verify_single", F single); ("alloc_words_verify_single", F w_single);
      ("ns_verify_batch32", F batch); ("alloc_words_verify_batch32", F w_batch);
      ("batch_speedup", F (32.0 *. single /. batch)) ];
  Printf.printf "verify single update: %12s\n" (pp_time single);
  Printf.printf "verify batch of 32:   %12s (%s/update, %.1fx faster than 32 singles)\n"
    (pp_time batch)
    (pp_time (batch /. 32.0))
    (32.0 *. single /. batch);
  Printf.printf
    "shape check: authenticity costs zero extra bytes (the update IS the\n\
     signature); same-signer batching amortizes to ~2 pairings per batch.\n"

(* =========================================================================
   E7 - no pre-established future keys: storage vs horizon
   ========================================================================= *)

let e7_report () =
  heading "E7: pre-publication storage - Rivest offline list vs TRE";
  let point = Pairing.point_bytes prms in
  Printf.printf "%-12s %-14s %18s %18s\n" "horizon" "granularity" "offline list (B)"
    "TRE future (B)";
  let day = 86400.0 in
  List.iter
    (fun (horizon_s, gran_s, label) ->
      let epochs = int_of_float (horizon_s /. gran_s) in
      record "E7"
        [ ("horizon", S label); ("granularity_s", F gran_s);
          ("offline_list_bytes", I (epochs * point)); ("tre_future_bytes", I 0) ];
      Printf.printf "%-12s %-14s %18d %18d\n" label
        (if gran_s >= day then Printf.sprintf "%.0f d" (gran_s /. day)
         else if gran_s >= 3600.0 then Printf.sprintf "%.0f h" (gran_s /. 3600.0)
         else Printf.sprintf "%.0f s" gran_s)
        (epochs * point) 0)
    [
      (day, 60.0, "1 day");
      (30.0 *. day, 60.0, "30 days");
      (365.0 *. day, 60.0, "1 year");
      (365.0 *. day, 1.0, "1 year");
      (10.0 *. 365.0 *. day, 1.0, "10 years");
    ];
  let net = Simnet.create ~seed:"e7" () in
  let tl = Timeline.create ~granularity:10.0 () in
  let off =
    Rivest_server.Offline_list.create prms ~net ~timeline:tl ~name:"off" ~seed:"s"
      ~horizon_epochs:1000
  in
  Printf.printf "implementation check (1000 epochs): %d bytes pre-published\n"
    (Rivest_server.Offline_list.prepublication_bytes off);
  Printf.printf
    "shape check: the offline list is O(horizon/granularity) and caps the\n\
     usable release times; TRE pre-publishes NOTHING (senders pick any future\n\
     T; the archive only ever holds elapsed epochs).\n"

(* =========================================================================
   E8 - interaction per decryption: COT vs TRE
   ========================================================================= *)

let e8_report () =
  heading "E8: per-decryption interaction - conditional OT vs TRE";
  Printf.printf "%-14s %10s %14s %16s\n" "time space" "rounds" "bytes/decrypt"
    "TRE rounds";
  List.iter
    (fun bits ->
      let net = Simnet.create ~seed:(Printf.sprintf "e8-%d" bits) () in
      let cot = Cot_server.create ~net ~name:"cot" ~time_parameter_bits:bits in
      Cot_server.set_current_epoch cot 100;
      Cot_server.request_decryption cot ~receiver:"r" ~release_epoch:1
        ~payload_bytes:64 ~granted:ignore;
      Simnet.run net;
      let rounds = Cot_server.rounds_per_decryption cot in
      let bytes = Simnet.total_bytes_by net "cot" + Simnet.total_bytes_by net "r" in
      record "E8"
        [ ("time_bits", I bits); ("cot_rounds", I rounds);
          ("cot_bytes_per_decrypt", I bytes); ("tre_rounds", I 0) ];
      Printf.printf "%-14s %10d %14d %16d\n"
        (Printf.sprintf "T = 2^%d" bits)
        rounds bytes 0)
    [ 10; 16; 20; 24; 32 ];
  let net = Simnet.create ~seed:"e8-dos" () in
  let cot = Cot_server.create ~net ~name:"cot" ~time_parameter_bits:20 in
  Cot_server.flood cot ~attacker:"mallory" ~queries:100;
  Simnet.run net;
  Printf.printf
    "DoS: 100 far-future queries cost the server %d protocol messages\n\
     (it cannot filter them without learning the release time); the passive\n\
     TRE server processes 0 messages under the same attack.\n"
    (Cot_server.protocol_messages cot);
  Printf.printf
    "shape check: COT interaction grows as 2*log2(T)+2 and keeps the server\n\
     online per decryption; TRE decryption is fully offline.\n"

(* =========================================================================
   E9 - key insulation overhead
   ========================================================================= *)

let e9_report () =
  heading "E9: key insulation - epoch-key decryption vs direct secret use";
  Printf.printf "%-26s %12s %10s\n" "operation" "time/op" "words/op";
  let ops =
    [| ("decrypt-with-a", fun () -> ignore (Tre.decrypt prms usr_sec upd tre_ct));
       ( "decrypt-with-epoch-key",
         fun () -> ignore (Key_insulation.decrypt prms epoch_key tre_ct) );
       ("derive-epoch-key", fun () -> ignore (Key_insulation.derive prms usr_sec upd)) |]
  in
  Array.iter2
    (fun (n, _) (ns, w) ->
      record "E9" [ ("operation", S n); ("ns", F ns); ("alloc_words", F w) ];
      Printf.printf "%-26s %12s %10s\n" n (pp_time ns) (pp_words w))
    ops
    (measure (Array.map snd ops));
  (* Exposure simulation: compromise the epoch-3 key out of 10 epochs. *)
  let epochs = List.init 10 (fun i -> Printf.sprintf "ep-%d" i) in
  let cts =
    List.map
      (fun e -> (e, Tre.encrypt prms srv_pub usr_pub ~release_time:e rng ("m@" ^ e)))
      epochs
  in
  let stolen = Key_insulation.derive prms usr_sec (Tre.issue_update prms srv_sec "ep-3") in
  let opened =
    List.filter
      (fun (_, ct) ->
        match Key_insulation.decrypt prms stolen ct with
        | m -> String.length m > 2 && String.sub m 0 2 = "m@"
        | exception Tre.Update_mismatch -> false)
      cts
  in
  Printf.printf "exposure containment: adversary with epoch-3 key opens %d/10 epochs\n"
    (List.length opened);
  Printf.printf
    "shape check: epoch-key decryption is CHEAPER than direct decryption\n\
     (one pairing, no exponentiation by a) and exposure stays confined to\n\
     the compromised epoch.\n"

(* =========================================================================
   E1b - parameter sweep (every named parameter set)
   ========================================================================= *)

let e1b_report () =
  heading "E1b: parameter sweep (q/p bits per set)";
  Printf.printf "%-24s" "operation";
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | Some p ->
          Printf.printf " %16s"
            (Printf.sprintf "%s(%d/%d)" name
               (Bigint.bit_length p.Pairing.q)
               (Bigint.bit_length p.Pairing.p))
      | None -> ())
    Pairing.all_names;
  print_newline ();
  let per_set name =
    let p = Option.get (Pairing.by_name name) in
    let rng = Hashing.Drbg.create ~seed:("sweep-" ^ name) () in
    let ssec, spub = Tre.Server.keygen p rng in
    let usec, upub = Tre.User.keygen p spub rng in
    let u = Tre.issue_update p ssec t_label in
    let ct = Tre.encrypt p spub upub ~release_time:t_label rng msg32 in
    [
      ("pairing", fun () -> ignore (Pairing.pairing p p.Pairing.g p.Pairing.g));
      ( "tre-encrypt (validated)",
        fun () ->
          ignore (Tre.encrypt_prevalidated p spub upub ~release_time:t_label rng msg32) );
      ("tre-decrypt", fun () -> ignore (Tre.decrypt p usec u ct));
      ("update-generate", fun () -> ignore (Tre.issue_update p ssec t_label));
      ("update-verify", fun () -> ignore (Tre.verify_update p spub u));
    ]
  in
  let tables = List.map (fun n -> (n, per_set n)) Pairing.all_names in
  List.iter
    (fun op ->
      Printf.printf "%-24s" op;
      List.iter
        (fun (set_name, ops) ->
          let f = List.assoc op ops in
          let t, w = measure1 f in
          record "E1b"
            [ ("operation", S op); ("params", S set_name); ("ns", F t);
              ("alloc_words", F w) ];
          Printf.printf " %16s" (String.trim (pp_time t)))
        tables;
      print_newline ())
    [ "pairing"; "tre-encrypt (validated)"; "tre-decrypt"; "update-generate";
      "update-verify" ];
  Printf.printf
    "shape check: costs grow with field size (quadratic limb work per\n\
     multiplication x linear loop length), uniformly across operations.\n\
     The *b columns (y^2 = x^3 + 1 family) run the reference affine Miller\n\
     loop with denominators - the gap to the same-size y^2 = x^3 + x\n\
     column is what denominator elimination + Jacobian coordinates buy.\n"

(* =========================================================================
   E1-opt - precomputation & windowing: reference vs optimized hot paths
   ========================================================================= *)

(* Each row pits the straightforward reference algorithm against the
   precomputed/windowed one that the schemes actually run, and asserts the
   two return the SAME value before timing anything — a speedup that
   changes the answer is a bug, not an optimization. *)
type opt_row = {
  row_name : string;
  reference : unit -> unit;
  optimized : unit -> unit;
  agree : unit -> bool;
}

let e1opt_rows () =
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let fp = prms.Pairing.fp in
  let rng = Hashing.Drbg.create ~seed:"e1opt" () in
  let k = Pairing.random_scalar prms rng in
  let table = prms.Pairing.g_table in
  let g_prep = prms.Pairing.g_prep in
  let h = Pairing.hash_to_g1 prms "e1opt-variable-base" in
  (* Field/bigint fixtures at the size actually in play (256-bit p). *)
  let n = Bigint.magnitude prms.Pairing.p in
  let mont = Modarith.Mont.create prms.Pairing.p in
  let mbase = Modarith.Mont.of_bigint mont (Bigint.of_int 0xC0FFEE) in
  let e = Bigint.pred prms.Pairing.p in
  let a2 = Fp2.make ~re:(Fp.of_int fp 7) ~im:(Fp.of_int fp 11) in
  let verifier = Tre.make_verifier prms srv_pub in
  let enc = Tre.Encryptor.create prms srv_pub usr_pub in
  (* Warm the per-release-time cache so the timed loop measures the
     steady state (every encryption after the first to the same T). *)
  ignore (Tre.Encryptor.encrypt enc ~release_time:t_label rng msg32);
  [
    {
      row_name = "scalar-mult fixed-base";
      reference = (fun () -> ignore (Curve.mul_double_add curve k g));
      optimized = (fun () -> ignore (Curve.Table.mul table k));
      agree =
        (fun () ->
          Curve.equal (Curve.mul_double_add curve k g) (Curve.Table.mul table k));
    };
    {
      row_name = "scalar-mult variable-base";
      reference = (fun () -> ignore (Curve.mul_double_add curve k h));
      optimized = (fun () -> ignore (Curve.mul curve k h));
      agree =
        (fun () -> Curve.equal (Curve.mul_double_add curve k h) (Curve.mul curve k h));
    };
    {
      row_name = "mont-pow 255-bit exp";
      reference = (fun () -> ignore (Modarith.Mont.pow_binary mont mbase e));
      optimized = (fun () -> ignore (Modarith.Mont.pow mont mbase e));
      agree =
        (fun () ->
          Modarith.Mont.equal
            (Modarith.Mont.pow_binary mont mbase e)
            (Modarith.Mont.pow mont mbase e));
    };
    {
      row_name = "fp2-pow (GT exponent)";
      reference = (fun () -> ignore (Fp2.pow_binary fp a2 e));
      optimized = (fun () -> ignore (Fp2.pow fp a2 e));
      agree = (fun () -> Fp2.equal (Fp2.pow_binary fp a2 e) (Fp2.pow fp a2 e));
    };
    {
      row_name = "nat-sqr 256-bit";
      reference = (fun () -> ignore (Nat.mul n n));
      optimized = (fun () -> ignore (Nat.sqr n));
      agree = (fun () -> Nat.equal (Nat.mul n n) (Nat.sqr n));
    };
    {
      row_name = "pairing (prepared G)";
      reference = (fun () -> ignore (Pairing.pairing prms g h));
      optimized = (fun () -> ignore (Pairing.pairing_prepared prms g_prep h));
      agree =
        (fun () ->
          Fp2.equal (Pairing.pairing prms g h) (Pairing.pairing_prepared prms g_prep h));
    };
    {
      row_name = "update-verify";
      reference = (fun () -> ignore (Tre.verify_update prms srv_pub upd));
      optimized = (fun () -> ignore (Tre.verify_update_with prms verifier upd));
      agree =
        (fun () ->
          Tre.verify_update prms srv_pub upd && Tre.verify_update_with prms verifier upd);
    };
    {
      row_name = "tre-encrypt (same T)";
      reference =
        (fun () -> ignore (Tre.encrypt prms srv_pub usr_pub ~release_time:t_label rng msg32));
      optimized = (fun () -> ignore (Tre.Encryptor.encrypt enc ~release_time:t_label rng msg32));
      agree =
        (fun () ->
          (* Same-seeded DRBGs draw the same r, so the two paths must
             produce bit-identical ciphertexts. *)
          let r1 = Hashing.Drbg.create ~seed:"e1opt-enc" () in
          let r2 = Hashing.Drbg.create ~seed:"e1opt-enc" () in
          Tre.ciphertext_to_bytes prms
            (Tre.encrypt prms srv_pub usr_pub ~release_time:t_label r1 msg32)
          = Tre.ciphertext_to_bytes prms
              (Tre.Encryptor.encrypt enc ~release_time:t_label r2 msg32));
    };
  ]

let e1opt_check rows =
  List.iter
    (fun r ->
      if not (r.agree ()) then
        failwith (Printf.sprintf "E1-opt: %s: optimized path disagrees with reference"
                    r.row_name))
    rows

let e1opt_report () =
  heading "E1-opt: precomputation & windowing - reference vs optimized (mid128)";
  let rows = e1opt_rows () in
  e1opt_check rows;
  Printf.printf "%-26s %12s %12s %9s\n" "operation" "reference" "optimized" "speedup";
  List.iter
    (fun r ->
      let (t_ref, w_ref), (t_opt, w_opt) = measure2 r.reference r.optimized in
      record "E1opt"
        [ ("operation", S r.row_name); ("ns_reference", F t_ref);
          ("alloc_words_reference", F w_ref); ("ns_optimized", F t_opt);
          ("alloc_words_optimized", F w_opt); ("speedup", F (t_ref /. t_opt)) ];
      Printf.printf "%-26s %12s %12s %8.2fx\n" r.row_name (pp_time t_ref) (pp_time t_opt)
        (t_ref /. t_opt))
    rows;
  Printf.printf
    "shape check: every optimized path returns bit-identical results\n\
     (asserted above); fixed-base mult amortizes all doublings into the\n\
     one-time table, prepared pairings skip the first-argument point\n\
     arithmetic, and the encryptor cache removes the pairing entirely\n\
     from repeat encryptions to the same release time.\n"

(* [--smoke]: assert agreement and print one stable OK line per row (the
   ratio is masked by the cram test; it is printed for humans only). *)
let e1opt_smoke () =
  Printf.printf "E1-opt smoke: optimized vs reference at mid128\n";
  let rows = e1opt_rows () in
  e1opt_check rows;
  List.iter
    (fun r ->
      let (t_ref, _), (t_opt, _) = measure2 r.reference r.optimized in
      Printf.printf "%-26s OK (%.2fx)\n" r.row_name (t_ref /. t_opt))
    rows;
  Printf.printf "all optimized paths agree with reference\n"

(* =========================================================================
   E1-kernel - fixed-limb in-place kernels vs the generic Mont reference
   ========================================================================= *)

(* Each row pits the variable-length generic path (Modarith.Mont, or the
   functional curve/pairing formulas built on it in spirit) against the
   fixed-limb in-place kernel path the schemes now run, asserts
   bit-identity first, then reports time AND allocated words per op for
   both. The end-to-end scheme rows have no surviving reference variant
   (the kernels are wired under everything), so they report the kernel
   column only — their trajectory across PRs lives in the JSON dump. *)
type kernel_row = {
  krow_name : string;
  kref : (unit -> unit) option;
  kker : unit -> unit;
  kagree : unit -> bool;
}

let e1kernel_sets = [ "toy64"; "toy64b"; "mid128"; "mid128b"; "std160" ]

let e1kernel_rows set_name =
  let p = Option.get (Pairing.by_name set_name) in
  let fp = p.Pairing.fp in
  let curve = p.Pairing.curve in
  let g = p.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:("e1k-" ^ set_name) () in
  let mont = Modarith.Mont.create p.Pairing.p in
  let rand_elt () =
    Bigint.erem
      (Bigint.of_bytes_be (Hashing.Drbg.generate rng (Fp.byte_length fp + 3)))
      p.Pairing.p
  in
  (* A deterministic non-generator first argument for the Miller-loop
     row, so it times a live walker of the product kernel rather than
     the generator's prepared schedule, to which both curve families
     promote G (the "pairing" row, G with G, covers that path). *)
  let pm = Pairing.mul_g p (Bigint.of_int 12345) in
  let mv = Pairing.miller_loop_ref p g g in
  let xb = rand_elt () and yb = rand_elt () in
  let xk = Fp.of_bigint fp xb and yk = Fp.of_bigint fp yb in
  let xm = Modarith.Mont.of_bigint mont xb
  and ym = Modarith.Mont.of_bigint mont yb in
  let dst = Fp.Mut.alloc fp in
  let steps = 64 in
  let srng = Hashing.Drbg.create ~seed:("e1k-tre-" ^ set_name) () in
  let ssec, spub = Tre.Server.keygen p srng in
  let usec, upub = Tre.User.keygen p spub srng in
  let u = Tre.issue_update p ssec t_label in
  let ct = Tre.encrypt p spub upub ~release_time:t_label srng msg32 in
  (* The paper's client-side update verification e(sG, H1(T)) = e(G, I_T),
     in both shapes: two separate prepared kernel pairings compared in GT
     (the pre-product best path) vs one interleaved Miller product with
     the GF(p)-membership decision. *)
  let h_t = Pairing.hash_to_g1 p t_label in
  let iv = u.Tre.update_value in
  let iv_bad = Curve.add curve iv g in
  let vsg = Pairing.prepare p spub.Tre.Server.sg in
  let vg = Pairing.prepare p spub.Tre.Server.g in
  let separate_says pt =
    Pairing.gt_equal
      (Pairing.pairing_prepared p vsg h_t)
      (Pairing.pairing_prepared p vg pt)
  in
  let product_says pt =
    Pairing.check_product_one_mixed p
      [ (Pairing.Prepared vsg, h_t);
        (Pairing.Prepared vg, Curve.neg curve pt) ]
  in
  (* The layers under single-update verification besides the pairings:
     variable-base scalar multiplication, G1 membership and H1, each
     against its definition on the reference double-and-add. [off_g1] is
     a curve point outside G1, so membership must say no as well as
     yes. *)
  let k = Pairing.random_scalar p rng in
  let in_g1_ref pt =
    Curve.on_curve curve pt
    && Curve.is_infinity (Curve.mul_double_add curve p.Pairing.q pt)
  in
  let off_g1 =
    let rec find i =
      let pt = Pairing.hash_to_g1_unclamped p (Printf.sprintf "e1k-off-g1|%d" i) in
      if in_g1_ref pt then find (i + 1) else pt
    in
    find 0
  in
  let h1_ref label =
    Curve.mul_double_add curve p.Pairing.cofactor (Pairing.hash_to_g1_unclamped p label)
  in
  [
    {
      krow_name = "field-mul";
      kref = Some (fun () -> ignore (Modarith.Mont.mul mont xm ym));
      kker = (fun () -> Fp.Mut.mul_into fp dst xk yk);
      kagree =
        (fun () ->
          Bigint.equal
            (Modarith.Mont.to_bigint mont (Modarith.Mont.mul mont xm ym))
            (Fp.to_bigint fp (Fp.mul fp xk yk)));
    };
    {
      krow_name = "field-sqr";
      kref = Some (fun () -> ignore (Modarith.Mont.sqr mont xm));
      kker = (fun () -> Fp.Mut.sqr_into fp dst xk);
      kagree =
        (fun () ->
          Bigint.equal
            (Modarith.Mont.to_bigint mont (Modarith.Mont.sqr mont xm))
            (Fp.to_bigint fp (Fp.sqr fp xk)));
    };
    {
      krow_name = "field-inv";
      kref = Some (fun () -> ignore (Modarith.Mont.inv mont xm));
      kker = (fun () -> ignore (Fp.inv fp xk));
      kagree =
        (fun () ->
          Bigint.equal
            (Modarith.Mont.to_bigint mont (Modarith.Mont.inv mont xm))
            (Fp.to_bigint fp (Fp.inv fp xk)));
    };
    {
      krow_name = Printf.sprintf "curve-steps (%d dbl+add)" steps;
      kref = Some (fun () -> ignore (Curve.jac_steps_ref curve g steps));
      kker = (fun () -> ignore (Curve.jac_steps_kernel curve g steps));
      kagree =
        (fun () ->
          Curve.equal
            (Curve.jac_steps_ref curve g steps)
            (Curve.jac_steps_kernel curve g steps));
    };
    {
      krow_name = "pairing";
      kref = Some (fun () -> ignore (Pairing.pairing_ref p g g));
      kker = (fun () -> ignore (Pairing.pairing p g g));
      kagree =
        (fun () -> Fp2.equal (Pairing.pairing_ref p g g) (Pairing.pairing p g g));
    };
    {
      krow_name = "miller-loop";
      kref = Some (fun () -> ignore (Pairing.miller_loop_ref p pm g));
      kker = (fun () -> ignore (Pairing.miller_loop p pm g));
      kagree =
        (fun () ->
          (* Raw Miller values differ by GF(p)* factors between the two
             schedules; agreement is defined after final exponentiation. *)
          Fp2.equal
            (Pairing.final_exponentiation_ref p (Pairing.miller_loop_ref p pm g))
            (Pairing.final_exponentiation_ref p (Pairing.miller_loop p pm g)));
    };
    {
      krow_name = "final-exp";
      kref = Some (fun () -> ignore (Pairing.final_exponentiation_ref p mv));
      kker = (fun () -> ignore (Pairing.final_exponentiation p mv));
      kagree =
        (fun () ->
          Fp2.equal
            (Pairing.final_exponentiation_ref p mv)
            (Pairing.final_exponentiation p mv));
    };
    {
      krow_name = "verify-2pair";
      kref = Some (fun () -> ignore (separate_says iv));
      kker = (fun () -> ignore (product_says iv));
      kagree =
        (fun () ->
          (* Same verdicts as two full pairings, on the honest update AND
             a tampered one — the product-vs-separate agreement assert. *)
          product_says iv && separate_says iv
          && (not (product_says iv_bad))
          && not (separate_says iv_bad));
    };
    {
      krow_name = "curve-mul";
      kref = Some (fun () -> ignore (Curve.mul_double_add curve k h_t));
      kker = (fun () -> ignore (Curve.mul curve k h_t));
      kagree =
        (fun () -> Curve.equal (Curve.mul_double_add curve k h_t) (Curve.mul curve k h_t));
    };
    {
      krow_name = "in-g1";
      kref = Some (fun () -> ignore (in_g1_ref iv));
      kker = (fun () -> ignore (Pairing.in_g1 p iv));
      kagree =
        (fun () ->
          in_g1_ref iv && Pairing.in_g1 p iv
          && (not (Pairing.in_g1 p off_g1))
          && not (in_g1_ref off_g1));
    };
    {
      krow_name = "hash-to-g1";
      kref = Some (fun () -> ignore (h1_ref t_label));
      kker = (fun () -> ignore (Pairing.hash_to_g1 p t_label));
      kagree = (fun () -> Curve.equal (h1_ref t_label) (Pairing.hash_to_g1 p t_label));
    };
    {
      krow_name = "tre-encrypt";
      kref = None;
      kker =
        (fun () ->
          ignore
            (Tre.encrypt_prevalidated p spub upub ~release_time:t_label srng msg32));
      kagree = (fun () -> true);
    };
    {
      krow_name = "tre-decrypt";
      kref = None;
      kker = (fun () -> ignore (Tre.decrypt p usec u ct));
      kagree = (fun () -> true);
    };
  ]

let e1kernel_check rows =
  List.iter
    (fun r ->
      if not (r.kagree ()) then
        failwith
          (Printf.sprintf "E1-kernel: %s: kernel path disagrees with reference"
             r.krow_name))
    rows

let e1kernel_report () =
  heading "E1-kernel: fixed-limb in-place kernels vs generic Mont reference";
  let kernel_rows = ref [] in
  List.iter
    (fun set_name ->
      let rows = e1kernel_rows set_name in
      e1kernel_check rows;
      Printf.printf "\n[%s]\n" set_name;
      Printf.printf "%-26s %12s %9s %12s %9s %9s\n" "operation" "reference"
        "ref w/op" "kernel" "ker w/op" "speedup";
      List.iter
        (fun r ->
          let (t_ref, w_ref), (t_ker, w_ker) =
            match r.kref with
            | Some f -> measure2 f r.kker
            | None -> ((nan, nan), measure1 r.kker)
          in
          let fields =
            [ ("params", S set_name); ("operation", S r.krow_name);
              ("ns_reference", F t_ref); ("alloc_words_reference", F w_ref);
              ("ns_kernel", F t_ker); ("alloc_words_kernel", F w_ker);
              ("speedup", F (t_ref /. t_ker)) ]
          in
          record "E1-kernel" fields;
          kernel_rows := ("E1-kernel", fields) :: !kernel_rows;
          match r.kref with
          | Some _ ->
              Printf.printf "%-26s %12s %9s %12s %9s %8.2fx\n" r.krow_name
                (pp_time t_ref) (pp_words w_ref) (pp_time t_ker)
                (pp_words w_ker) (t_ref /. t_ker)
          | None ->
              Printf.printf "%-26s %12s %9s %12s %9s %9s\n" r.krow_name "-" "-"
                (pp_time t_ker) (pp_words w_ker) "-")
        rows)
    e1kernel_sets;
  write_json "BENCH_E1_KERNEL.json" (List.rev !kernel_rows);
  Printf.printf "\nwrote %d rows to BENCH_E1_KERNEL.json\n"
    (List.length !kernel_rows);
  Printf.printf
    "shape check: the in-place product-scanning kernel multiplies >=2x faster\n\
     at mid128 and allocates nothing (the generic reference pays ~40 words of\n\
     scratch + Array.sub copies + a normalization pass per call); the gap\n\
     compounds up the stack through the curve step and the Miller loop into\n\
     the end-to-end scheme operations, whose layers above the field still\n\
     allocate (the live Miller loop ~1k words/op at mid128, H1 a few\n\
     thousand). The miller-loop and final-exp rows split the pairing: a live\n\
     walker of the product kernel wins the Miller half, the cyclotomic window\n\
     the exponentiation, and the full-pairing row (G with G) adds the\n\
     generator's prepared schedule on top, on both curve families. The\n\
     verify-2pair row is the paper's two-pairing update verification as ONE\n\
     product with a shared squaring chain and the GF(p) membership decision\n\
     in place of any final exponentiation, against two separate prepared\n\
     pairings (each a one-slot product): ~1.3-1.4x on every set (on\n\
     y^2 = x^3 + 1 both sides run the trace-zero prepared schedule, whose\n\
     image inversion the product also shares). The curve-mul, in-g1 and\n\
     hash-to-g1 rows are the rest of a single update's verification: the\n\
     x-only Montgomery ladder, the membership test that needs no y, and H1's\n\
     cofactor clearing on the ladder, each against the reference\n\
     double-and-add (tools/bench_guard.ml holds these ratios as CI floors).\n"

(* [--smoke]: bit-identity of every kernel path against the generic
   reference, across all five named parameter sets. *)
let e1kernel_smoke () =
  Printf.printf "E1-kernel smoke: in-place kernels vs generic reference\n";
  List.iter
    (fun set_name ->
      let rows = e1kernel_rows set_name in
      e1kernel_check rows;
      Printf.printf "kernel-vs-ref %-12s OK\n" set_name)
    e1kernel_sets;
  Printf.printf "all kernel paths agree with the generic reference\n"

(* --- E14: verifiable pairing delegation — thin client vs on-device ---

   Client-side cost of outsourcing pairings to two untrusted helpers
   (Delegate, hardened Liu-Cao-resistant check) against computing the
   same result on-device with the kernel pairing stack. The helpers run
   in-process; their serve time — and the offline blinding-tuple
   generation — accumulates on an instrumented clock and is subtracted
   INSIDE each sample window ([measure]'s [excluded]), so the client
   rows measure exactly the thin client's online arithmetic (wrap,
   unwrap, the membership and secret-exponent cross-run checks), not
   helper or precompute work.

   Before any timing, each set runs the forgery gate: the Liu-Cao
   mu-shift MUST pass the published check (that bug is a reproduction
   target, pinned here and in test_delegate.ml) and MUST be rejected by
   the hardened check. A bench run on a build where either direction
   flipped dies instead of reporting numbers for a broken protocol. *)

let e14_forgery_gate p dctx drbg =
  let a = Pairing.mul_g p (Pairing.random_scalar p drbg) in
  let b = Pairing.mul_g p (Pairing.random_scalar p drbg) in
  let expected = Pairing.pairing p a b in
  let mu =
    Pairing.gt_pow p (Pairing.pairing p p.Pairing.g p.Pairing.g)
      (Bigint.of_int 271829)
  in
  let evil q =
    let r = Delegate.serve p q in
    r.(0) <- Pairing.gt_mul p r.(0) mu;
    r
  in
  let honest q = Delegate.serve p q in
  (match
     Delegate.pair dctx ~mode:Delegate.Published drbg ~helper1:evil
       ~helper2:honest ~a ~b
   with
  | Ok v when Pairing.gt_equal v (Pairing.gt_mul p expected mu) -> ()
  | Ok _ -> failwith "E14: forgery produced an unexpected value"
  | Error _ ->
      failwith
        "E14: published check rejected the Liu-Cao forgery (it must accept)");
  match
    Delegate.pair dctx ~mode:Delegate.Hardened drbg ~helper1:evil ~helper2:honest
      ~a ~b
  with
  | Ok _ -> failwith "E14: hardened check accepted the Liu-Cao forgery"
  | Error _ -> ()

let e14delegate_report () =
  heading "E14: pairing delegation — thin-client outsourcing vs on-device";
  let e14_rows = ref [] in
  let emit set_name op t_ref t_ker =
    let fields =
      [ ("params", S set_name); ("operation", S op); ("ns_reference", F t_ref);
        ("ns_kernel", F t_ker); ("speedup", F (t_ref /. t_ker)) ]
    in
    record "E14-delegate" fields;
    e14_rows := ("E14-delegate", fields) :: !e14_rows;
    if Float.is_nan t_ref then
      Printf.printf "%-26s %12s %12s %9s\n" op "-" (pp_time t_ker) "-"
    else
      Printf.printf "%-26s %12s %12s %8.2fx\n" op (pp_time t_ref) (pp_time t_ker)
        (t_ref /. t_ker)
  in
  List.iter
    (fun set_name ->
      let p =
        match Pairing.by_name set_name with
        | Some p -> p
        | None -> failwith ("E14: unknown set " ^ set_name)
      in
      let dctx = Delegate.make p in
      let drbg = Hashing.Drbg.create ~seed:("e14|" ^ set_name) () in
      e14_forgery_gate p dctx drbg;
      Printf.printf "\n[%s]  forgery gate: published accepts, hardened rejects\n"
        set_name;
      Printf.printf "%-26s %12s %12s %9s\n" "operation" "on-device" "client"
        "speedup";
      let a = Pairing.mul_g p (Pairing.random_scalar p drbg) in
      let b = Pairing.mul_g p (Pairing.random_scalar p drbg) in
      (* everything on [clock] is NOT client online work *)
      let clock = ref 0.0 in
      let timed_serve q =
        let t0 = Sys.time () in
        let r = Delegate.serve p q in
        clock := !clock +. (Sys.time () -. t0);
        r
      in
      let blinds () =
        let t0 = Sys.time () in
        let bls = (Delegate.blind dctx drbg, Delegate.blind dctx drbg) in
        clock := !clock +. (Sys.time () -. t0);
        bls
      in
      (* raw pairing: on-device kernel vs delegated (hardened) *)
      let (tr, _), (tk, _) =
        measure2 ~excluded:clock
          (fun () -> Pairing.pairing p a b)
          (fun () ->
            match
              Delegate.pair dctx ~mode:Delegate.Hardened ~blindings:(blinds ())
                drbg ~helper1:timed_serve ~helper2:timed_serve ~a ~b
            with
            | Ok v -> v
            | Error e -> failwith ("E14 delegated pair: " ^ e))
      in
      emit set_name "delegate-pair-client" tr tk;
      (* the scheme's verification equation: prepared 2-pair product
         kernel on-device vs two delegated wraps (c folded into the
         cofactor clearing) *)
      let srv_sec14, srv_pub14 = Tre.Server.keygen p drbg in
      let vrf = Tre.Verifier.create p srv_pub14 in
      let upd14 = Tre.issue_update p srv_sec14 "e14-epoch" in
      let (tr, _), (tk, _) =
        measure2 ~excluded:clock
          (fun () ->
            if not (Tre.verify_update_with p vrf upd14) then
              failwith "E14: on-device verify rejected a valid update")
          (fun () ->
            if
              not
                (Tre.Verifier.verify_update_delegated p vrf
                   ~blindings:(blinds ()) drbg ~helper1:timed_serve
                   ~helper2:timed_serve upd14)
            then failwith "E14: delegated verify rejected a valid update")
      in
      emit set_name "delegate-verify" tr tk;
      (* offline phase: one delegated operation's worth of tuples *)
      let t_off, _ =
        measure1 (fun () -> (Delegate.blind dctx drbg, Delegate.blind dctx drbg))
      in
      emit set_name "delegate-offline (2 tuples)" nan t_off;
      (* helper-side work for one wrap (its 2 + 3 query slots) *)
      let w = Delegate.wrap dctx (Delegate.blind dctx drbg) ~a ~b in
      let q1 = Delegate.queries1 w and q2 = Delegate.queries2 w in
      let t_helper, _ =
        measure1 (fun () -> (Delegate.serve p q1, Delegate.serve p q2))
      in
      emit set_name "delegate-helper (1 wrap)" nan t_helper)
    e1kernel_sets;
  write_json "BENCH_E14_DELEGATE.json" (List.rev !e14_rows);
  Printf.printf "\nwrote %d rows to BENCH_E14_DELEGATE.json\n"
    (List.length !e14_rows);
  Printf.printf
    "shape check: delegate-pair-client is the thin client's ONLINE cost of\n\
     one outsourced pairing under the hardened check (helper serve time\n\
     and offline blinding excluded). It wins from toy64b up and most\n\
     clearly on the sparse-order sets (mid128b ~2x, std160 ~1.5x), where\n\
     the avoided Miller loop is expensive relative to the check's GT\n\
     work. delegate-verify is the deployed shape — the whole two-pairing\n\
     update verification as two wraps, the secret exponent folded into\n\
     cofactor clearing — and beats on-device verification from mid128\n\
     up; on the toy sets the on-device product is cheaper than the\n\
     check's GT work. Besides the blinded sums (one shared inversion per\n\
     wrap) its client cost is H1 with the secret exponent folded into\n\
     the cofactor clearing, the short exponentiation, and one full-width\n\
     GT membership exponentiation the hardened check needs for soundness\n\
     against non-subgroup shifts (the second is implied when the check\n\
     passes). tools/bench_guard.ml floors every row pair (lenient on the\n\
     toys, where losing is the honest result).\n"

(* [--smoke] for the batch/parallel layer: every batched or pool-sharded
   path must agree EXACTLY with its serial reference — same verdicts, same
   bytes, same network trace. One stable OK line per check (cram-tested). *)
let batch_smoke () =
  Printf.printf "Batch/parallel smoke: 2-domain pool vs serial\n";
  let pool = Pool.create ~domains:2 () in
  let xs = List.init 1000 Fun.id in
  let f x = (x * x) + 7 in
  assert (Pool.map pool f xs = List.map f xs);
  assert (Pool.map pool f [] = [] && Pool.map pool f [ 3 ] = [ f 3 ]);
  Printf.printf "%-26s OK\n" "pool-map determinism";
  let verifier = Tre.make_verifier prms srv_pub in
  let updates =
    List.init 8 (fun i -> Tre.issue_update prms srv_sec (Printf.sprintf "smoke-ep-%d" i))
  in
  let forged =
    match updates with
    | u :: rest -> { u with Tre.update_value = prms.Pairing.g } :: rest
    | [] -> []
  in
  assert (List.for_all (Tre.verify_update_with prms verifier) updates);
  assert (Tre.Verifier.verify_updates prms verifier updates);
  assert (Tre.Verifier.verify_updates ~pool prms verifier updates);
  assert (not (Tre.Verifier.verify_updates prms verifier forged));
  assert (not (Tre.Verifier.verify_updates ~pool prms verifier forged));
  Printf.printf "%-26s OK\n" "verify-updates batch";
  let bls_pub = { Bls.g = srv_pub.Tre.Server.g; pk = srv_pub.Tre.Server.sg } in
  let pairs = List.map (fun u -> (u.Tre.update_time, u.Tre.update_value)) updates in
  assert (Bls.verify_batch prms bls_pub pairs);
  assert (Bls.verify_batch ~pool prms bls_pub pairs);
  let poisoned = ("smoke-ep-0", prms.Pairing.g) :: List.tl pairs in
  assert (not (Bls.verify_batch prms bls_pub poisoned));
  assert (not (Bls.verify_batch ~pool prms bls_pub poisoned));
  Printf.printf "%-26s OK\n" "bls-verify-batch";
  let cts =
    List.map
      (fun u ->
        ( u,
          Tre.encrypt_prevalidated prms srv_pub usr_pub
            ~release_time:u.Tre.update_time rng msg32 ))
      updates
  in
  let serial_pts = List.map (fun (u, ct) -> Tre.decrypt prms usr_sec u ct) cts in
  assert (Tre.decrypt_batch ~pool prms usr_sec cts = serial_pts);
  Printf.printf "%-26s OK\n" "tre-decrypt-batch";
  (* Same seed, serial vs pooled delivery: trace and plaintexts must be
     identical (delivery timestamps legitimately differ — the pooled drain
     collapses per-recipient jitter, see Simnet.broadcast). *)
  let run_sim pool =
    let net = Simnet.create ~seed:"smoke-drain" ~loss:0.2 () in
    let tl = Timeline.create ~granularity:10.0 () in
    let server = Passive_server.create toy ~net ~timeline:tl ~name:"server" in
    let clients =
      List.init 8 (fun i ->
          Client.create toy ~net ~server:(Passive_server.public server)
            ~name:(Printf.sprintf "c%d" i))
    in
    List.iter
      (fun c ->
        Client.enqueue_ciphertext c
          (Tre.encrypt toy (Passive_server.public server) (Client.public_key c)
             ~release_time:(Timeline.label tl 1) (Simnet.rng net) "drain"))
      clients;
    Passive_server.start ?pool server ~net ~first_epoch:1 ~epochs:2
      ~recipients:(List.map (fun c -> (Client.name c, Client.on_wire c)) clients);
    Simnet.run net;
    ( Simnet.trace net,
      List.map
        (fun c ->
          List.map
            (fun d -> (d.Client.plaintext, d.Client.release_label))
            (Client.deliveries c))
        clients )
  in
  let trace_s, deliv_s = run_sim None in
  let trace_p, deliv_p = run_sim (Some pool) in
  assert (trace_s = trace_p);
  assert (deliv_s = deliv_p);
  assert (List.exists (fun ds -> ds <> []) deliv_s);
  Printf.printf "%-26s OK\n" "simnet parallel drain";
  Pool.shutdown pool;
  Printf.printf "all parallel paths agree with serial\n"

(* =========================================================================
   A1 - ablation: implementation choices (pairing products)
   ========================================================================= *)

let a1_report () =
  heading "A1 (ablation): shared final exponentiation in verification";
  let h1t = Pairing.hash_to_g1 prms upd.Tre.update_time in
  (* The pre-optimization verification: two full pairings compared. *)
  let naive_verify () =
    ignore
      (Pairing.gt_equal
         (Pairing.pairing prms srv_pub.Tre.Server.sg h1t)
         (Pairing.pairing prms srv_pub.Tre.Server.g upd.Tre.update_value))
  in
  let product_verify () =
    ignore
      (Pairing.pairing_equal_check prms
         ~lhs:(srv_pub.Tre.Server.sg, h1t)
         ~rhs:(srv_pub.Tre.Server.g, upd.Tre.update_value))
  in
  let (t_naive, w_naive), (t_prod, w_prod) = measure2 naive_verify product_verify in
  record "A1"
    [ ("operation", S "update-verify"); ("ns_naive", F t_naive);
      ("alloc_words_naive", F w_naive); ("ns_product", F t_prod);
      ("alloc_words_product", F w_prod); ("speedup", F (t_naive /. t_prod)) ];
  Printf.printf "update verification:  2 pairings %s | product+1 final-exp %s (%.2fx)\n"
    (String.trim (pp_time t_naive))
    (String.trim (pp_time t_prod))
    (t_naive /. t_prod);
  let _, _, a4, ct4, upds4 = e5_fixture 4 in
  let naive_ms () =
    let scalar = Tre.User.secret_to_scalar a4 in
    let k =
      List.fold_left
        (fun (acc, i) (u : Tre.update) ->
          ( Pairing.gt_mul prms acc
              (Pairing.gt_pow prms
                 (Pairing.pairing prms ct4.Multi_server.us.(i) u.Tre.update_value)
                 scalar),
            i + 1 ))
        (Pairing.gt_one prms, 0)
        upds4
      |> fst
    in
    ignore
      (Hashing.Kdf.xor ct4.Multi_server.v
         (Pairing.h2 prms k (String.length ct4.Multi_server.v)))
  in
  let product_ms () = ignore (Multi_server.decrypt prms a4 upds4 ct4) in
  let (t_naive, w_naive), (t_prod, w_prod) = measure2 naive_ms product_ms in
  record "A1"
    [ ("operation", S "multi-server-decrypt-n4"); ("ns_naive", F t_naive);
      ("alloc_words_naive", F w_naive); ("ns_product", F t_prod);
      ("alloc_words_product", F w_prod); ("speedup", F (t_naive /. t_prod)) ];
  Printf.printf "multi-server dec n=4: 4 pairings %s | product form       %s (%.2fx)\n"
    (String.trim (pp_time t_naive))
    (String.trim (pp_time t_prod))
    (t_naive /. t_prod)

(* =========================================================================
   E10 - multicore batch engine: batched + parallel verification & decryption
   ========================================================================= *)

let e10_batch_n = if quick then 16 else 32

let e10_report () =
  heading
    (Printf.sprintf "E10: multicore batch engine (mid128, batch of %d, host cores: %d)"
       e10_batch_n (Pool.recommended ()));
  let verifier = Tre.make_verifier prms srv_pub in
  let updates =
    List.init e10_batch_n (fun i ->
        Tre.issue_update prms srv_sec (Printf.sprintf "e10-epoch-%d" i))
  in
  let n = float_of_int e10_batch_n in
  (* Correctness before timing: the batched verdict must agree with
     per-item verification, and one forged update must poison the batch. *)
  assert (List.for_all (Tre.verify_update_with prms verifier) updates);
  assert (Tre.Verifier.verify_updates prms verifier updates);
  let forged =
    match updates with
    | u :: rest ->
        { u with
          Tre.update_value =
            Curve.add prms.Pairing.curve u.Tre.update_value prms.Pairing.g }
        :: rest
    | [] -> []
  in
  assert (not (Tre.Verifier.verify_updates prms verifier forged));
  let e10_rows = ref [] in
  let t_serial, w_serial =
    measure1 ~samples:11 (fun () ->
        ignore (List.for_all (Tre.verify_update_with prms verifier) updates))
  in
  Printf.printf "%-22s %8s %13s %13s %9s\n" "verify mode" "domains" "time/batch"
    "updates/s" "speedup";
  let row mode domains (t, w) =
    let fields =
      [ ("mode", S mode); ("domains", S domains); ("batch", I e10_batch_n);
        ("ns_per_batch", F t); ("alloc_words_per_batch", F w);
        ("updates_per_sec", F (n /. (t /. 1e9)));
        ("speedup_vs_serial", F (t_serial /. t)) ]
    in
    record "E10" fields;
    e10_rows := ("E10", fields) :: !e10_rows;
    Printf.printf "%-22s %8s %13s %13.1f %8.2fx\n" mode domains (pp_time t)
      (n /. (t /. 1e9)) (t_serial /. t)
  in
  (* Context row: what a verifier WITHOUT prepared pairings pays (the
     plain public API). The speedup column stays anchored to the
     stronger prepared-serial baseline below. *)
  row "serial (cold verifier)" "-"
    (measure1 ~samples:11 (fun () ->
         ignore (List.for_all (Tre.verify_update prms srv_pub) updates)));
  row "serial per-item" "-" (t_serial, w_serial);
  row "batched (2 pairings)" "-"
    (measure1 ~samples:11 (fun () ->
         ignore (Tre.Verifier.verify_updates prms verifier updates)));
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d () in
      (* The pooled verdict must be the serial one, for good and forged
         batches alike, before its timing means anything. *)
      assert (Tre.Verifier.verify_updates ~pool prms verifier updates);
      assert (not (Tre.Verifier.verify_updates ~pool prms verifier forged));
      row "batched + pool" (string_of_int d)
        (measure1 ~samples:11 (fun () ->
             ignore (Tre.Verifier.verify_updates ~pool prms verifier updates)));
      Pool.shutdown pool)
    [ 1; 2; 4; 8 ];
  (* Oversubscribed rows BOUND the cost of lanes beyond the core count
     instead of asserting it: same batch, cap lifted, so the slowdown
     relative to the capped rows above is the measured GC-handshake tax. *)
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d ~oversubscribe:true () in
      assert (Tre.Verifier.verify_updates ~pool prms verifier updates);
      row "batched + oversub" (string_of_int d)
        (measure1 ~samples:11 (fun () ->
             ignore (Tre.Verifier.verify_updates ~pool prms verifier updates)));
      Pool.shutdown pool)
    [ 2; 4 ];
  (* Scheduling evidence (replaces the old "unproven on a 1-core host"
     caveat): Pool.stats counts the chunks and items each lane actually
     retired, so the JSON records whether the batch truly spread across
     domains — on a 1-core host every item lands on lane 0 and the pool
     rows above are READ as overhead-free fallback, not as scaling. *)
  Printf.printf "\n%-22s %8s %13s %22s\n" "scheduling" "domains" "par.batches"
    "items per lane";
  let sched_row mode pool reps =
    Pool.reset_stats pool;
    for _ = 1 to reps do
      ignore (Tre.Verifier.verify_updates ~pool prms verifier updates)
    done;
    let st = Pool.stats pool in
    let lanes =
      String.concat ","
        (Array.to_list (Array.map string_of_int st.Pool.items_by_lane))
    in
    let fields =
      [ ("mode", S mode); ("domains", I (Pool.size pool));
        ("batches", I st.Pool.batches);
        ("parallel_batches", I st.Pool.parallel_batches);
        ("items_by_lane", S lanes); ("host_cores", I (Pool.recommended ())) ]
    in
    record "E10-sched" fields;
    e10_rows := ("E10-sched", fields) :: !e10_rows;
    Printf.printf "%-22s %8d %13d %22s\n" mode (Pool.size pool)
      st.Pool.parallel_batches lanes
  in
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d () in
      sched_row "capped (default)" pool 5;
      Pool.shutdown pool)
    [ 2; 4 ];
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d ~oversubscribe:true () in
      sched_row "oversubscribed" pool 5;
      Pool.shutdown pool)
    [ 2; 4 ];
  (* decrypt_batch: no algebraic collapse exists here (each ciphertext
     needs its own pairing), so this row shows the pool sharding alone. *)
  let cts =
    List.map
      (fun u ->
        ( u,
          Tre.encrypt_prevalidated prms srv_pub usr_pub
            ~release_time:u.Tre.update_time rng msg32 ))
      updates
  in
  let serial_pts = List.map (fun (u, ct) -> Tre.decrypt prms usr_sec u ct) cts in
  let t_dec_serial =
    measure1 ~samples:11 (fun () ->
        ignore (List.map (fun (u, ct) -> Tre.decrypt prms usr_sec u ct) cts))
  in
  let pool = Pool.create ~domains:4 () in
  assert (Tre.decrypt_batch ~pool prms usr_sec cts = serial_pts);
  let t_dec_pool =
    measure1 ~samples:11 (fun () ->
        ignore (Tre.decrypt_batch ~pool prms usr_sec cts))
  in
  Pool.shutdown pool;
  let dec_row mode domains (t, w) =
    let fields =
      [ ("mode", S mode); ("domains", S domains); ("batch", I e10_batch_n);
        ("ns_per_batch", F t); ("alloc_words_per_batch", F w);
        ("ops_per_sec", F (n /. (t /. 1e9))) ]
    in
    record "E10-decrypt" fields;
    e10_rows := ("E10-decrypt", fields) :: !e10_rows;
    Printf.printf "%-22s %8s %13s %13.1f\n" mode domains (pp_time t)
      (n /. (t /. 1e9))
  in
  Printf.printf "\n%-22s %8s %13s %13s\n" "decrypt mode" "domains" "time/batch"
    "decrypts/s";
  dec_row "serial per-item" "-" t_dec_serial;
  dec_row "decrypt_batch + pool" "4" t_dec_pool;
  write_json "BENCH_E10.json" (List.rev !e10_rows);
  Printf.printf "wrote %d rows to BENCH_E10.json\n" (List.length !e10_rows);
  Printf.printf
    "shape check: batching collapses 2n pairings into 2, hoists H1's\n\
     per-item cofactor clearing into one h-mult on the sum, and replaces\n\
     n subgroup checks with one q-mult on the sum — so the batched rows\n\
     beat serial on one core; pool rows add whatever true parallelism the\n\
     host provides (lanes are capped at the core count, so oversized\n\
     pools match the best lane count instead of thrashing the GC).\n"

(* =========================================================================
   E12 - the missing-update-resilient extension (section 6 future work)
   ========================================================================= *)

let e12_report () =
  heading "E12: missing-update resilience (time-tree extension, mid128)";
  let depths = [ 4; 8; 12; 16 ] in
  Printf.printf "%-8s %10s %14s %16s %16s\n" "depth" "epochs" "ct overhead B"
    "avg cover size" "max cover size";
  List.iter
    (fun d ->
      let tree = Time_tree.create ~depth:d in
      let sample_epochs =
        if Time_tree.epochs tree <= 4096 then List.init (Time_tree.epochs tree) Fun.id
        else List.init 4096 (fun i -> i * (Time_tree.epochs tree / 4096))
      in
      let sizes = List.map (fun e -> List.length (Time_tree.cover tree e)) sample_epochs in
      let total = List.fold_left ( + ) 0 sizes in
      record "E12"
        [ ("depth", I d); ("epochs", I (Time_tree.epochs tree));
          ("ct_overhead_bytes", I (Resilient_tre.ciphertext_overhead prms tree));
          ("avg_cover", F (float_of_int total /. float_of_int (List.length sizes)));
          ("max_cover", I (List.fold_left Stdlib.max 0 sizes)) ];
      Printf.printf "%-8d %10d %14d %16.2f %16d\n" d (Time_tree.epochs tree)
        (Resilient_tre.ciphertext_overhead prms tree)
        (float_of_int total /. float_of_int (List.length sizes))
        (List.fold_left Stdlib.max 0 sizes))
    depths;
  (* Timing at depth 8 vs plain TRE. *)
  let tree = Time_tree.create ~depth:8 in
  let ct = Resilient_tre.encrypt prms tree srv_pub usr_pub ~release_epoch:100 rng msg32 in
  let cover = Resilient_tre.issue_cover prms tree srv_sec ~epoch:200 in
  let m =
    measure
      [| (fun () ->
           ignore
             (Resilient_tre.encrypt prms tree srv_pub usr_pub ~release_epoch:100 rng msg32));
         (fun () -> ignore (Resilient_tre.decrypt prms tree usr_sec ~cover ct));
         (fun () -> ignore (Resilient_tre.issue_cover prms tree srv_sec ~epoch:200)) |]
  in
  let (t_enc, w_enc), (t_dec, w_dec), (t_cover, w_cover) = (m.(0), m.(1), m.(2)) in
  record "E12-timing"
    [ ("depth", I 8); ("ns_encrypt", F t_enc); ("alloc_words_encrypt", F w_enc);
      ("ns_decrypt", F t_dec); ("alloc_words_decrypt", F w_dec);
      ("ns_issue_cover", F t_cover); ("alloc_words_issue_cover", F w_cover) ];
  Printf.printf
    "depth 8: encrypt %s (%d headers), decrypt %s, server cover issue %s\n"
    (String.trim (pp_time t_enc))
    (Time_tree.depth tree + 1)
    (String.trim (pp_time t_dec))
    (String.trim (pp_time t_cover));
  Printf.printf
    "shape check: receivers need only the LATEST broadcast (tested); the\n\
     price is depth+1 pairings/headers at encryption and <= depth+1 updates\n\
     per epoch broadcast - all still independent of the number of users.\n"

(* =========================================================================
   E11 - threshold time server (extension): cost of k-of-n issuance
   ========================================================================= *)

let e11_report () =
  heading "E11: threshold (k-of-n) update issuance (mid128)";
  Printf.printf "%-10s %14s %14s %14s %16s\n" "(k, n)" "partial issue"
    "partial verify" "combine k" "single server";
  let single, _ = measure1 (fun () -> ignore (Tre.issue_update prms srv_sec t_label)) in
  List.iter
    (fun (k, n) ->
      let rng = Hashing.Drbg.create ~seed:(Printf.sprintf "e11-%d-%d" k n) () in
      let system, servers = Threshold_server.setup prms rng ~k ~n in
      let partials =
        List.map (fun s -> Threshold_server.issue_partial prms s t_label) servers
      in
      let quorum = List.filteri (fun i _ -> i < k) partials in
      let m =
        measure
          [| (fun () ->
               ignore (Threshold_server.issue_partial prms (List.hd servers) t_label));
             (fun () ->
               ignore
                 (Threshold_server.verify_partial prms system t_label (List.hd partials)));
             (fun () -> ignore (Threshold_server.combine prms system t_label quorum)) |]
      in
      let (t_issue, w_issue), (t_verify, w_verify), (t_combine, w_combine) =
        (m.(0), m.(1), m.(2))
      in
      record "E11"
        [ ("k", I k); ("n", I n); ("ns_partial_issue", F t_issue);
          ("alloc_words_partial_issue", F w_issue);
          ("ns_partial_verify", F t_verify);
          ("alloc_words_partial_verify", F w_verify);
          ("ns_combine", F t_combine); ("alloc_words_combine", F w_combine);
          ("ns_single_server", F single) ];
      Printf.printf "%-10s %14s %14s %14s %16s\n"
        (Printf.sprintf "(%d, %d)" k n)
        (String.trim (pp_time t_issue))
        (String.trim (pp_time t_verify))
        (String.trim (pp_time t_combine))
        (String.trim (pp_time single)))
    [ (2, 3); (3, 5); (5, 9) ];
  Printf.printf
    "shape check: the combined update is bit-identical to the single-server\n\
     one (receivers unchanged, tested); issuance parallelizes across the\n\
     quorum, and combination costs k scalar mults - availability n-k,\n\
     early-release threshold k.\n"

(* --- driver --- *)

let () =
  if smoke then begin
    e1opt_smoke ();
    e1kernel_smoke ();
    batch_smoke ();
    exit 0
  end;
  if e1kernel_only then begin
    e1kernel_report ();
    exit 0
  end;
  if e14delegate_only then begin
    e14delegate_report ();
    exit 0
  end;
  Printf.printf "timed-release-crypto benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  Printf.printf "parameters: mid128 (q %d bits, p %d bits), toy64 for simulations\n"
    (Bigint.bit_length prms.Pairing.q)
    (Bigint.bit_length prms.Pairing.p);
  e1_report ();
  e1opt_report ();
  e1kernel_report ();
  e1b_report ();
  e2_report ();
  e3_report ();
  e4_report ();
  e5_report ();
  e6_report ();
  e7_report ();
  e8_report ();
  e9_report ();
  e10_report ();
  e11_report ();
  e12_report ();
  a1_report ();
  (match json_path with
  | Some path ->
      write_json path (List.rev !json_rows);
      Printf.printf "wrote %d JSON rows to %s\n" (List.length !json_rows) path
  | None -> ());
  print_endline "\nall experiments complete."
