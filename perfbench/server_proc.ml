(* The time server under test, in its own process.

   The load process forks the daemon before any domain exists in it; the
   child builds a one-shard [Net_server] on a Unix socket and then serves
   a line protocol on a pair of pipes:

     parent -> child                      child -> parent
     history FIRST COUNT                  ok
     release T0 PERIOD FIRST COUNT        ticks S0 E0 C0 S1 E1 C1 ...
     mark                                 mark CPU_S MINOR_WORDS STATS_HEX
     stop                                 bye PEAK_RSS_KB, then exits

   [history] broadcasts a run of epochs so they sit in the frame cache.
   [release] ticks epoch FIRST+k at the due instant T0 + k*PERIOD (the
   child sleeps until each instant; it never polls) and returns each
   tick's start and end stamps and the process CPU seconds it took.
   [mark] snapshots the child's own CPU time, allocation and
   [Net_server.stats] (hex of its [Net_stats] wire form), so CPU is split
   between processes by the kernel's per-process accounting. [stop]
   exits the process at once, shard domain and all, without
   [Net_server.stop]'s wait for the listener to wake. EOF on the command
   pipe (the load process died) exits it too. *)

type t = {
  prms : Pairing.params;
  pid : int;
  down : out_channel;
  up : in_channel;
  sock : string;
}

type mark = { cpu_s : float; minor_words : float; stats : Netmsg.stats }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process, in kB ([VmHWM]; 0 where /proc is
   unavailable). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let child prms secret timeline sock down_r up_w =
  let cfg =
    { (Net_server.default_config prms timeline) with
      Net_server.unix_path = Some sock;
      shards = 1 }
  in
  let srv =
    Net_server.create ~secret cfg (Hashing.Drbg.create ~seed:"perfbench-unused" ())
  in
  Net_server.start srv;
  let ic = Unix.in_channel_of_descr down_r in
  let oc = Unix.out_channel_of_descr up_w in
  let reply s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  reply "ready";
  let rec loop () =
    match String.split_on_char ' ' (input_line ic) with
    | exception End_of_file -> ()
    | [ "history"; first; count ] ->
        let first = int_of_string first in
        for e = first to first + int_of_string count - 1 do
          Net_server.tick srv e
        done;
        reply "ok";
        loop ()
    | [ "release"; t0; period; first; count ] ->
        let t0 = float_of_string t0 and period = float_of_string period in
        let first = int_of_string first and count = int_of_string count in
        let st = Array.make count 0.0 and en = Array.make count 0.0 in
        let cpu = Array.make count 0.0 in
        for k = 0 to count - 1 do
          let d = t0 +. (float_of_int k *. period) -. Unix.gettimeofday () in
          if d > 0.0 then Unix.sleepf d;
          st.(k) <- Unix.gettimeofday ();
          let c0 = cpu_s () in
          Net_server.tick srv (first + k);
          cpu.(k) <- cpu_s () -. c0;
          en.(k) <- Unix.gettimeofday ()
        done;
        let b = Buffer.create (count * 60) in
        Buffer.add_string b "ticks";
        for k = 0 to count - 1 do
          Printf.bprintf b " %.6f %.6f %.6f" st.(k) en.(k) cpu.(k)
        done;
        reply (Buffer.contents b);
        loop ()
    | [ "mark" ] ->
        reply
          (Printf.sprintf "mark %.6f %.0f %s" (cpu_s ()) (Gc.quick_stat ()).Gc.minor_words
             (Hashing.Hex.encode (Netmsg.stats_to_bytes prms (Net_server.stats srv))));
        loop ()
    | [ "stop" ] -> reply (Printf.sprintf "bye %d" (peak_rss_kb ()))
    | _ -> failwith "unknown command"
  in
  loop ()

(* Fork the daemon and block until it is listening: the child writes
   "ready" after [Net_server.start] returns, so the wait is on the pipe,
   never on a timer. *)
let spawn prms secret timeline sock =
  flush stdout;
  flush stderr;
  let down_r, down_w = Unix.pipe () in
  let up_r, up_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close down_w;
      Unix.close up_r;
      let code =
        match child prms secret timeline sock down_r up_w with
        | () -> 0
        | exception e ->
            prerr_endline ("perfbench server: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid ->
      Unix.close down_r;
      Unix.close up_w;
      let t =
        {
          prms;
          pid;
          down = Unix.out_channel_of_descr down_w;
          up = Unix.in_channel_of_descr up_r;
          sock;
        }
      in
      (match input_line t.up with
      | "ready" -> ()
      | l -> failwith ("server did not start: " ^ l)
      | exception End_of_file -> failwith "server exited during start");
      t

let command t line =
  output_string t.down line;
  output_char t.down '\n';
  flush t.down

let expect t word =
  match String.split_on_char ' ' (input_line t.up) with
  | w :: rest when w = word -> rest
  | _ -> failwith ("server: expected " ^ word)
  | exception End_of_file -> failwith ("server exited before " ^ word)

let history t ~first ~count =
  command t (Printf.sprintf "history %d %d" first count);
  ignore (expect t "ok")

let start_release t ~t0 ~period ~first ~count =
  command t (Printf.sprintf "release %.6f %.6f %d %d" t0 period first count)

(* (start, end, CPU seconds) of each tick of the last [start_release]. *)
let release_ticks t =
  let rec triples = function
    | a :: b :: c :: rest ->
        (float_of_string a, float_of_string b, float_of_string c) :: triples rest
    | [] -> []
    | _ -> failwith "server: malformed tick list"
  in
  Array.of_list (triples (expect t "ticks"))

let mark t =
  command t "mark";
  match expect t "mark" with
  | [ cpu; words; stats ] -> (
      match Netmsg.stats_of_bytes t.prms (Hashing.Hex.decode stats) with
      | Ok stats ->
          { cpu_s = float_of_string cpu; minor_words = float_of_string words; stats }
      | Error e -> failwith ("server stats: " ^ e))
  | _ -> failwith "server: malformed mark"

let reap t =
  close_out_noerr t.down;
  close_in_noerr t.up;
  let _, status = Unix.waitpid [] t.pid in
  (try Unix.unlink t.sock with Unix.Unix_error _ -> ());
  if status <> Unix.WEXITED 0 then failwith "server process exited abnormally"

(* Stop the daemon, reap it, and return its peak RSS in kB. *)
let stop t =
  let rss =
    match
      command t "stop";
      expect t "bye"
    with
    | [ kb ] -> int_of_string kb
    | _ -> 0
    | exception (Failure _ | Sys_error _) -> 0
  in
  reap t;
  rss
