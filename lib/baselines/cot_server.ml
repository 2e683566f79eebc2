type t = {
  net : Simnet.t;
  name : string;
  bits : int;
  mutable current_epoch : int;
  mutable sessions : int;
  mutable messages : int;
}

let create ~net ~name ~time_parameter_bits =
  if time_parameter_bits < 1 then invalid_arg "Cot_server.create";
  {
    net;
    name;
    bits = time_parameter_bits;
    current_epoch = 0;
    sessions = 0;
    messages = 0;
  }

let rounds_per_decryption t = (2 * t.bits) + 2
let set_current_epoch t e = t.current_epoch <- e

(* Per-round payload: a constant number of group elements per bit of the
   time parameter; 128 bytes is representative of the Paillier-style
   encodings the protocol uses. *)
let round_bytes = 128

let run_session t ~receiver ~on_done =
  t.sessions <- t.sessions + 1;
  let total = rounds_per_decryption t in
  let rec round i =
    if i >= total then on_done ()
    else begin
      let src, dst = if i mod 2 = 0 then (receiver, t.name) else (t.name, receiver) in
      t.messages <- t.messages + 1;
      Simnet.send t.net ~src ~dst ~kind:"cot-round" ~bytes:round_bytes (fun () ->
          round (i + 1))
    end
  in
  round 0

let request_decryption t ~receiver ~release_epoch ~payload_bytes ~granted =
  ignore payload_bytes;
  run_session t ~receiver ~on_done:(fun () ->
      (* The predicate is evaluated only at the end; the server never
         learns which branch was taken. *)
      granted (release_epoch <= t.current_epoch))

let flood t ~attacker ~queries =
  for _ = 1 to queries do
    (* Release time absurdly far in the future: the server still runs the
       whole protocol because it cannot see the time. *)
    run_session t ~receiver:attacker ~on_done:(fun () -> ())
  done

let protocol_messages t = t.messages

let report t =
  {
    Baseline_report.scheme = "cot";
    server_messages = t.messages / 2;
    server_bytes = Simnet.total_bytes_by t.net t.name;
    server_state_bytes = t.sessions * 64; (* per-session protocol state *)
    sender_server_interactions = 0;
    receiver_server_interactions = t.messages;
    leaks = [ Baseline_report.Receiver_identity ];
  }
