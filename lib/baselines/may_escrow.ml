type stored = {
  receiver : string;
  deliver : string -> unit;
  release_epoch : int;
  payload : string;
}

type t = {
  net : Simnet.t;
  timeline : Timeline.t;
  name : string;
  mutable vault : stored list;
  mutable deposits : int;
  mutable peak_state : int;
  mutable state_now : int;
  mutable sender_interactions : int;
  mutable deliveries : int;
}

let create ~net ~timeline ~name =
  {
    net;
    timeline;
    name;
    vault = [];
    deposits = 0;
    peak_state = 0;
    state_now = 0;
    sender_interactions = 0;
    deliveries = 0;
  }

let state_cost payload receiver =
  String.length payload + String.length receiver + 16 (* timestamps etc. *)

let deliver_one t entry =
  Simnet.send t.net ~src:t.name ~dst:entry.receiver ~kind:"escrow-release"
    ~bytes:(String.length entry.payload)
    (fun () -> entry.deliver entry.payload);
  t.deliveries <- t.deliveries + 1;
  t.state_now <- t.state_now - state_cost entry.payload entry.receiver

let deposit t ~sender ~receiver ~deliver ~release_epoch payload =
  (* The deposit itself is a sender->server interaction carrying the
     plaintext: every anonymity property is lost here. *)
  t.sender_interactions <- t.sender_interactions + 1;
  let entry = { receiver; deliver; release_epoch; payload } in
  Simnet.send t.net ~src:sender ~dst:t.name ~kind:"escrow-deposit"
    ~bytes:(String.length payload)
    (fun () ->
      t.deposits <- t.deposits + 1;
      t.vault <- entry :: t.vault;
      t.state_now <- t.state_now + state_cost payload receiver;
      t.peak_state <- max t.peak_state t.state_now;
      Simnet.schedule t.net
        ~at:(Float.max (Simnet.now t.net) (Timeline.start_of t.timeline release_epoch))
        (fun () -> deliver_one t entry))

let stored_messages t = t.deposits
let peak_state_bytes t = t.peak_state

let report t =
  {
    Baseline_report.scheme = "may-escrow";
    server_messages = t.deliveries;
    server_bytes = Simnet.total_bytes_by t.net t.name;
    server_state_bytes = t.peak_state;
    sender_server_interactions = t.sender_interactions;
    receiver_server_interactions = t.deliveries;
    leaks =
      [
        Baseline_report.Sender_identity;
        Baseline_report.Receiver_identity;
        Baseline_report.Message_content;
        Baseline_report.Release_time;
      ];
  }
