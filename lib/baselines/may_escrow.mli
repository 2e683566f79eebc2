(** May's trusted escrow agent (1993) — the earliest server-based baseline
    (§2.2).

    The sender deposits the {e plaintext} message, its release time and the
    receiver's identity with the agent, which stores everything and sends
    the message to the receiver when the time comes. Total functionality,
    total surveillance: the server stores O(#messages) state, must be
    contacted once per message by every sender, sends one message per
    deposit to each receiver — and learns sender, receiver, content and
    release time of every message. *)

type t

val create : net:Simnet.t -> timeline:Timeline.t -> name:string -> t

val deposit :
  t ->
  sender:string ->
  receiver:string ->
  deliver:(string -> unit) ->
  release_epoch:int ->
  string ->
  unit
(** Sender -> server message carrying the plaintext; the server schedules
    delivery at the release epoch. *)

val stored_messages : t -> int
val peak_state_bytes : t -> int
val report : t -> Baseline_report.t
