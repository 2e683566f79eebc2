(** Di Crescenzo–Ostrovsky–Rajagopalan conditional oblivious transfer
    time-release (§2.2) — interaction-cost model.

    In their protocol the {e receiver} runs a private, multi-round
    conditional OT with the server for every ciphertext, evaluating
    "release time < server time" obliviously, with communication
    logarithmic in the time parameter T. We model the message/round
    structure faithfully (2*ceil(log2 T) + 2 messages per decryption
    attempt, server online and engaged in every one) without reproducing
    the underlying homomorphic machinery — the paper's comparison is about
    interaction, load and DoS exposure, which the cost model captures:

    - the server cannot tell whether a query's release time is past,
      present or absurdly far in the future (that is the privacy goal!),
      so it must pay the full protocol cost for every query — including
      adversarial ones ({!flood}), the DoS vector of footnote 5. *)

type t

val create : net:Simnet.t -> name:string -> time_parameter_bits:int -> t
(** [time_parameter_bits] = ceil(log2 T): the resolution of the time
    space. *)

val rounds_per_decryption : t -> int

val request_decryption :
  t -> receiver:string -> release_epoch:int -> payload_bytes:int ->
  granted:(bool -> unit) -> unit
(** One full COT run. [granted true] iff the release epoch has passed at
    protocol end (the server evaluates the predicate honestly but
    obliviously). *)

val set_current_epoch : t -> int -> unit
val flood : t -> attacker:string -> queries:int -> unit
(** The footnote-5 DoS: far-future queries the server cannot filter. *)

val protocol_messages : t -> int
val report : t -> Baseline_report.t
