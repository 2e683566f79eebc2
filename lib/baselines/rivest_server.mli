(** Rivest–Shamir–Wagner's two server-based schemes (§2.2).

    {b Online (symmetric) variant}: the server keeps a hash-chain of
    per-epoch symmetric keys (it remembers only the seed). A sender must
    hand the server his message for encryption under K_T — one round trip
    per message, and the server sees the plaintext, the release time and
    the sender. At each epoch the server broadcasts K_T, so receivers are
    anonymous (the one anonymity property this design does retain).

    {b Offline (public-key list) variant}: the server pre-publishes public
    keys for every epoch within a horizon and releases the matching secret
    key when each epoch arrives. No per-message interaction — but the
    sender can only choose release times inside the pre-published horizon
    (the scalability failure footnote 2 of the paper points at), and the
    pre-publication itself is O(horizon/granularity) bytes. *)

module Online : sig
  type t

  val create : net:Simnet.t -> timeline:Timeline.t -> name:string -> seed:string -> t

  val encrypt_via_server :
    t -> sender:string -> release_epoch:int -> string -> (string -> unit) -> unit
  (** Sender -> server -> sender round trip; the callback receives the
      ciphertext (K_T-encrypted) at the sender. *)

  val start_broadcasts :
    t -> first_epoch:int -> epochs:int -> recipients:(string * (int -> string -> unit)) list -> unit
  (** Broadcast K_e at each epoch start; handlers get (epoch, key). *)

  val decrypt : epoch_key:string -> string -> string
  (** Receiver-side symmetric decryption with a broadcast key. *)

  val report : t -> Baseline_report.t
end

module Offline_list : sig
  type t

  val create :
    Pairing.params ->
    net:Simnet.t -> timeline:Timeline.t -> name:string -> seed:string -> horizon_epochs:int -> t
  (** Pre-publishes the whole key list for [horizon_epochs] immediately
      (one bulk broadcast, counted). *)

  val public_key_for : t -> epoch:int -> string option
  (** [None] beyond the horizon — the sender is stuck (footnote 2). *)

  val encrypt : t -> epoch:int -> string -> string option
  (** Non-interactive sender-side encryption under the published epoch
      key; [None] beyond the horizon. *)

  val start_secret_releases :
    t -> first_epoch:int -> epochs:int -> recipients:(string * (int -> string -> unit)) list -> unit

  val decrypt : t -> epoch_secret:string -> string -> string option
  (** [None] on a wrong-epoch secret (authenticated encryption check). *)

  val prepublication_bytes : t -> int
  (** Size of the future-key list — E7's storage axis. *)

  val report : t -> Baseline_report.t
end
