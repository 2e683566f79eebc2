(** Mont et al.'s HP "time vault" design (§2.2): Boneh–Franklin IBE with
    release-time-augmented identities, where the server {e individually
    delivers} each user's epoch private key.

    The receiver's public key for epoch T is [ID || T]; at each epoch start
    the server extracts s*H1(ID || T) for {e every registered user} and
    sends it over a secure channel — N messages per epoch, the O(N)
    scalability failure the paper's single broadcast update fixes. And, as
    in all IBE schemes, the server can decrypt everything. *)

type t

val create : Pairing.params -> net:Simnet.t -> timeline:Timeline.t -> name:string -> t

val register : t -> identity:string -> (int -> Curve.point -> unit) -> unit
(** The receiver must enroll — the server learns every receiver's
    identity. The handler receives (epoch, epoch private key). *)

val registered_users : t -> int

val start_epoch_deliveries : t -> first_epoch:int -> epochs:int -> unit
(** Per epoch: one extraction + one unicast per registered user. *)

val encrypt :
  t -> identity:string -> release_epoch:int -> string -> Id_tre.ciphertext
(** Sender-side BF encryption to [ID || T] — non-interactive, like TRE. *)

val decrypt : t -> epoch_private_key:Curve.point -> Id_tre.ciphertext -> string
(** Receiver-side, with the delivered per-epoch key alone (the update is
    folded into the key — which is why delivery must be per-user). *)

val report : t -> Baseline_report.t
