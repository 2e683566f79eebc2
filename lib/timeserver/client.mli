(** A receiver in the simulated system.

    Clients hold a TRE keypair bound to a server, listen to the broadcast
    channel, verify each update on receipt (it is a BLS signature — §5.3.1),
    cache verified updates, and hold pending ciphertexts until the matching
    update arrives, mirroring §3's "the receiver ... would wait (in alert)
    the release of the corresponding time-bound key update". A client that
    missed a broadcast can pull from the server's public archive —
    the only client-to-server communication in the whole protocol, and an
    anonymous GET of public data at that. *)

type t

type delivery = {
  plaintext : string;
  release_label : Tre.time;
  decrypted_at : float;  (** simulated time of decryption *)
}

val create :
  Pairing.params -> net:Simnet.t -> server:Tre.Server.public -> name:string -> t

val name : t -> string
val public_key : t -> Tre.User.public
val handler : t -> Tre.update -> unit
(** The decoded-update callback: verify, cache, drain pending.
    Idempotent under duplicate delivery and insensitive to epoch
    arrival order. *)

val on_wire : t -> string -> unit
(** The broadcast-channel callback: decode the shared wire bytes
    ({!Tre.update_of_bytes}), then {!handler}. Malformed bytes count as
    rejected updates. This is the handler to register with
    {!Passive_server.start}. *)

val enqueue_ciphertext : t -> Tre.ciphertext -> unit
(** Decrypts immediately if the update is already cached, else waits. *)

val fetch_missing : t -> Simnet.t -> Passive_server.t -> Tre.time -> unit
(** Pull an archived update over the network (two messages: request and
    response), e.g. after a lossy broadcast. An archive miss sends no
    response and caches nothing. *)

val deliveries : t -> delivery list
(** Successfully decrypted messages, oldest first. *)

val pending_count : t -> int
val updates_cached : t -> int
val rejected_updates : t -> int
(** Broadcasts that failed BLS verification (forged/corrupted). *)

(**/**)
