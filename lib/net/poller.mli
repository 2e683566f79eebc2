(** Pluggable readiness poller — the event backend under {!Net_server}'s
    shard loops (shard 0's also watches the listening sockets).

    Two backends behind one interface:

    - [Select]: the portable [Unix.select] loop. Interest is tracked
      incrementally and the fd lists are rebuilt only when interest
      actually changes, but the kernel still scans every registered
      descriptor per wait and FD_SETSIZE (~1024) bounds how many real
      descriptors one poller can hold.
    - [Epoll]: Linux [epoll] via C stubs, level-triggered. Registration
      is one syscall per interest {e transition} (not per iteration),
      [wait] returns only ready descriptors — O(ready), not
      O(registered) — and descriptor count is bounded by the process fd
      limit, not FD_SETSIZE.

    Level-triggered was chosen deliberately: a descriptor with unread
    bytes or writable space keeps reporting until the condition clears,
    so a partial read/write in one iteration cannot strand a connection
    — the state machine needs no readiness caching, exactly like the
    select semantics the server grew up on. Both backends are
    single-owner: one domain creates, registers and waits; cross-domain
    wake-up stays the owner's self-pipe, registered like any other fd. *)

type backend = Select | Epoll

val epoll_available : unit -> bool
(** Whether the [Epoll] backend works on this platform (Linux). *)

val backend_of_string : string -> (backend option, string) result
(** ["auto"] → [Ok None], ["select"]/["epoll"] → [Ok (Some _)];
    anything else is [Error]. *)

val backend_name : backend -> string

type t

val create : ?backend:backend -> unit -> t
(** [Some Epoll] raises [Failure] where unavailable; [None] (default)
    picks [Epoll] when available, [Select] otherwise. *)

val backend : t -> backend
val fd_count : t -> int
(** Registered descriptors. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit

val del : t -> Unix.file_descr -> unit
(** Unregister; must precede [Unix.close] of the descriptor. Unknown
    descriptors are ignored. *)

val wait :
  t -> timeout_ms:int -> (Unix.file_descr -> readable:bool -> writable:bool -> unit) -> int
(** Block up to [timeout_ms] (one kernel syscall), invoke the callback
    once per ready descriptor, return the number of events. The callback
    may [del]/[modify]/[add] freely, including for the descriptor it was
    invoked on. Allocation-free on the epoll path: events land in
    preallocated arrays. *)

val close : t -> unit
(** Release the backend's kernel object (epoll fd). Registered
    descriptors are not closed. *)

(** {1 Vectored writes}

    Not a polling op, but the same C stub family and the same backends
    use it: one [writev] drains a whole bounded output queue. *)

val writev_available : bool
(** Whether the platform has [writev] (everywhere but Windows). *)

val writev : Unix.file_descr -> string array -> first_off:int -> count:int -> int
(** Write [count] strings from the array in one syscall, skipping the
    first [first_off] bytes of element 0 (the partially-written head
    frame). Returns bytes written; raises [Unix.Unix_error] like
    [Unix.write] (EAGAIN included). At most the stub's iovec cap (64)
    entries are submitted per call. Where [writev] is unavailable it
    writes only the rest of element 0, a short write the caller's
    partial-write bookkeeping already covers. *)

val raise_fd_limit : int -> int
(** Raise the soft open-files limit toward the argument (capped at the
    hard limit); returns the soft limit now in effect. *)

val set_fd_limit : int -> int
(** Set the soft open-files limit to the argument (capped at the hard
    limit), lowering it if need be; returns the soft limit now in
    effect. *)
