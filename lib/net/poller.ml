(* Pluggable readiness poller: portable select, Linux epoll via stubs.

   The interface is interest-transition oriented — add/modify/del are
   called when a connection's desired readiness actually changes, never
   per loop iteration. The select backend therefore keeps its fd lists
   cached and rebuilds them only when dirtied; the epoll backend maps
   transitions 1:1 onto epoll_ctl and its wait is O(ready). *)

type backend = Select | Epoll

external epoll_available_stub : unit -> bool = "tre_epoll_available"
external epoll_create : unit -> Unix.file_descr = "tre_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "tre_epoll_ctl"

external epoll_wait_stub :
  Unix.file_descr -> int array -> int array -> int -> int = "tre_epoll_wait"

external writev_stub : Unix.file_descr -> string array -> int -> int -> int
  = "tre_writev"

external writev_available_stub : unit -> bool = "tre_writev_available"
external set_nofile : int -> bool -> int = "tre_set_nofile"
external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let epoll_available = epoll_available_stub

let backend_of_string = function
  | "auto" -> Ok None
  | "select" -> Ok (Some Select)
  | "epoll" -> Ok (Some Epoll)
  | s -> Error (Printf.sprintf "unknown backend %S (auto|select|epoll)" s)

let backend_name = function Select -> "select" | Epoll -> "epoll"

(* Events bitmask and ctl ops shared with epoll_stubs.c. *)
let ev_in = 1
let ev_out = 2
let op_add = 0
let op_mod = 1
let op_del = 2

type select_state = {
  interest : (Unix.file_descr, int) Hashtbl.t;
  mutable dirty : bool;
  mutable rlist : Unix.file_descr list;
  mutable wlist : Unix.file_descr list;
}

type epoll_state = {
  epfd : Unix.file_descr;
  mutable registered : int;
  (* preallocated event buffers: wait never allocates *)
  evt_fds : int array;
  evt_masks : int array;
}

type state = S of select_state | E of epoll_state

type t = state

let mask ~read ~write = (if read then ev_in else 0) lor (if write then ev_out else 0)

let create ?backend () =
  let b =
    match backend with
    | Some Epoll ->
        if not (epoll_available ()) then
          failwith "Poller.create: epoll backend unavailable on this platform";
        Epoll
    | Some Select -> Select
    | None -> if epoll_available () then Epoll else Select
  in
  match b with
  | Select ->
      S { interest = Hashtbl.create 64; dirty = false; rlist = []; wlist = [] }
  | Epoll ->
      E
        {
          epfd = epoll_create ();
          registered = 0;
          evt_fds = Array.make 1024 0;
          evt_masks = Array.make 1024 0;
        }

let backend = function S _ -> Select | E _ -> Epoll
let fd_count = function S s -> Hashtbl.length s.interest | E e -> e.registered

let add t fd ~read ~write =
  let m = mask ~read ~write in
  match t with
  | S s ->
      Hashtbl.replace s.interest fd m;
      s.dirty <- true
  | E e ->
      epoll_ctl e.epfd op_add fd m;
      e.registered <- e.registered + 1

let modify t fd ~read ~write =
  let m = mask ~read ~write in
  match t with
  | S s ->
      Hashtbl.replace s.interest fd m;
      s.dirty <- true
  | E e -> epoll_ctl e.epfd op_mod fd m

let del t fd =
  match t with
  | S s ->
      if Hashtbl.mem s.interest fd then begin
        Hashtbl.remove s.interest fd;
        s.dirty <- true
      end
  | E e -> (
      try
        epoll_ctl e.epfd op_del fd 0;
        e.registered <- e.registered - 1
      with Unix.Unix_error ((Unix.ENOENT | Unix.EBADF), _, _) -> ())

let rebuild s =
  let r = ref [] and w = ref [] in
  Hashtbl.iter
    (fun fd m ->
      if m land ev_in <> 0 then r := fd :: !r;
      if m land ev_out <> 0 then w := fd :: !w)
    s.interest;
  s.rlist <- !r;
  s.wlist <- !w;
  s.dirty <- false

let wait t ~timeout_ms f =
  match t with
  | S s -> (
      if s.dirty then rebuild s;
      let timeout = float_of_int timeout_ms /. 1000.0 in
      match Unix.select s.rlist s.wlist [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A descriptor closed behind our back; the owner will [del]
             it — force a rebuild so the stale entry stops hurting. *)
          s.dirty <- true;
          0
      | readable, writable, _ ->
          let n = ref 0 in
          List.iter
            (fun fd ->
              (* Interest may have been dropped by an earlier callback
                 in this batch (e.g. the connection was closed). *)
              if Hashtbl.mem s.interest fd then begin
                incr n;
                f fd ~readable:true ~writable:false
              end)
            readable;
          List.iter
            (fun fd ->
              if Hashtbl.mem s.interest fd then begin
                incr n;
                f fd ~readable:false ~writable:true
              end)
            writable;
          !n)
  | E e ->
      let n = epoll_wait_stub e.epfd e.evt_fds e.evt_masks timeout_ms in
      for i = 0 to n - 1 do
        let fd = fd_of_int e.evt_fds.(i) in
        let m = e.evt_masks.(i) in
        f fd ~readable:(m land ev_in <> 0) ~writable:(m land ev_out <> 0)
      done;
      n

let close = function
  | S s ->
      Hashtbl.reset s.interest;
      s.rlist <- [];
      s.wlist <- []
  | E e -> ( try Unix.close e.epfd with Unix.Unix_error _ -> ())

let writev_available = writev_available_stub ()

(* Without writev (the _WIN32 stub) the head frame goes alone; the
   caller already handles a short write. *)
let writev fd strs ~first_off ~count =
  if writev_available then writev_stub fd strs first_off count
  else
    Unix.single_write_substring fd strs.(0) first_off
      (String.length strs.(0) - first_off)

let raise_fd_limit n = set_nofile n true
let set_fd_limit n = set_nofile n false
let _ = fd_int
