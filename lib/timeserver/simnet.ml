type message = {
  at : float;
  src : string;
  dst : string;
  kind : string;
  bytes : int;
}

type t = {
  mutable clock : float;
  queue : (unit -> unit) Event_queue.t;
  drbg : Hashing.Drbg.t;
  latency : float;
  jitter : float;
  loss : float;
  mutable log : message list; (* newest first *)
}

let create ?(seed = "simnet") ?(latency = 0.05) ?(jitter = 0.02) ?(loss = 0.0) () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Simnet.create: loss must be in [0,1)";
  {
    clock = 0.0;
    queue = Event_queue.create ();
    drbg = Hashing.Drbg.create ~seed ~personalization:"simnet" ();
    latency;
    jitter;
    loss;
    log = [];
  }

let now t = t.clock
let rng t = t.drbg

let schedule t ~at thunk =
  if at < t.clock then invalid_arg "Simnet.schedule: time in the past";
  Event_queue.push t.queue ~at thunk

let schedule_in t ~delay thunk = schedule t ~at:(t.clock +. delay) thunk

(* Uniform float in [0,1) from the DRBG. *)
let uniform t =
  let raw = Hashing.Drbg.generate t.drbg 7 in
  let v = ref 0 in
  String.iter (fun c -> v := (!v lsl 8) lor Char.code c) raw;
  float_of_int !v /. float_of_int (1 lsl 56)

let delivery_delay t = t.latency +. (t.jitter *. uniform t)
let dropped t = t.loss > 0.0 && uniform t < t.loss

let trace_message t ~at ~src ~dst ~kind ~bytes =
  t.log <- { at; src; dst; kind; bytes } :: t.log

let send t ~src ~dst ~kind ~bytes thunk =
  let delay = delivery_delay t in
  if dropped t then trace_message t ~at:(t.clock +. delay) ~src ~dst:"(lost)" ~kind ~bytes
  else begin
    trace_message t ~at:(t.clock +. delay) ~src ~dst ~kind ~bytes;
    schedule_in t ~delay thunk
  end

let broadcast ?pool t ~src ~kind ~bytes recipients =
  trace_message t ~at:t.clock ~src ~dst:"(broadcast)" ~kind ~bytes;
  match pool with
  | None ->
      List.iter
        (fun (_name, handler) ->
          let delay = delivery_delay t in
          if not (dropped t) then schedule_in t ~delay handler)
        recipients
  | Some pool ->
      (* Parallel drain: the DRBG draws happen here, per recipient, in the
         exact order of the serial path (delay first, then the drop coin),
         so the random stream — and hence the trace and every later draw —
         is unchanged. The surviving handlers then run as ONE event at the
         latest delivery time, sharded across the pool; per-recipient
         state is disjoint, so this is safe, but a handler reading the
         simulated clock sees the batch's completion time rather than its
         own jittered instant. *)
      let max_delay, survivors =
        List.fold_left
          (fun (max_delay, acc) (_name, handler) ->
            let delay = delivery_delay t in
            if dropped t then (max_delay, acc)
            else (Float.max max_delay delay, handler :: acc))
          (0.0, []) recipients
      in
      let survivors = List.rev survivors in
      if survivors <> [] then
        schedule_in t ~delay:max_delay (fun () ->
            Pool.iter pool (fun handler -> handler ()) survivors)

(* The daemon's encode-once discipline, mirrored in the simulator: the
   caller serializes the payload exactly once and every recipient's
   handler receives the {e same} immutable string — physically one
   byte-string shared N ways, so the simulated broadcast cost model and
   the socket daemon agree. Decoding (and rejecting) is each recipient's
   own work, as on a real channel. *)
let broadcast_bytes ?pool t ~src ~kind ~payload recipients =
  broadcast ?pool t ~src ~kind
    ~bytes:(String.length payload)
    (List.map (fun (name, handler) -> (name, fun () -> handler payload)) recipients)

let run t =
  let rec loop () =
    match Event_queue.pop t.queue with
    | None -> ()
    | Some (at, thunk) ->
        t.clock <- Float.max t.clock at;
        thunk ();
        loop ()
  in
  loop ()

let run_until t horizon =
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | Some at when at <= horizon -> (
        match Event_queue.pop t.queue with
        | Some (at, thunk) ->
            t.clock <- Float.max t.clock at;
            thunk ();
            loop ()
        | None -> ())
    | Some _ | None -> ()
  in
  loop ();
  t.clock <- Float.max t.clock horizon

let trace t = List.rev t.log
let sent_to t name = List.filter (fun m -> m.dst = name) (trace t)
let sent_by t name = List.filter (fun m -> m.src = name) (trace t)

let total_bytes_by t name =
  List.fold_left (fun acc m -> acc + m.bytes) 0 (sent_by t name)
