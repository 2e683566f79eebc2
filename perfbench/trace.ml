(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, op): [op] is shared by every span
   of one operation (in [release] it is the epoch number, which also keys
   the server process's tick spans), [parent] is the index of the
   enclosing span or -1. Spans live in growable parallel arrays until the
   run ends; nothing is written while the workload runs. With [enabled]
   false, [enter]/[leave] cost one branch, so the untraced phase runs the
   same code. *)

type t = {
  mutable enabled : bool;
  mutable n : int;
  mutable name : string array;
  mutable op : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable stack : int list;
}

let create () =
  let cap = 4096 in
  {
    enabled = false;
    n = 0;
    name = Array.make cap "";
    op = Array.make cap 0;
    parent = Array.make cap (-1);
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    stack = [];
  }

let grow tr =
  if tr.n = Array.length tr.name then begin
    let ext a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    tr.name <- ext tr.name "";
    tr.op <- ext tr.op 0;
    tr.parent <- ext tr.parent (-1);
    tr.t0 <- ext tr.t0 0.0;
    tr.t1 <- ext tr.t1 0.0
  end

(* A finished span with known bounds, e.g. one measured by another
   process or one that began at a due instant. *)
let record tr name ~op ~parent t0 t1 =
  if not tr.enabled then -1
  else begin
    grow tr;
    let i = tr.n in
    tr.name.(i) <- name;
    tr.op.(i) <- op;
    tr.parent.(i) <- parent;
    tr.t0.(i) <- t0;
    tr.t1.(i) <- t1;
    tr.n <- i + 1;
    i
  end

let current tr = match tr.stack with i :: _ -> i | [] -> -1
let current_op tr = match tr.stack with i :: _ -> tr.op.(i) | [] -> -1

(* Open a span at [start] (default: now), nested under the innermost
   open span. *)
let enter ?start tr name op =
  if not tr.enabled then -1
  else begin
    let t0 = match start with Some t -> t | None -> Unix.gettimeofday () in
    let i = record tr name ~op ~parent:(current tr) t0 nan in
    tr.stack <- i :: tr.stack;
    i
  end

let leave tr i =
  if i >= 0 then begin
    tr.t1.(i) <- Unix.gettimeofday ();
    match tr.stack with
    | j :: rest when j = i -> tr.stack <- rest
    | _ -> invalid_arg "Trace.leave: spans must close innermost first"
  end

let span ?start tr name op f =
  let i = enter ?start tr name op in
  match f () with
  | v ->
      leave tr i;
      v
  | exception e ->
      leave tr i;
      raise e

(* Self time: the span's duration minus the part of it that its child
   spans cover (children may overlap; the union is subtracted). *)
let self_times tr =
  let kids = Array.make tr.n [] in
  for i = tr.n - 1 downto 0 do
    let p = tr.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init tr.n (fun i ->
      let lo = tr.t0.(i) and hi = tr.t1.(i) in
      let ivs =
        List.sort compare
          (List.map
             (fun k -> (Float.max lo tr.t0.(k), Float.min hi tr.t1.(k)))
             kids.(i))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, lo) ivs
      in
      hi -. lo -. covered)

(* Per span name: (calls, durations in ms, self times in ms). *)
let by_name tr =
  let self = self_times tr in
  let tbl = Hashtbl.create 32 in
  for i = 0 to tr.n - 1 do
    let d, s =
      match Hashtbl.find_opt tbl tr.name.(i) with
      | Some v -> v
      | None -> ([], [])
    in
    Hashtbl.replace tbl tr.name.(i)
      (((tr.t1.(i) -. tr.t0.(i)) *. 1e3) :: d, (self.(i) *. 1e3) :: s)
  done;
  tbl

(* One line per span: index, name, op, parent, start and end in µs
   relative to the first span, self time in µs. *)
let write tr path =
  let self = self_times tr in
  let base = if tr.n > 0 then Array.fold_left Float.min infinity (Array.sub tr.t0 0 tr.n) else 0.0 in
  let oc = open_out path in
  output_string oc "# id\tname\top\tparent\tstart_us\tend_us\tself_us\n";
  for i = 0 to tr.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.1f\t%.1f\t%.1f\n" i tr.name.(i) tr.op.(i)
      tr.parent.(i)
      ((tr.t0.(i) -. base) *. 1e6)
      ((tr.t1.(i) -. base) *. 1e6)
      (self.(i) *. 1e6)
  done;
  close_out oc
