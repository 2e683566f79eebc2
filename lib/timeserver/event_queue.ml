(* Binary min-heap of timestamped events. Ties are broken by insertion
   sequence so same-time events run in schedule order (deterministic
   simulation).

   Slots are ['a entry option] so a pop can blank the vacated cell:
   with a bare entry array the backing store keeps the last popped
   entries reachable (a drained queue still pins every payload it ever
   delivered until the slot is overwritten), which for simulations
   carrying ciphertext payloads is a real space leak. *)

type 'a entry = { at : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0

let get t i =
  match t.heap.(i) with
  | Some e -> e
  | None -> assert false (* slots below [size] are always populated *)

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let cap = max 16 (2 * Array.length t.heap) in
  let bigger = Array.make cap None in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let push t ~at payload =
  let entry = { at; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- Some entry;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before (get t !i) (get t parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      t.heap.(t.size) <- None;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before (get t l) (get t !smallest) then smallest := l;
        if r < t.size && before (get t r) (get t !smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
      done
    end
    else t.heap.(0) <- None;
    Some (top.at, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some (get t 0).at
