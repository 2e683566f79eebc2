type t = { depth : int }

type node = { level : int; index : int }

let create ~depth =
  if depth < 1 || depth > 40 then invalid_arg "Time_tree.create: depth out of [1, 40]";
  { depth }

let depth t = t.depth
let epochs t = 1 lsl t.depth

let leaf t e =
  if e < 0 || e >= epochs t then invalid_arg "Time_tree.leaf: epoch out of range";
  { level = t.depth; index = e }

let node_label t node =
  (* Bit-path of the node from the root; level disambiguates prefixes. *)
  let bits =
    String.init node.level (fun i ->
        if (node.index lsr (node.level - 1 - i)) land 1 = 1 then '1' else '0')
  in
  Printf.sprintf "tree%d/0b%s" t.depth bits

let parent node = { level = node.level - 1; index = node.index lsr 1 }

let ancestors t e =
  (* Leaf first, root last. *)
  let rec up node acc =
    if node.level = 0 then List.rev (node :: acc) else up (parent node) (node :: acc)
  in
  up (leaf t e) []

let leaves_of t node =
  let span = 1 lsl (t.depth - node.level) in
  (node.index * span, ((node.index + 1) * span) - 1)

(* Minimal decomposition of [0..e] into maximal full subtrees: writing
   e + 1 = sum of powers 2^k (largest first), each power is one aligned
   subtree of 2^k consecutive leaves. Cover size = popcount(e+1)
   <= depth + 1; [0 .. 2^depth - 1] collapses to the root. *)
let cover t e =
  ignore (leaf t e);
  let n = e + 1 in
  let rec walk k pos acc =
    if k < 0 then List.rev acc
    else if n land (1 lsl k) <> 0 then
      let node = { level = t.depth - k; index = pos lsr k } in
      walk (k - 1) (pos + (1 lsl k)) (node :: acc)
    else walk (k - 1) pos acc
  in
  walk t.depth 0 []
