(** Binary tree over epochs — the combinatorial core of the
    missing-update-resilient extension ({!Resilient_tre}, the paper's §6
    future work).

    Epochs 0 .. 2^depth - 1 are the leaves of a complete binary tree.
    Every node is named by the bit-path from the root (so names never
    collide with plain time labels). Two facts drive the scheme:

    - {b cover}: the canonical segment-tree decomposition of the prefix
      interval [0..e] into at most [depth + 1] maximal full subtrees. A
      node enters a cover of [0..e] only when {e all} leaves below it are
      <= e.
    - {b ancestors}: each leaf has [depth + 1] ancestors (itself up to the
      root), and for every e' <= e, exactly one ancestor of leaf e' lies
      in the cover of [0..e] — while for e' > e, none does.

    So signing the cover nodes of [0..e] releases every epoch <= e and
    nothing later. *)

type t

val create : depth:int -> t
(** [depth] in [1, 40]; supports [2^depth] epochs. *)

val depth : t -> int
val epochs : t -> int
(** 2^depth. *)

type node = { level : int; index : int }
(** Level 0 is the root; level [depth] holds the leaves; [index] counts
    nodes left-to-right within a level. *)

val leaf : t -> int -> node
(** Raises [Invalid_argument] if the epoch is out of range. *)

val node_label : t -> node -> string
(** Canonical, injective label, e.g. ["tree3/0b101"]; domain-separated
    from plain time labels. *)

val ancestors : t -> int -> node list
(** Ancestors of a leaf, leaf first, root last; length [depth + 1]. *)

val cover : t -> int -> node list
(** Canonical cover of [0..e] by maximal full subtrees; at most
    [depth + 1] nodes, in increasing leaf order. *)

val leaves_of : t -> node -> int * int
(** Inclusive leaf-epoch range under a node. *)
