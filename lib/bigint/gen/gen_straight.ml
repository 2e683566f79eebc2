(* Emits [Limbs_straight]: straight-line Montgomery kernels for the limb
   counts given on the command line, plus the width -> kernels lookup
   that [Limbs.create] calls.

     gen_straight.exe K... > limbs_straight.ml

   Each kernel is the fully unrolled form of the corresponding [Limbs]
   loop over base-2^29 limbs, with the same arithmetic and the same
   bounds, so both return the canonical residue. Limbs are widened with
   [Int64.of_int] as they are read (operand limbs and the limbs of m once
   each) and every product, column sum, carry and borrow is an [Int64]
   operation: the generated file rebinds
   [+ - ~- * land lor lsl lsr] to their [Int64] primitives, and since no
   local escapes, ocamlopt keeps them unboxed in registers, with no tag
   handling per product. Limbs go back with [Int64.to_int]. The
   Montgomery constant arrives as a native int and is widened inside:
   an [Int64] argument would be boxed.

   - [mul]/[sqr] load every operand limb and every limb of m into locals
     at entry (so [dst] may alias either operand), compute each
     product-scanning column as one expression with its Montgomery digit
     in a local, store each output limb as soon as its column completes
     while threading the trial borrow of the final conditional
     subtraction, and finish with the masked subtraction. Squaring
     pre-doubles each column's cross products. Bound: a column sums at
     most 2k products of < 2^58 plus a carry, so at k = 9 it stays below
     2^63; accumulators are shifted logically all the same, as in the
     loops.
   - [add]/[sub]/[neg] run their carry or borrow chains and the
     conditional correction limb by limb. Limb i of the result depends
     only on limbs <= i of the operands and is written after they are
     read, so [dst] may alias either operand. A borrow is the sign bit of
     a difference of single limbs. *)

let kb = 29
let out = Buffer.create 65536

let line fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string out s;
      Buffer.add_char out '\n')
    fmt

let sum terms = String.concat " + " terms
let range lo hi = List.init (max 0 (hi - lo + 1)) (fun d -> lo + d)

(* dst <- dst - (m masked by -take), borrow threaded limb by limb. *)
let masked_sub k take =
  line "  let mask = -(%s) in" take;
  for i = 0 to k - 1 do
    let bor = if i = 0 then "" else " - (d lsr 63)" in
    line "  let d = Int64.of_int dst.!(%d) - (m%d land mask)%s in" i i bor;
    line "  dst.!(%d) <- Int64.to_int (d land kmask)%s" i (if i = k - 1 then "" else ";")
  done

let loads k name =
  List.iter (fun i -> line "  let %s%d = Int64.of_int %s.!(%d) in" name i name i) (range 0 (k - 1))

(* Shared by mul and sqr: [column c] is the operand part of column c as
   a list of parenthesized terms. The low columns pick the Montgomery
   digit u_c that zeroes the column (only the low 29 bits of v * m'
   matter, so v goes in unmasked); the high columns emit result limbs
   and thread the trial borrow of r - m. The carry of the previous
   column is added last, so the column-to-column dependency chain runs
   through one addition, not through the whole sum. *)
let montgomery_columns k column =
  line "  let m' = Int64.of_int m' in";
  loads k "m";
  for c = 0 to k - 1 do
    let carry = if c = 0 then [] else [ "acc" ] in
    let reds = List.map (fun j -> Printf.sprintf "u%d * m%d" j (c - j)) (range 0 (c - 1)) in
    let reds = if reds = [] then [] else [ "(" ^ sum reds ^ ")" ] in
    line "  let v = %s in" (sum (column c @ reds @ carry));
    line "  let u%d = (v * m') land kmask in" c;
    line "  let acc = (v + (u%d * m0)) lsr %d in" c kb
  done;
  for c = k to (2 * k) - 1 do
    let r = c - k in
    let reds =
      List.map (fun j -> Printf.sprintf "u%d * m%d" j (c - j)) (range (c - k + 1) (k - 1))
    in
    let reds = if reds = [] then [] else [ "(" ^ sum reds ^ ")" ] in
    line "  let v = %s in" (sum (column c @ reds @ [ "acc" ]));
    line "  let r = v land kmask in";
    line "  dst.!(%d) <- Int64.to_int r;" r;
    line "  let acc = v lsr %d in" kb;
    let bor = if r = 0 then "" else " - bor" in
    line "  let bor = (r - m%d%s) lsr 63 in" r bor
  done;
  (* value + acc*R >= m  <=>  acc = 1 or no borrow. *)
  masked_sub k "acc lor (1L - bor)"

let emit_mul k =
  line "let mul_%d (m : int array) m' (dst : int array) (a : int array) (b : int array) =" k;
  loads k "a";
  loads k "b";
  montgomery_columns k (fun c ->
      let prods =
        List.map (fun i -> Printf.sprintf "a%d * b%d" i (c - i)) (range (max 0 (c - k + 1)) (min c (k - 1)))
      in
      if prods = [] then [] else [ "(" ^ sum prods ^ ")" ]);
  line ""

let emit_sqr k =
  line "let sqr_%d (m : int array) m' (dst : int array) (a : int array) =" k;
  loads k "a";
  montgomery_columns k (fun c ->
      let cross =
        List.map (fun i -> Printf.sprintf "a%d * a%d" i (c - i)) (range (max 0 (c - k + 1)) ((c - 1) asr 1))
      in
      let cross = if cross = [] then [] else [ Printf.sprintf "((%s) lsl 1)" (sum cross) ] in
      let diag = if c land 1 = 0 && c / 2 < k then [ Printf.sprintf "a%d * a%d" (c / 2) (c / 2) ] else [] in
      cross @ diag);
  line ""

let emit_add k =
  line "let add_%d (m : int array) (dst : int array) (a : int array) (b : int array) =" k;
  loads k "m";
  for i = 0 to k - 1 do
    let carry = if i = 0 then "" else Printf.sprintf " + (s lsr %d)" kb in
    line "  let s = Int64.of_int a.!(%d) + Int64.of_int b.!(%d)%s in" i i carry;
    line "  let r = s land kmask in";
    line "  dst.!(%d) <- Int64.to_int r;" i;
    let bor = if i = 0 then "" else " - bor" in
    line "  let bor = (r - m%d%s) lsr 63 in" i bor
  done;
  masked_sub k (Printf.sprintf "(s lsr %d) lor (1L - bor)" kb);
  line ""

let emit_sub k =
  line "let sub_%d (m : int array) (dst : int array) (a : int array) (b : int array) =" k;
  for i = 0 to k - 1 do
    let bor = if i = 0 then "" else " - (d lsr 63)" in
    line "  let d = Int64.of_int a.!(%d) - Int64.of_int b.!(%d)%s in" i i bor;
    line "  dst.!(%d) <- Int64.to_int (d land kmask);" i
  done;
  (* Add m back iff the subtraction went negative. *)
  line "  let mask = -(d lsr 63) in";
  for i = 0 to k - 1 do
    let carry = if i = 0 then "" else Printf.sprintf " + (s lsr %d)" kb in
    line "  let s = Int64.of_int dst.!(%d) + (Int64.of_int m.!(%d) land mask)%s in" i i carry;
    line "  dst.!(%d) <- Int64.to_int (s land kmask)%s" i (if i = k - 1 then "" else ";")
  done;
  line ""

let emit_neg k =
  line "let neg_%d (m : int array) (dst : int array) (a : int array) =" k;
  loads k "a";
  line "  let nz = %s in" (String.concat " lor " (List.map (Printf.sprintf "a%d") (range 0 (k - 1))));
  (* all-ones iff a <> 0 *)
  line "  let mask = -((nz lor -nz) lsr 63) in";
  for i = 0 to k - 1 do
    let bor = if i = 0 then "" else " - (d lsr 63)" in
    line "  let d = Int64.of_int m.!(%d) - a%d%s in" i i bor;
    line "  dst.!(%d) <- Int64.to_int (d land kmask land mask)%s" i (if i = k - 1 then "" else ";")
  done;
  line ""

let () =
  let widths = List.map int_of_string (List.tl (Array.to_list Sys.argv)) in
  line "(* Generated by lib/bigint/gen/gen_straight.ml; do not edit. *)";
  line "";
  line "external ( .!() ) : int array -> int -> int = \"%%array_unsafe_get\"";
  line "external ( .!()<- ) : int array -> int -> int -> unit = \"%%array_unsafe_set\"";
  line "";
  line "(* From here on every arithmetic operator is the unboxed Int64 one. *)";
  line "external ( + ) : int64 -> int64 -> int64 = \"%%int64_add\"";
  line "external ( - ) : int64 -> int64 -> int64 = \"%%int64_sub\"";
  line "external ( ~- ) : int64 -> int64 = \"%%int64_neg\"";
  line "external ( * ) : int64 -> int64 -> int64 = \"%%int64_mul\"";
  line "external ( land ) : int64 -> int64 -> int64 = \"%%int64_and\"";
  line "external ( lor ) : int64 -> int64 -> int64 = \"%%int64_or\"";
  line "external ( lsl ) : int64 -> int -> int64 = \"%%int64_lsl\"";
  line "external ( lsr ) : int64 -> int -> int64 = \"%%int64_lsr\"";
  line "";
  line "let kmask = 0x%xL" ((1 lsl kb) - 1);
  line "";
  line "type t = {";
  line "  mul : int array -> int -> int array -> int array -> int array -> unit;";
  line "  sqr : int array -> int -> int array -> int array -> unit;";
  line "  add : int array -> int array -> int array -> int array -> unit;";
  line "  sub : int array -> int array -> int array -> int array -> unit;";
  line "  neg : int array -> int array -> int array -> unit;";
  line "}";
  line "";
  List.iter
    (fun k ->
      emit_mul k;
      emit_sqr k;
      emit_add k;
      emit_sub k;
      emit_neg k)
    widths;
  line "let for_width = function";
  List.iter
    (fun k ->
      line "  | %d -> Some { mul = mul_%d; sqr = sqr_%d; add = add_%d; sub = sub_%d; neg = neg_%d }" k k
        k k k k)
    widths;
  line "  | _ -> None";
  print_string (Buffer.contents out)
