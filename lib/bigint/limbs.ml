(* Fixed-width, destination-passing Montgomery field kernels.

   Where {!Modarith.Mont} works over normalized variable-length {!Nat}
   limbs — allocating a scratch accumulator, two [Array.sub] copies and a
   normalization pass per multiplication — this module freezes the limb
   count [k] at context creation and runs every operation over flat
   [int array] buffers of exactly [k] limbs that the *caller* provides.
   The hot kernels ([mul_into], [sqr_into], [add_into], [sub_into],
   [neg_into]) allocate nothing: their working space comes from a
   per-domain scratch record ({!Domain.DLS}), so concurrent use from a
   {!Pool} of domains is race-free by construction.

   The limbs are 29 bits wide, not {!Nat}'s 31, and every product and
   column sum runs in unboxed [Int64]; that pairing is the performance
   core of the module. On a tagged native int, [a * b] costs an untag, a
   decrement, the [imul] and a retag, and every sum a tag fix-up; an
   [Int64] local that does not escape compiles to a plain [imul]/[add]/
   [shr] on a register. The 64 untagged bits also leave room for 29-bit
   limbs: every partial product is below 2^58, and a 256-bit p takes 9
   limbs (81 operand products per multiplication), where a tagged int,
   with 62 bits for a column sum, cannot hold the 18 products of a
   9-limb column. Multiplication and squaring therefore run *fused
   product scanning*: one left-to-right pass over
   the 2k columns sums each column's operand products and
   Montgomery-digit products as pure multiply-accumulate, with no carry
   extraction inside a column, and shifts only the column's carry into
   the next. That breaks the loop-carried add->mask->shift dependency
   chain of a word-by-word CIOS. Bound: a column sums at most 2k products
   of < 2^58 plus one carry, which stays below 2^64 for k <= 31, so the
   accumulators are read as unsigned and {!create} refuses moduli wider
   than 31 limbs (899 bits); the widest named set, std160, has 18.

   Two shapes of the reduced kernels, one per width. At 9 limbs (mid128,
   mid128b, any 233- to 261-bit modulus) [mul_into], [sqr_into],
   [add_into], [sub_into] and [neg_into] run the straight-line kernels
   that gen/gen_straight.ml generates into [Limbs_straight] (the width
   list is the generator's argument in this directory's dune file):
   every operand limb and every limb of m in a local, each column one
   expression, no loop counters, no u-digit store. Every other width
   runs the loops below: 18 limbs (std160) and 4 limbs (toy64, toy64b,
   the unit-test sets). Both shapes return the canonical residue, so
   the choice never changes a value.

   Representation invariant: an [elt] is exactly [k] base-2^29 limbs,
   little-endian, holding the canonical Montgomery residue value*R mod m
   in [0, m), R = 2^(29k). Because every kernel fully reduces its result,
   the representation of a given field value is unique — which is what
   makes "bit-identical to the generic {!Modarith.Mont} reference" a
   meaningful and testable contract regardless of the internal algorithm.

   Conditional subtractions are branchless: borrows are extracted from
   the sign bit of a difference of single limbs and the subtrahend is
   selected with a full-width mask, so no reduced kernel branches on its
   operands at any width (the inversion and the exponent-driven window
   walk of [pow_into] do).

   The limb loops use unchecked array accesses ([Array.unsafe_get]/
   [unsafe_set] — declared [external] so they inline on a non-flambda
   compiler): every index is bounded by [ctx.k] and every buffer is at
   least that long by the [elt] invariant and the scratch-growth rule, so
   the checks are provably dead — but the compiler cannot see that, and
   they cost ~30% of the inner loops. *)

external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* Kernel limb base: 29 bits (see the header comment for why not 31). *)
let kb = 29
let kbase = 1 lsl kb
let kmask = kbase - 1

(* The widest context: see the bound in the header comment. *)
let max_limbs = 31

type ctx = {
  m : Bigint.t;
  ml : int array; (* the modulus, exactly k limbs *)
  k : int;
  m0_inv_neg : int; (* -m^{-1} mod 2^29; each kernel widens it *)
  one_m : int array; (* R mod m — the Montgomery one, k limbs *)
  r2 : int array; (* R^2 mod m, k limbs *)
  r3 : int array; (* R^3 mod m, k limbs: single-conversion inversion *)
  straight : Limbs_straight.t option; (* generated kernels for this width *)
}

type elt = int array

(* --- per-domain scratch ---

   One grow-only record per domain: the k-limb buffer that holds the
   Montgomery digits of the loop [mul_into] and [sqr_into], plus the four
   k-limb state buffers of the binary-extgcd inversion ([inv_into]).
   [mul_into] never calls [inv_into] or vice versa within one operation
   (the inversion's final Montgomery multiply runs after the extgcd state
   is dead), so the slots never conflict. Loops are bounded by [ctx.k],
   never by the array length, so a scratch grown for a large context
   serves smaller ones unchanged. *)
type scratch = {
  mutable ws : int array;
  mutable gu : int array; (* extgcd: |value| operand *)
  mutable gv : int array; (* extgcd: modulus operand *)
  mutable gr : int array; (* extgcd: Bezout coefficient of gu *)
  mutable gs : int array; (* extgcd: Bezout coefficient of gv *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { ws = [||]; gu = [||]; gv = [||]; gr = [||]; gs = [||] })

let scratch k =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.ws < k then s.ws <- Array.make k 0;
  s

let inv_scratch k =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.gu < k then begin
    s.gu <- Array.make k 0;
    s.gv <- Array.make k 0;
    s.gr <- Array.make k 0;
    s.gs <- Array.make k 0
  end;
  s

(* --- raw helpers over caller-sized buffers --- *)

let alloc ctx = Array.make ctx.k 0
let limb_count ctx = ctx.k

let copy_into ctx dst src = Array.blit src 0 dst 0 ctx.k

let set_zero ctx dst = Array.fill dst 0 ctx.k 0
let set_one ctx dst = copy_into ctx dst ctx.one_m

let is_zero ctx a =
  let orv = ref 0 in
  for i = 0 to ctx.k - 1 do
    orv := !orv lor a.(i)
  done;
  !orv = 0

(* --- the loop kernels ---

   Every limb is read with [Int64.of_int] and written back with
   [Int64.to_int]; every product, sum, carry and borrow in between is an
   [Int64] operation on a local or a local [ref] that never escapes, so
   ocamlopt keeps it untagged in a register. Column accumulators can
   pass 2^63 at the widest contexts, so they are unsigned: only
   [Int64.logand] and [Int64.shift_right_logical] read them. A borrow is
   the sign bit of a difference of single limbs ([d >>> 63], |d| < 2^30).
   A flag crossing a function boundary is a native int: an [Int64]
   argument would be boxed. *)

let kmask64 = Int64.of_int kmask

(* dst <- dst - (m masked by -take), take = 0 or 1; branchless second
   half of the conditional subtraction (the caller has already decided
   [take]). *)
let masked_sub_in ctx dst take =
  let k = ctx.k and m = ctx.ml in
  let mask = Int64.of_int (-take) in
  let bor = ref 0L in
  for i = 0 to k - 1 do
    let mi = Int64.logand (Int64.of_int m.!(i)) mask in
    let d = Int64.sub (Int64.sub (Int64.of_int dst.!(i)) mi) !bor in
    bor := Int64.shift_right_logical d 63;
    dst.!(i) <- Int64.to_int (Int64.logand d kmask64)
  done

(* The trial borrow of r - m is threaded through the sum, so the
   conditional subtraction needs no separate compare pass:
   a + b >= m  <=>  carry out or no borrow. *)
let add_loop ctx dst a b =
  let k = ctx.k and m = ctx.ml in
  let carry = ref 0L and bor = ref 0L in
  for i = 0 to k - 1 do
    let s = Int64.add (Int64.add (Int64.of_int a.!(i)) (Int64.of_int b.!(i))) !carry in
    let r = Int64.logand s kmask64 in
    dst.!(i) <- Int64.to_int r;
    carry := Int64.shift_right_logical s kb;
    bor := Int64.shift_right_logical (Int64.sub (Int64.sub r (Int64.of_int m.!(i))) !bor) 63
  done;
  masked_sub_in ctx dst (Int64.to_int (Int64.logor !carry (Int64.sub 1L !bor)))

let sub_loop ctx dst a b =
  let k = ctx.k and m = ctx.ml in
  let bor = ref 0L in
  for i = 0 to k - 1 do
    let d = Int64.sub (Int64.sub (Int64.of_int a.!(i)) (Int64.of_int b.!(i))) !bor in
    bor := Int64.shift_right_logical d 63;
    dst.!(i) <- Int64.to_int (Int64.logand d kmask64)
  done;
  (* Add m back iff the subtraction went negative; masked, branchless. *)
  let mask = Int64.neg !bor in
  let carry = ref 0L in
  for i = 0 to k - 1 do
    let mi = Int64.logand (Int64.of_int m.!(i)) mask in
    let s = Int64.add (Int64.add (Int64.of_int dst.!(i)) mi) !carry in
    dst.!(i) <- Int64.to_int (Int64.logand s kmask64);
    carry := Int64.shift_right_logical s kb
  done

let neg_loop ctx dst a =
  let k = ctx.k and m = ctx.ml in
  let orv = ref 0L in
  for i = 0 to k - 1 do
    orv := Int64.logor !orv (Int64.of_int a.!(i))
  done;
  (* mask = all-ones iff a <> 0 (branchless nonzero test). *)
  let mask = Int64.neg (Int64.shift_right_logical (Int64.logor !orv (Int64.neg !orv)) 63) in
  let bor = ref 0L in
  for i = 0 to k - 1 do
    let d = Int64.sub (Int64.sub (Int64.of_int m.!(i)) (Int64.of_int a.!(i))) !bor in
    bor := Int64.shift_right_logical d 63;
    dst.!(i) <- Int64.to_int (Int64.logand (Int64.logand d kmask64) mask)
  done

(* Montgomery multiplication: dst <- a*b*R^{-1} mod m, canonical.

   Product scanning fused with the reduction: columns are processed left
   to right with a single register accumulator; at column c < k the
   Montgomery digit u_c is chosen to zero the column (only the low 29
   bits of acc * m' matter, so acc goes in unmasked), at column c >= k
   the result limb drops out. One pass, no wide buffer — the only memory
   written is the k-limb u-digit store (per-domain scratch) and [dst].
   Accumulator bound: a column sums at most 2k products of < 2^58 plus a
   carry < 2^35, below 2^64 for k <= 31 ({!create} enforces it).

   [dst] may alias [a] and/or [b]: dst.(c-k) is written at column c, and
   columns c' > c only read operand limbs with index > c-k.
   Allocation-free. *)
let mul_loop ctx dst a b =
  let k = ctx.k and m = ctx.ml in
  let m' = Int64.of_int ctx.m0_inv_neg and m0 = Int64.of_int m.!(0) in
  let u = (scratch k).ws in
  let acc = ref 0L in
  for c = 0 to k - 1 do
    for i = 0 to c do
      acc := Int64.add !acc (Int64.mul (Int64.of_int a.!(i)) (Int64.of_int b.!(c - i)))
    done;
    for j = 0 to c - 1 do
      acc := Int64.add !acc (Int64.mul (Int64.of_int u.!(j)) (Int64.of_int m.!(c - j)))
    done;
    let uc = Int64.logand (Int64.mul !acc m') kmask64 in
    u.!(c) <- Int64.to_int uc;
    acc := Int64.shift_right_logical (Int64.add !acc (Int64.mul uc m0)) kb
  done;
  (* The high columns also thread the trial borrow of the final
     conditional subtraction, so no separate compare pass is needed. *)
  let bor = ref 0L in
  for c = k to (2 * k) - 1 do
    for i = c - k + 1 to k - 1 do
      acc := Int64.add !acc (Int64.mul (Int64.of_int a.!(i)) (Int64.of_int b.!(c - i)))
    done;
    for j = c - k + 1 to k - 1 do
      acc := Int64.add !acc (Int64.mul (Int64.of_int u.!(j)) (Int64.of_int m.!(c - j)))
    done;
    let limb = Int64.logand !acc kmask64 in
    dst.!(c - k) <- Int64.to_int limb;
    acc := Int64.shift_right_logical !acc kb;
    let d = Int64.sub (Int64.sub limb (Int64.of_int m.!(c - k))) !bor in
    bor := Int64.shift_right_logical d 63
  done;
  masked_sub_in ctx dst (Int64.to_int (Int64.logor !acc (Int64.sub 1L !bor)))

(* Dedicated squaring, same fused column pass: each cross product is
   computed once and pre-doubled in the accumulator (the budget above
   counts it as two products), diagonal squares land on even columns. *)
let sqr_loop ctx dst a =
  let k = ctx.k and m = ctx.ml in
  let m' = Int64.of_int ctx.m0_inv_neg and m0 = Int64.of_int m.!(0) in
  let u = (scratch k).ws in
  let acc = ref 0L in
  for c = 0 to k - 1 do
    for i = 0 to (c - 1) asr 1 do
      let p = Int64.mul (Int64.of_int a.!(i)) (Int64.of_int a.!(c - i)) in
      acc := Int64.add !acc (Int64.shift_left p 1)
    done;
    if c land 1 = 0 then begin
      let h = Int64.of_int a.!(c / 2) in
      acc := Int64.add !acc (Int64.mul h h)
    end;
    for j = 0 to c - 1 do
      acc := Int64.add !acc (Int64.mul (Int64.of_int u.!(j)) (Int64.of_int m.!(c - j)))
    done;
    let uc = Int64.logand (Int64.mul !acc m') kmask64 in
    u.!(c) <- Int64.to_int uc;
    acc := Int64.shift_right_logical (Int64.add !acc (Int64.mul uc m0)) kb
  done;
  (* As in [mul_into], thread the conditional-subtraction trial borrow
     through the output columns instead of a separate compare pass. *)
  let bor = ref 0L in
  for c = k to (2 * k) - 1 do
    for i = c - k + 1 to (c - 1) asr 1 do
      let p = Int64.mul (Int64.of_int a.!(i)) (Int64.of_int a.!(c - i)) in
      acc := Int64.add !acc (Int64.shift_left p 1)
    done;
    if c land 1 = 0 then begin
      let h = Int64.of_int a.!(c / 2) in
      acc := Int64.add !acc (Int64.mul h h)
    end;
    for j = c - k + 1 to k - 1 do
      acc := Int64.add !acc (Int64.mul (Int64.of_int u.!(j)) (Int64.of_int m.!(c - j)))
    done;
    let limb = Int64.logand !acc kmask64 in
    dst.!(c - k) <- Int64.to_int limb;
    acc := Int64.shift_right_logical !acc kb;
    let d = Int64.sub (Int64.sub limb (Int64.of_int m.!(c - k))) !bor in
    bor := Int64.shift_right_logical d 63
  done;
  masked_sub_in ctx dst (Int64.to_int (Int64.logor !acc (Int64.sub 1L !bor)))

(* --- the reduced kernels: one per width ---

   A width that [Limbs_straight] was generated for runs its
   straight-line kernels; every other width runs the loops above. *)

let add_into ctx dst a b =
  match ctx.straight with
  | Some s -> s.add ctx.ml dst a b
  | None -> add_loop ctx dst a b

let sub_into ctx dst a b =
  match ctx.straight with
  | Some s -> s.sub ctx.ml dst a b
  | None -> sub_loop ctx dst a b

let neg_into ctx dst a =
  match ctx.straight with
  | Some s -> s.neg ctx.ml dst a
  | None -> neg_loop ctx dst a

let mul_into ctx dst a b =
  match ctx.straight with
  | Some s -> s.mul ctx.ml ctx.m0_inv_neg dst a b
  | None -> mul_loop ctx dst a b

let sqr_into ctx dst a =
  match ctx.straight with
  | Some s -> s.sqr ctx.ml ctx.m0_inv_neg dst a
  | None -> sqr_loop ctx dst a

(* --- conversions ---

   The kernel base (2^29) differs from {!Nat}'s (2^31), so crossing the
   boundary re-chunks the bit stream; both directions are cold paths. *)

(* dst (len limbs, base 2^29) <- the low bits of n (base-2^31 Nat). *)
let repack_nat_into dst len (n : Nat.t) =
  Array.fill dst 0 len 0;
  let buf = ref 0 and have = ref 0 and o = ref 0 in
  Array.iter
    (fun limb ->
      (* have < 29, limb < 2^31: buf stays under 2^60. *)
      buf := !buf lor (limb lsl !have);
      have := !have + Nat.base_bits;
      while !have >= kb do
        if !o < len then dst.(!o) <- !buf land kmask;
        incr o;
        buf := !buf lsr kb;
        have := !have - kb
      done)
    n;
  if !o < len then dst.(!o) <- !buf

let import_into ctx dst (n : Nat.t) = repack_nat_into dst ctx.k n

(* Bigint from [count] base-2^29 limbs (non-negative). *)
let unpack_to_bigint a count =
  let acc = ref Bigint.zero in
  for i = count - 1 downto 0 do
    acc := Bigint.add (Bigint.shift_left !acc kb) (Bigint.of_int a.(i))
  done;
  !acc

let of_bigint_into ctx dst v =
  let v = Bigint.erem v ctx.m in
  import_into ctx dst (Bigint.magnitude v);
  mul_into ctx dst dst ctx.r2

let of_bigint ctx v =
  let dst = alloc ctx in
  of_bigint_into ctx dst v;
  dst

(* Montgomery multiplication by the plain limb value 1 decodes:
   a * 1 * R^{-1} is the value, canonical. *)
let to_bigint ctx a =
  let v = alloc ctx in
  v.(0) <- 1;
  mul_into ctx v a v;
  unpack_to_bigint v ctx.k

(* --- exponentiation: in-place sliding window ---

   The schedule of {!Bigint.sliding_windows}, as in {!Modarith.window_pow}.
   The odd-powers table is the only per-call allocation: tbl.(0) is a
   copy of [base], so [dst] may alias it and serves as the accumulator
   (and, while the table is built, as base^2). Canonical representatives
   make the result bit-identical to the generic path. *)
let pow_into ctx dst base e =
  if Bigint.sign e < 0 then invalid_arg "Limbs.pow_into: negative exponent";
  if Bigint.is_zero e then set_one ctx dst
  else begin
    let w, sched = Bigint.sliding_windows e in
    (* tbl.(i) = base^(2i+1). *)
    let tbl = Array.init (1 lsl (w - 1)) (fun _ -> alloc ctx) in
    copy_into ctx tbl.(0) base;
    if w > 1 then begin
      sqr_into ctx dst base;
      for i = 1 to Array.length tbl - 1 do
        mul_into ctx tbl.(i) tbl.(i - 1) dst
      done
    end;
    List.iteri
      (fun j (s, d) ->
        if j = 0 then copy_into ctx dst tbl.(d lsr 1)
        else begin
          for _ = 1 to s do
            sqr_into ctx dst dst
          done;
          if d > 0 then mul_into ctx dst dst tbl.(d lsr 1)
        end)
      sched
  end

(* --- inversion: limb-form binary extended GCD ---

   Single-conversion and allocation-free. For a = x*R, inverting the
   *plain* limb value a gives (x*R)^{-1} = x^{-1} R^{-1} mod m; one
   Montgomery multiplication by R^3 lands back on x^{-1} R with no
   encode/decode round trip and no excursion through {!Bigint}. The
   extgcd state lives in four per-domain k-limb scratch buffers, so the
   whole operation allocates nothing.

   Invariants over plain (non-Montgomery) k-limb values, v = value(a):
     gu, gv >= 0,  gr*v = gu (mod m),  gs*v = gv (mod m),
     gr, gs in [0, m).
   m is odd (context precondition), so halving an even gu/gv pairs with
   a mod-m halving of its coefficient ((x + m)/2 when x is odd). The
   loop strictly decreases gu + gv and ends with gu = 0,
   gv = gcd(v, m); the value is invertible iff that gcd is 1, in which
   case gs = v^{-1} mod m. *)

(* x <- x / 2 over k plain limbs, top bit [hi] shifted in. *)
let shr1_in k x hi =
  for i = 0 to k - 2 do
    x.!(i) <- (x.!(i) lsr 1) lor ((x.!(i + 1) land 1) lsl (kb - 1))
  done;
  x.!(k - 1) <- (x.!(k - 1) lsr 1) lor (hi lsl (kb - 1))

(* x <- x / 2 mod m for x in [0, m): add m first iff x is odd (masked),
   then shift right, folding the (single-bit) carry into the top. *)
let half_mod_in ctx x =
  let k = ctx.k and m = ctx.ml in
  let mask = -(x.!(0) land 1) in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = x.!(i) + (m.!(i) land mask) + !carry in
    x.!(i) <- s land kmask;
    carry := s lsr kb
  done;
  shr1_in k x !carry

(* a >= b over k plain limbs? (Imperative, not a local closure: this sits
   inside the extgcd loop and must not allocate.) *)
let geq_limbs k a b =
  let i = ref (k - 1) in
  while !i > 0 && a.!(!i) = b.!(!i) do
    decr i
  done;
  a.!(!i) >= b.!(!i)

(* a <- a - b over k plain limbs; requires a >= b. *)
let usub_in k a b =
  let bor = ref 0 in
  for i = 0 to k - 1 do
    let d = a.!(i) - b.!(i) - !bor in
    bor := (d lsr 62) land 1;
    a.!(i) <- d land kmask
  done

let is_one_limbs k a =
  let orv = ref 0 in
  for i = 1 to k - 1 do
    orv := !orv lor a.!(i)
  done;
  a.!(0) = 1 && !orv = 0

let inv_into ctx dst a =
  let k = ctx.k in
  let s = inv_scratch k in
  let gu = s.gu and gv = s.gv and gr = s.gr and gs = s.gs in
  Array.blit a 0 gu 0 k;
  Array.blit ctx.ml 0 gv 0 k;
  Array.fill gr 0 k 0;
  gr.(0) <- 1;
  Array.fill gs 0 k 0;
  if is_zero ctx gu then raise Division_by_zero;
  (* Strip gu's trailing zeros (gu <> 0, so this terminates). *)
  while gu.!(0) land 1 = 0 do
    shr1_in k gu 0;
    half_mod_in ctx gr
  done;
  (* gu and gv both odd at the top of every iteration. *)
  let running = ref true in
  while !running do
    if geq_limbs k gu gv then begin
      usub_in k gu gv;
      sub_into ctx gr gr gs;
      if is_zero ctx gu then running := false
      else
        while gu.!(0) land 1 = 0 do
          shr1_in k gu 0;
          half_mod_in ctx gr
        done
    end
    else begin
      usub_in k gv gu;
      sub_into ctx gs gs gr;
      (* gv > gu >= 1 before the subtraction, so gv stays nonzero. *)
      while gv.!(0) land 1 = 0 do
        shr1_in k gv 0;
        half_mod_in ctx gs
      done
    end
  done;
  if not (is_one_limbs k gv) then raise Division_by_zero;
  mul_into ctx dst gs ctx.r3

(* --- context creation --- *)

(* Inverse of odd [v] mod 2^29 by Newton iteration: 3 correct bits to
   start, doubled per step, so 5 steps suffice. *)
let inv_limb v =
  let x = ref v in
  for _ = 1 to 5 do
    x := !x * (2 - (v * !x)) land kmask
  done;
  !x land kmask

let create m =
  if Bigint.sign m <= 0 || Bigint.is_even m || Bigint.compare m (Bigint.of_int 3) < 0
  then invalid_arg "Limbs.create: modulus must be odd and >= 3";
  let bits = Bigint.bit_length m in
  let k = (bits + kb - 1) / kb in
  (* The column-sum bound of [mul_loop]: 2k products of < 2^58 and a
     carry stay below 2^64 only up to 31 limbs. *)
  if k > max_limbs then
    invalid_arg
      (Printf.sprintf "Limbs.create: modulus wider than %d bits" (max_limbs * kb));
  let ml = Array.make k 0 in
  repack_nat_into ml k (Bigint.magnitude m);
  let m0_inv_neg = (kbase - inv_limb ml.(0)) land kmask in
  let r = Bigint.shift_left Bigint.one (k * kb) in
  let r_mod = Bigint.erem r m in
  let r2_b = Bigint.erem (Bigint.mul r_mod r_mod) m in
  let pack v =
    let out = Array.make k 0 in
    repack_nat_into out k (Bigint.magnitude v);
    out
  in
  let ctx =
    {
      m;
      ml;
      k;
      m0_inv_neg;
      one_m = pack r_mod;
      r2 = pack r2_b;
      r3 = Array.make k 0;
      straight = Limbs_straight.for_width k;
    }
  in
  (* R^3 = mont_mul(R^2, R^2); needs the rest of the context first. *)
  mul_into ctx ctx.r3 ctx.r2 ctx.r2;
  ctx
