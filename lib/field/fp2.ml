(* GF(p^2) = GF(p)[i]/(i^2 + 1) on the fixed-limb kernels.

   Multiplication and squaring run reduced Karatsuba in place on the
   {!Limbs} kernels, at every width:
     mul: re = ac - bd, im = (a + b)(c + d) - ac - bd   (3 mul + 5 add/sub)
     sqr: re = (a + b)(a - b), im = 2ab                 (2 mul + 3 add/sub)
   every intermediate a canonical residue, so the result is canonical and
   no modulus needs headroom. At 9 limbs the kernels are straight-line
   code that fuses each reduction into its product. On the loop widths
   (std160's 18 limbs, the toy sets' 4) a lazy-reduction wide pipeline,
   one Montgomery reduction per output coefficient, won nothing clear:
   on std160's loops (then 20 tagged 26-bit limbs) this path took
   0.94–1.08 of its time (DESIGN.md §1.1). *)

type t = { re : Fp.t; im : Fp.t }

let make ~re ~im = { re; im }
let of_fp ctx x = { re = x; im = Fp.zero ctx }
let zero ctx = { re = Fp.zero ctx; im = Fp.zero ctx }
let one ctx = { re = Fp.one ctx; im = Fp.zero ctx }
let equal a b = Fp.equal a.re b.re && Fp.equal a.im b.im
let is_zero ctx a = Fp.is_zero ctx a.re && Fp.is_zero ctx a.im
let is_one ctx a = equal a (one ctx)
let add ctx a b = { re = Fp.add ctx a.re b.re; im = Fp.add ctx a.im b.im }
let sub ctx a b = { re = Fp.sub ctx a.re b.re; im = Fp.sub ctx a.im b.im }
let neg ctx a = { re = Fp.neg ctx a.re; im = Fp.neg ctx a.im }

(* Per-domain scratch: three k-limb buffers for the products'
   intermediates, grown on demand and bounded by the current context's
   limb count. Disjoint from the {!Limbs} internal scratch, so the
   kernels called here never clobber it. *)
type scratch = {
  mutable s1 : int array;
  mutable s2 : int array;
  mutable s3 : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { s1 = [||]; s2 = [||]; s3 = [||] })

let scratch kern =
  let k = Limbs.limb_count kern in
  let s = Domain.DLS.get scratch_key in
  if Array.length s.s1 < k then begin
    s.s1 <- Array.make k 0;
    s.s2 <- Array.make k 0;
    s.s3 <- Array.make k 0
  end;
  s

(* Both write into caller buffers [dre]/[dim], which may alias the
   coefficient buffers of [a] and [b]: every read of [a] and [b] happens
   before either destination is written. *)
let mul_into ctx dre dim a b =
  let kern = Fp.kernel ctx in
  let s = scratch kern in
  Limbs.add_into kern s.s1 a.re a.im;
  Limbs.add_into kern s.s2 b.re b.im;
  Limbs.mul_into kern s.s1 s.s1 s.s2;
  Limbs.mul_into kern s.s2 a.im b.im;
  Limbs.mul_into kern s.s3 a.re b.re;
  Limbs.sub_into kern dre s.s3 s.s2;
  Limbs.sub_into kern dim s.s1 s.s3;
  Limbs.sub_into kern dim dim s.s2

let sqr_into ctx dre dim a =
  let kern = Fp.kernel ctx in
  let s = scratch kern in
  Limbs.add_into kern s.s1 a.re a.im;
  Limbs.sub_into kern s.s2 a.re a.im;
  Limbs.mul_into kern s.s3 a.re a.im;
  Limbs.mul_into kern dre s.s1 s.s2;
  Limbs.add_into kern dim s.s3 s.s3

let mul ctx a b =
  let kern = Fp.kernel ctx in
  let dre = Limbs.alloc kern and dim = Limbs.alloc kern in
  mul_into ctx dre dim a b;
  { re = dre; im = dim }

let sqr ctx a =
  let kern = Fp.kernel ctx in
  let dre = Limbs.alloc kern and dim = Limbs.alloc kern in
  sqr_into ctx dre dim a;
  { re = dre; im = dim }

let mul_fp ctx s a = { re = Fp.mul ctx s a.re; im = Fp.mul ctx s a.im }
let conj ctx a = { a with im = Fp.neg ctx a.im }
let norm ctx a = Fp.add ctx (Fp.sqr ctx a.re) (Fp.sqr ctx a.im)

let inv ctx a =
  let n = norm ctx a in
  if Fp.is_zero ctx n then raise Division_by_zero;
  let ninv = Fp.inv ctx n in
  { re = Fp.mul ctx a.re ninv; im = Fp.neg ctx (Fp.mul ctx a.im ninv) }

(* In-place face for the accumulator loops (Miller loop squarings and
   line-value products, GT exponentiation). A [Mut]-allocated value is an
   ordinary [t] whose coefficient buffers the owner may overwrite. *)
module Mut = struct
  let alloc ctx = { re = Fp.Mut.alloc ctx; im = Fp.Mut.alloc ctx }

  let set ctx dst src =
    Fp.Mut.set ctx dst.re src.re;
    Fp.Mut.set ctx dst.im src.im

  let set_one ctx dst =
    Fp.Mut.set_one ctx dst.re;
    Fp.Mut.set_zero ctx dst.im

  let mul_into ctx dst a b = mul_into ctx dst.re dst.im a b
  let sqr_into ctx dst a = sqr_into ctx dst.re dst.im a

  (* Allocation-free inversion through the limb-form extended-GCD
     kernel: n = re^2 + im^2 in scratch, one [Limbs.inv_into], two
     products. [dst] may alias [a]: [a.re] is consumed by the write to
     [dst.re], and [a.im] is read into scratch before [dst.im] is
     written. Raises [Division_by_zero] on zero, like {!inv}. *)
  let inv_into ctx dst a =
    let kern = Fp.kernel ctx in
    let s = scratch kern in
    Limbs.sqr_into kern s.s1 a.re;
    Limbs.sqr_into kern s.s2 a.im;
    Limbs.add_into kern s.s1 s.s1 s.s2;
    if Limbs.is_zero kern s.s1 then raise Division_by_zero;
    Limbs.inv_into kern s.s1 s.s1;
    Limbs.mul_into kern s.s2 a.im s.s1;
    Limbs.mul_into kern dst.re a.re s.s1;
    Limbs.neg_into kern dst.im s.s2

  (* Squaring restricted to the norm-1 (cyclotomic) subgroup
     {a + bi : a^2 + b^2 = 1} — where the final-exponentiation hard part
     lives after the easy part maps everything to norm 1. The norm
     relation buys BOTH coefficients a base-field squaring:
       a^2 - b^2 = 2a^2 - 1           (since b^2 = 1 - a^2)
       2ab = (a + b)^2 - 1            (since a^2 + b^2 = 1)
     so the whole operation is two squarings and two constant
     subtractions — no multiplication at all, where the general formula
     needs two multiplications. (The earlier version kept 2ab as a
     product, which measured no faster than the generic squaring; the
     multiplication-free form is what makes the cyclotomic chain
     actually beat the reference exponentiation.) Callers must guarantee
     the precondition — for other inputs the result is simply wrong,
     which is why this lives on the [Mut] face next to the other
     discipline-bearing kernels and not in the functional API. [dst] may
     alias [a]: all reads of [a] happen before either destination
     coefficient is written. *)
  let cyclo_sqr_into ctx dst a =
    let kern = Fp.kernel ctx in
    let s = scratch kern in
    Limbs.add_into kern s.s1 a.re a.im;
    Limbs.sqr_into kern s.s2 a.re;
    Limbs.sqr_into kern dst.im s.s1; (* (re+im)^2, canonical *)
    Limbs.add_into kern dst.re s.s2 s.s2; (* 2 re^2 *)
    Limbs.set_one kern s.s1;
    Limbs.sub_into kern dst.re dst.re s.s1; (* re' = 2 re^2 - 1 *)
    Limbs.sub_into kern dst.im dst.im s.s1 (* im' = (re+im)^2 - 1 *)
end

let pow_binary ctx base n =
  let base, n =
    if Bigint.sign n >= 0 then (base, n) else (inv ctx base, Bigint.neg n)
  in
  let bits = Bigint.bit_length n in
  let acc = ref (one ctx) in
  for i = bits - 1 downto 0 do
    acc := sqr ctx !acc;
    if Bigint.test_bit n i then acc := mul ctx !acc base
  done;
  !acc

(* GT exponentiation is on the hot path of every encryption/decryption
   (K^r, K^a): sliding windows on the schedule of
   {!Bigint.sliding_windows} cut the multiplication count by ~2/3 at
   these exponent sizes, and the in-place accumulator makes the squaring
   chain allocation-free. *)
let pow ctx base n =
  let base, n =
    if Bigint.sign n >= 0 then (base, n) else (inv ctx base, Bigint.neg n)
  in
  if Bigint.is_zero n then one ctx
  else begin
    let w, sched = Bigint.sliding_windows n in
    (* tbl.(i) = base^(2i+1); [base] itself is only read. *)
    let tbl =
      Array.init (1 lsl (w - 1)) (fun i -> if i = 0 then base else Mut.alloc ctx)
    in
    let acc = Mut.alloc ctx in
    if w > 1 then begin
      Mut.sqr_into ctx acc base;
      for i = 1 to Array.length tbl - 1 do
        Mut.mul_into ctx tbl.(i) tbl.(i - 1) acc
      done
    end;
    List.iteri
      (fun j (s, d) ->
        if j = 0 then Mut.set ctx acc tbl.(d lsr 1)
        else begin
          for _ = 1 to s do
            Mut.sqr_into ctx acc acc
          done;
          if d > 0 then Mut.mul_into ctx acc acc tbl.(d lsr 1)
        end)
      sched;
    acc
  end

let to_bytes ctx a = Fp.to_bytes ctx a.re ^ Fp.to_bytes ctx a.im

let of_bytes ctx s =
  let w = Fp.byte_length ctx in
  if String.length s <> 2 * w then None
  else begin
    match (Fp.of_bytes ctx (String.sub s 0 w), Fp.of_bytes ctx (String.sub s w w)) with
    | Some re, Some im -> Some { re; im }
    | _ -> None
  end

let pp ctx fmt a =
  Format.fprintf fmt "(%a + %a*i)" (Fp.pp ctx) a.re (Fp.pp ctx) a.im
