(* GF(p^2) = GF(p)[i]/(i^2 + 1) on the fixed-limb kernels.

   Multiplication and squaring run a Karatsuba-style 3-product /
   2-product schedule on one of two paths, picked by
   [Limbs.lazy_products]. Both yield canonical coefficients, hence
   bit-identical results.

   REDUCED, in place, at a width with straight-line kernels (10 limbs:
   mid128, mid128b) and wherever the modulus leaves no lazy headroom:
     mul: re = ac - bd, im = (a + b)(c + d) - ac - bd   (3 mul + 5 add/sub)
     sqr: re = (a + b)(a - b), im = 2ab                 (2 mul + 3 add/sub)
   every intermediate a canonical residue. The straight-line kernels
   fuse each reduction into its product, and three of them beat the
   wide pipeline's loop passes; on the 20-limb loops reduced Karatsuba
   measured no faster than the lazy pipeline (DESIGN.md §1.1).

   LAZY REDUCTION at the other widths with headroom (std160's 20 limbs,
   toy64's 4): the cross terms are accumulated as full double-width
   integers and each output coefficient pays exactly one Montgomery
   reduction, instead of one per base-field multiplication. The
   identities need headroom — unreduced sums of two residues in k limbs,
   differences kept non-negative by a +p^2 offset, every reduction input
   below p*R — which [Limbs.lazy_ok] guarantees (4p <= R).

   For mul, with w0 = re_a*re_b, w1 = im_a*im_b (wide, < p^2) and
   w2 = (re_a + im_a)(re_b + im_b) taken over UNREDUCED sums (< 4p^2):
     im = redc(w2 - w0 - w1)        (exact integer, in [0, 2p^2))
     re = redc(w0 + p^2 - w1)       (offset keeps it non-negative)
   For sqr, with u = re + (p - im) < 2p and v = re + im < 2p:
     re = redc(u * v)               (u*v = re^2 - im^2 + p*(re+im))
     im = redc(2 * (re*im))
   All inputs to redc are < 4p^2 <= p*R. *)

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

(* Per-domain scratch: three k-limb buffers (the reduced products'
   intermediates, the lazy pipeline's unreduced sums) and three wide
   accumulators (the lazy pipeline), grown on demand and bounded by the
   current context's limb count. Disjoint from the {!Limbs} internal
   scratch, so the kernels called here never clobber it. *)
type scratch = {
  mutable s1 : int array;
  mutable s2 : int array;
  mutable s3 : int array;
  mutable w0 : int array;
  mutable w1 : int array;
  mutable w2 : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { s1 = [||]; s2 = [||]; s3 = [||]; w0 = [||]; w1 = [||]; w2 = [||] })

let scratch kern =
  let k = Limbs.limb_count kern in
  let s = Domain.DLS.get scratch_key in
  if Array.length s.s1 < k then begin
    s.s1 <- Array.make k 0;
    s.s2 <- Array.make k 0;
    s.s3 <- Array.make k 0
  end;
  if Array.length s.w0 < (2 * k) + 2 then begin
    s.w0 <- Array.make ((2 * k) + 2) 0;
    s.w1 <- Array.make ((2 * k) + 2) 0;
    s.w2 <- Array.make ((2 * k) + 2) 0
  end;
  s

(* Both product paths write into caller buffers [dre]/[dim], which may
   alias the coefficient buffers of [a] and [b]: every read of [a] and
   [b] happens before either destination is written. *)

(* Reduced Karatsuba: every intermediate canonical, so it needs no
   headroom. mul is 3 mul + 5 add/sub, sqr 2 mul + 3 add/sub. *)
let mul_reduced_into kern s dre dim a b =
  Limbs.add_into kern s.s1 a.re a.im;
  Limbs.add_into kern s.s2 b.re b.im;
  Limbs.mul_into kern s.s1 s.s1 s.s2;
  Limbs.mul_into kern s.s2 a.im b.im;
  Limbs.mul_into kern s.s3 a.re b.re;
  Limbs.sub_into kern dre s.s3 s.s2;
  Limbs.sub_into kern dim s.s1 s.s3;
  Limbs.sub_into kern dim dim s.s2

let sqr_reduced_into kern s dre dim a =
  Limbs.add_into kern s.s1 a.re a.im;
  Limbs.sub_into kern s.s2 a.re a.im;
  Limbs.mul_into kern s.s3 a.re a.im;
  Limbs.mul_into kern dre s.s1 s.s2;
  Limbs.add_into kern dim s.s3 s.s3

(* Lazy reduction: the wide products are combined before the two
   Montgomery reductions. *)
let mul_lazy_into kern s dre dim a b =
  Limbs.add_nored_into kern s.s1 a.re a.im;
  Limbs.add_nored_into kern s.s2 b.re b.im;
  Limbs.mul_wide_into kern s.w0 a.re b.re;
  Limbs.mul_wide_into kern s.w1 a.im b.im;
  Limbs.mul_wide_into kern s.w2 s.s1 s.s2;
  Limbs.wide_sub_into kern s.w2 s.w2 s.w0;
  Limbs.wide_sub_into kern s.w2 s.w2 s.w1;
  Limbs.redc_into kern dim s.w2;
  Limbs.wide_add_m2_into kern s.w0;
  Limbs.wide_sub_into kern s.w0 s.w0 s.w1;
  Limbs.redc_into kern dre s.w0

let sqr_lazy_into kern s dre dim a =
  (* u = re + (p - im), v = re + im; both < 2p, unreduced. *)
  Limbs.neg_into kern s.s1 a.im;
  Limbs.add_nored_into kern s.s1 a.re s.s1;
  Limbs.add_nored_into kern s.s2 a.re a.im;
  Limbs.mul_wide_into kern s.w1 a.re a.im;
  Limbs.mul_wide_into kern s.w0 s.s1 s.s2;
  Limbs.redc_into kern dre s.w0;
  Limbs.wide_double_into kern s.w1;
  Limbs.redc_into kern dim s.w1

let mul_into ctx dre dim a b =
  let kern = Fp.kernel ctx in
  let s = scratch kern in
  if Limbs.lazy_products kern then mul_lazy_into kern s dre dim a b
  else mul_reduced_into kern s dre dim a b

let sqr_into ctx dre dim a =
  let kern = Fp.kernel ctx in
  let s = scratch kern in
  if Limbs.lazy_products kern then sqr_lazy_into kern s dre dim a
  else sqr_reduced_into kern s dre dim a

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
     product, which measured no faster than the generic lazy squaring;
     the multiplication-free form is what makes the cyclotomic chain
     actually beat the reference exponentiation.) Callers must guarantee
     the precondition — for other inputs the result is simply wrong,
     which is why this lives on the [Mut] face next to the other
     discipline-bearing kernels and not in the functional API. [dst] may
     alias [a]: all reads of [a] happen before either destination
     coefficient is written. *)
  let cyclo_sqr_into ctx dst a =
    let kern = Fp.kernel ctx in
    let s = scratch kern in
    (* With only base-field SQUARINGS to do (the norm-1 identities leave
       no cross products for lazy reduction to save), the fused
       Montgomery squaring — one column pass with interleaved reduction,
       no wide buffer — beats the sqr_wide/redc pipeline's buffer
       traffic (zero-fill, carry propagation, doubling pass, copy-out)
       at the narrow widths, and needs no [lazy_ok] headroom at all.
       The column pass's short nested loops lose to the wide pipeline's
       straight-line passes once the operand outgrows ~a dozen limbs
       (measured crossover between k = 10 and k = 20), so wide widths
       keep the lazy path. *)
    if Limbs.limb_count kern <= 12 || not (Limbs.lazy_ok kern) then begin
      Limbs.add_into kern s.s1 a.re a.im;
      Limbs.sqr_into kern s.s2 a.re;
      Limbs.sqr_into kern dst.im s.s1; (* (re+im)^2, canonical *)
      Limbs.add_into kern dst.re s.s2 s.s2; (* 2 re^2 *)
      Limbs.set_one kern s.s1;
      Limbs.sub_into kern dst.re dst.re s.s1; (* re' = 2 re^2 - 1 *)
      Limbs.sub_into kern dst.im dst.im s.s1 (* im' = (re+im)^2 - 1 *)
    end
    else begin
      (* s1 = re + im < 2p unreduced; s1^2 < 4p^2 stays within the same
         redc bound the lazy products already rely on. *)
      Limbs.add_nored_into kern s.s1 a.re a.im;
      Limbs.sqr_wide_into kern s.w0 a.re;
      Limbs.sqr_wide_into kern s.w1 s.s1;
      Limbs.wide_double_into kern s.w0;
      Limbs.redc_into kern dst.re s.w0; (* 2 re^2, canonical *)
      Limbs.set_one kern s.s2;
      Limbs.sub_into kern dst.re dst.re s.s2; (* re' = 2 re^2 - 1 *)
      Limbs.redc_into kern dst.im s.w1; (* (re+im)^2, canonical *)
      Limbs.sub_into kern dst.im dst.im s.s2 (* im' = (re+im)^2 - 1 *)
    end
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
   (K^r, K^a) and of the final pairing exponentiation; sliding windows
   cut the multiplication count by ~2/3 at these exponent sizes, and the
   in-place accumulator makes the squaring chain allocation-free. *)
let pow ctx base n =
  let base, n =
    if Bigint.sign n >= 0 then (base, n) else (inv ctx base, Bigint.neg n)
  in
  let bits = Bigint.bit_length n in
  if bits = 0 then one ctx
  else if bits <= 8 then begin
    let acc = Mut.alloc ctx in
    Mut.set_one ctx acc;
    for i = bits - 1 downto 0 do
      Mut.sqr_into ctx acc acc;
      if Bigint.test_bit n i then Mut.mul_into ctx acc acc base
    done;
    acc
  end
  else begin
    let w = if bits <= 96 then 3 else if bits <= 320 then 4 else 5 in
    (* tbl.(i) = base^(2i+1). *)
    let tbl = Array.init (1 lsl (w - 1)) (fun _ -> Mut.alloc ctx) in
    Mut.set ctx tbl.(0) base;
    let b2 = Mut.alloc ctx in
    Mut.sqr_into ctx b2 base;
    for i = 1 to Array.length tbl - 1 do
      Mut.mul_into ctx tbl.(i) tbl.(i - 1) b2
    done;
    let acc = b2 (* dead once the table is built *) in
    Mut.set_one ctx acc;
    let started = ref false in
    let i = ref (bits - 1) in
    while !i >= 0 do
      if not (Bigint.test_bit n !i) then begin
        if !started then Mut.sqr_into ctx acc acc;
        decr i
      end
      else begin
        let l = ref (Stdlib.max 0 (!i - w + 1)) in
        while not (Bigint.test_bit n !l) do
          incr l
        done;
        let v = ref 0 in
        for j = !i downto !l do
          v := (!v lsl 1) lor (if Bigint.test_bit n j then 1 else 0)
        done;
        if !started then begin
          for _ = 1 to !i - !l + 1 do
            Mut.sqr_into ctx acc acc
          done;
          Mut.mul_into ctx acc acc tbl.((!v - 1) / 2)
        end
        else begin
          Mut.set ctx acc tbl.((!v - 1) / 2);
          started := true
        end;
        i := !l - 1
      end
    done;
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
