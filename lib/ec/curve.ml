(* Affine arithmetic on E : y^2 = x^3 + a*x + b, plus scalar
   multiplication. The affine formulas are the textbook chord-and-tangent
   ones; slopes need one field inversion per operation, which is fine for
   single additions. Variable-base scalar multiplication runs an x-only
   Montgomery ladder; multi-scalar and fixed-base multiplication run
   Jacobian coordinates. Both avoid per-step inversions. *)

(* Both supported curves are Montgomery curves B v^2 = u^3 + A u^2 + u
   after the change of variable u = (x - x_t) c, v = y c, where x_t is
   the x-coordinate of the one rational 2-torsion point:
   - y^2 = x^3 + x is already one: A = 0, B = 1, x_t = 0, c = 1;
   - y^2 = x^3 + 1 maps by u = (x + 1)/sqrt 3, v = y/sqrt 3 to
     A = -sqrt 3, B = 1/sqrt 3 (x_t = -1, c = 1/sqrt 3).
   The ladder and the y-recovery below read only these constants. *)
type mont = {
  a24 : Fp.t option; (* (A + 2)/4; None when A = 0 *)
  two_a : Fp.t; (* 2A *)
  x_t : Fp.t;
  c : Fp.t;
  c_inv : Fp.t;
  rec_k : Fp.t; (* 2 B c^2: y-recovery's denominator constant *)
}

type ctx = { fp : Fp.ctx; a : Fp.t; b : Fp.t; a_is_zero : bool; mont : mont }
type point = Infinity | Affine of { x : Fp.t; y : Fp.t }

let create ?(a = 1) ?(b = 0) fp =
  let mont =
    match (a, b) with
    | 1, 0 ->
        let one = Fp.one fp in
        { a24 = None; two_a = Fp.zero fp; x_t = Fp.zero fp; c = one; c_inv = one;
          rec_k = Fp.of_int fp 2 }
    | 0, 1 -> (
        let three = Fp.of_int fp 3 in
        match Fp.sqrt fp three with
        | Some r3 ->
            let ma = Fp.neg fp r3 in
            let c = Fp.inv fp r3 in
            {
              a24 = Some (Fp.div fp (Fp.add fp ma (Fp.of_int fp 2)) (Fp.of_int fp 4));
              two_a = Fp.add fp ma ma;
              x_t = Fp.of_int fp (-1);
              c;
              c_inv = r3;
              (* 2 B c^2 = 2 / (3 sqrt 3) *)
              rec_k = Fp.div fp (Fp.of_int fp 2) (Fp.mul fp three r3);
            }
        | None -> invalid_arg "Curve.create: y^2 = x^3 + 1 needs sqrt 3 in GF(p)")
    | _ -> invalid_arg "Curve.create: only y^2 = x^3 + x and y^2 = x^3 + 1"
  in
  let a = Fp.of_int fp a and b = Fp.of_int fp b in
  { fp; a; b; a_is_zero = Fp.is_zero fp a; mont }

let coeff_a ctx = ctx.a
let infinity = Infinity
let is_infinity = function Infinity -> true | Affine _ -> false

(* x^3 + a*x + b *)
let rhs ctx x =
  let fp = ctx.fp in
  Fp.add fp (Fp.add fp (Fp.mul fp x (Fp.sqr fp x)) (Fp.mul fp ctx.a x)) ctx.b

let on_curve ctx = function
  | Infinity -> true
  | Affine { x; y } -> Fp.equal (Fp.sqr ctx.fp y) (rhs ctx x)

let make ctx ~x ~y =
  let p = Affine { x; y } in
  if not (on_curve ctx p) then invalid_arg "Curve.make: point not on curve";
  p

let equal a b =
  match (a, b) with
  | Infinity, Infinity -> true
  | Affine a, Affine b -> Fp.equal a.x b.x && Fp.equal a.y b.y
  | Infinity, Affine _ | Affine _, Infinity -> false

let neg ctx = function
  | Infinity -> Infinity
  | Affine { x; y } -> Affine { x; y = Fp.neg ctx.fp y }

let double ctx = function
  | Infinity -> Infinity
  | Affine { y; _ } when Fp.is_zero ctx.fp y -> Infinity
  | Affine { x; y } ->
      let fp = ctx.fp in
      (* lambda = (3x^2 + a) / 2y. *)
      let x2 = Fp.sqr fp x in
      let num = Fp.add fp (Fp.add fp (Fp.add fp x2 x2) x2) ctx.a in
      let lambda = Fp.div fp num (Fp.add fp y y) in
      let x3 = Fp.sub fp (Fp.sqr fp lambda) (Fp.add fp x x) in
      let y3 = Fp.sub fp (Fp.mul fp lambda (Fp.sub fp x x3)) y in
      Affine { x = x3; y = y3 }

let add ctx a b =
  match (a, b) with
  | Infinity, q -> q
  | p, Infinity -> p
  | Affine pa, Affine pb ->
      let fp = ctx.fp in
      if Fp.equal pa.x pb.x then
        if Fp.equal pa.y pb.y then double ctx a else Infinity
      else begin
        let lambda = Fp.div fp (Fp.sub fp pb.y pa.y) (Fp.sub fp pb.x pa.x) in
        let x3 = Fp.sub fp (Fp.sub fp (Fp.sqr fp lambda) pa.x) pb.x in
        let y3 = Fp.sub fp (Fp.mul fp lambda (Fp.sub fp pa.x x3)) pa.y in
        Affine { x = x3; y = y3 }
      end

(* Each chord sum's slope divides by x_b - x_a; the whole batch shares
   one inversion (Montgomery's trick: prefix products, one inverse, then
   peel one factor per slot from the back). A pair with infinity or equal
   abscissas (a doubling or an inverse pair) needs no division by its own
   difference and goes through [add]. *)
let add_many ctx pairs =
  let fp = ctx.fp in
  let den = function
    | Affine pa, Affine pb when not (Fp.equal pa.x pb.x) -> Some (Fp.sub fp pb.x pa.x)
    | _ -> None
  in
  let dens = Array.map den pairs in
  let n = Array.length pairs in
  let prefix = Array.make n (Fp.one fp) in
  let acc = ref (Fp.one fp) in
  Array.iteri
    (fun i d ->
      prefix.(i) <- !acc;
      Option.iter (fun d -> acc := Fp.mul fp !acc d) d)
    dens;
  let inv = ref (if n = 0 then !acc else Fp.inv fp !acc) in
  let out = Array.make n Infinity in
  for i = n - 1 downto 0 do
    out.(i) <-
      (match (pairs.(i), dens.(i)) with
      | (Affine pa, Affine pb), Some d ->
          let lambda = Fp.mul fp (Fp.sub fp pb.y pa.y) (Fp.mul fp !inv prefix.(i)) in
          inv := Fp.mul fp !inv d;
          let x3 = Fp.sub fp (Fp.sub fp (Fp.sqr fp lambda) pa.x) pb.x in
          let y3 = Fp.sub fp (Fp.mul fp lambda (Fp.sub fp pa.x x3)) pa.y in
          Affine { x = x3; y = y3 }
      | (a, b), _ -> add ctx a b)
  done;
  out

(* Scalar multiplication runs in Jacobian coordinates (X/Z^2, Y/Z^3) so
   the whole double-and-add loop needs a single field inversion at the
   end instead of one per step. Infinity is represented by Z = 0. *)
type jacobian = { jx : Fp.t; jy : Fp.t; jz : Fp.t }

let jac_double ctx p =
  let fp = ctx.fp in
  if Fp.is_zero fp p.jz || Fp.is_zero fp p.jy then
    { jx = Fp.one fp; jy = Fp.one fp; jz = Fp.zero fp }
  else begin
    let y2 = Fp.sqr fp p.jy in
    let s =
      (* 4 * X * Y^2 *)
      let xy2 = Fp.mul fp p.jx y2 in
      let d = Fp.add fp xy2 xy2 in
      Fp.add fp d d
    in
    let z2 = Fp.sqr fp p.jz in
    let x2 = Fp.sqr fp p.jx in
    let three_x2 = Fp.add fp (Fp.add fp x2 x2) x2 in
    (* M = 3X^2 + a*Z^4; both curve families have a in {0, 1}. *)
    let m =
      if ctx.a_is_zero then three_x2
      else Fp.add fp three_x2 (Fp.mul fp ctx.a (Fp.sqr fp z2))
    in
    let x' = Fp.sub fp (Fp.sqr fp m) (Fp.add fp s s) in
    let y4_8 =
      let y4 = Fp.sqr fp y2 in
      let d = Fp.add fp y4 y4 in
      let d = Fp.add fp d d in
      Fp.add fp d d
    in
    let y' = Fp.sub fp (Fp.mul fp m (Fp.sub fp s x')) y4_8 in
    let z' = Fp.mul fp (Fp.add fp p.jy p.jy) p.jz in
    { jx = x'; jy = y'; jz = z' }
  end

(* Mixed addition: [p] Jacobian + (x2, y2) affine. *)
let jac_add_affine ctx p ~x2 ~y2 =
  let fp = ctx.fp in
  if Fp.is_zero fp p.jz then { jx = x2; jy = y2; jz = Fp.one fp }
  else begin
    let z2 = Fp.sqr fp p.jz in
    let u2 = Fp.mul fp x2 z2 in
    let s2 = Fp.mul fp y2 (Fp.mul fp z2 p.jz) in
    let h = Fp.sub fp u2 p.jx in
    let r = Fp.sub fp s2 p.jy in
    if Fp.is_zero fp h then
      if Fp.is_zero fp r then jac_double ctx p
      else { jx = Fp.one fp; jy = Fp.one fp; jz = Fp.zero fp }
    else begin
      let h2 = Fp.sqr fp h in
      let h3 = Fp.mul fp h2 h in
      let xh2 = Fp.mul fp p.jx h2 in
      let x' = Fp.sub fp (Fp.sub fp (Fp.sqr fp r) h3) (Fp.add fp xh2 xh2) in
      let y' = Fp.sub fp (Fp.mul fp r (Fp.sub fp xh2 x')) (Fp.mul fp p.jy h3) in
      let z' = Fp.mul fp p.jz h in
      { jx = x'; jy = y'; jz = z' }
    end
  end

let jac_to_affine ctx p =
  let fp = ctx.fp in
  if Fp.is_zero fp p.jz then Infinity
  else begin
    let zinv = Fp.inv fp p.jz in
    let zinv2 = Fp.sqr fp zinv in
    Affine
      { x = Fp.mul fp p.jx zinv2; y = Fp.mul fp p.jy (Fp.mul fp zinv2 zinv) }
  end

let jac_infinity fp = { jx = Fp.one fp; jy = Fp.one fp; jz = Fp.zero fp }

(* Full Jacobian + Jacobian addition; only used for precomputation-table
   construction (the inner multiplication loops stay on the cheaper mixed
   addition against batch-normalized affine table entries). *)
let jac_add ctx p q =
  let fp = ctx.fp in
  if Fp.is_zero fp p.jz then q
  else if Fp.is_zero fp q.jz then p
  else begin
    let z1z1 = Fp.sqr fp p.jz in
    let z2z2 = Fp.sqr fp q.jz in
    let u1 = Fp.mul fp p.jx z2z2 in
    let u2 = Fp.mul fp q.jx z1z1 in
    let s1 = Fp.mul fp p.jy (Fp.mul fp q.jz z2z2) in
    let s2 = Fp.mul fp q.jy (Fp.mul fp p.jz z1z1) in
    let h = Fp.sub fp u2 u1 in
    let r = Fp.sub fp s2 s1 in
    if Fp.is_zero fp h then
      if Fp.is_zero fp r then jac_double ctx p else jac_infinity fp
    else begin
      let h2 = Fp.sqr fp h in
      let h3 = Fp.mul fp h2 h in
      let u1h2 = Fp.mul fp u1 h2 in
      let x3 = Fp.sub fp (Fp.sub fp (Fp.sqr fp r) h3) (Fp.add fp u1h2 u1h2) in
      let y3 = Fp.sub fp (Fp.mul fp r (Fp.sub fp u1h2 x3)) (Fp.mul fp s1 h3) in
      let z3 = Fp.mul fp (Fp.mul fp p.jz q.jz) h in
      { jx = x3; jy = y3; jz = z3 }
    end
  end

(* Montgomery batch inversion: normalize [n] Jacobian points (all with
   Z <> 0) to affine coordinates with a single field inversion and
   3(n-1) + 5n multiplications instead of n inversions. *)
let batch_to_affine ctx (pts : jacobian array) : (Fp.t * Fp.t) array =
  let fp = ctx.fp in
  let n = Array.length pts in
  let prefix = Array.make n (Fp.one fp) in
  let acc = ref (Fp.one fp) in
  for i = 0 to n - 1 do
    prefix.(i) <- !acc;
    acc := Fp.mul fp !acc pts.(i).jz
  done;
  let suffix_inv = ref (Fp.inv fp !acc) in
  let out = Array.make n (Fp.zero fp, Fp.zero fp) in
  for i = n - 1 downto 0 do
    let zinv = Fp.mul fp !suffix_inv prefix.(i) in
    suffix_inv := Fp.mul fp !suffix_inv pts.(i).jz;
    let zinv2 = Fp.sqr fp zinv in
    out.(i) <-
      (Fp.mul fp pts.(i).jx zinv2, Fp.mul fp pts.(i).jy (Fp.mul fp zinv2 zinv))
  done;
  out

(* --- in-place register file ---

   The ladder / MSM / fixed-base loops below run hundreds of steps per
   scalar; with the functional formulas each step allocated ~15 fresh
   field elements. The register file holds one Jacobian accumulator
   (ax, ay, az) plus seven temporaries, all allocated ONCE per scalar
   multiplication and mutated in place by the {!Fp.Mut} kernels — the
   loops themselves allocate nothing. The ladder reuses the same ten
   buffers with its own register map. The Jacobian schedules below
   compute exactly the same field expressions as [jac_double] /
   [jac_add_affine]; canonical representatives make the results
   bit-identical, which [mul_double_add] (kept functional) pins in the
   equivalence tests. Inputs from outside the file (table entries, point
   coordinates, ctx.a) are read-only. *)
type jregs = {
  ax : Fp.t;
  ay : Fp.t;
  az : Fp.t;
  t0 : Fp.t;
  t1 : Fp.t;
  t2 : Fp.t;
  t3 : Fp.t;
  t4 : Fp.t;
  t5 : Fp.t;
  tn : Fp.t; (* negated table y, alive across the add call *)
}

let jregs_alloc fp =
  {
    ax = Fp.Mut.alloc fp;
    ay = Fp.Mut.alloc fp;
    az = Fp.Mut.alloc fp;
    t0 = Fp.Mut.alloc fp;
    t1 = Fp.Mut.alloc fp;
    t2 = Fp.Mut.alloc fp;
    t3 = Fp.Mut.alloc fp;
    t4 = Fp.Mut.alloc fp;
    t5 = Fp.Mut.alloc fp;
    tn = Fp.Mut.alloc fp;
  }

(* Per-domain register-file cache. Allocating the ten-buffer file on
   every scalar multiplication was the one remaining allocation in the
   kernel loops — and the whole of the curve-steps regression at small
   limb counts, where ten boxed arrays per call rival the arithmetic
   itself. The cache keeps ONE file per domain, grow-only (every kernel
   loop is bounded by its context's limb count, never by the buffer
   length, so a file grown for a large field serves smaller ones), with
   a busy flag so any reentrant user transparently falls back to a
   fresh allocation. Every schedule below (Jacobian and ladder) writes
   each register before reading it, so stale limbs from another context
   are harmless. *)
type jcache = { mutable jk : int; mutable jfile : jregs; mutable jbusy : bool }

let jregs_raw k =
  {
    ax = Array.make k 0;
    ay = Array.make k 0;
    az = Array.make k 0;
    t0 = Array.make k 0;
    t1 = Array.make k 0;
    t2 = Array.make k 0;
    t3 = Array.make k 0;
    t4 = Array.make k 0;
    t5 = Array.make k 0;
    tn = Array.make k 0;
  }

let jcache_key =
  Domain.DLS.new_key (fun () -> { jk = 0; jfile = jregs_raw 0; jbusy = false })

let jregs_acquire fp =
  let c = Domain.DLS.get jcache_key in
  if c.jbusy then jregs_alloc fp
  else begin
    let k = Limbs.limb_count (Fp.kernel fp) in
    if c.jk < k then begin
      c.jfile <- jregs_raw k;
      c.jk <- k
    end;
    c.jbusy <- true;
    c.jfile
  end

let jregs_release r =
  let c = Domain.DLS.get jcache_key in
  if r == c.jfile then c.jbusy <- false

(* Accumulator <- infinity, in the same {1, 1, 0} encoding as
   [jac_infinity]. *)
let jset_infinity fp r =
  Fp.Mut.set_one fp r.ax;
  Fp.Mut.set_one fp r.ay;
  Fp.Mut.set_zero fp r.az

let jdouble_in ctx r =
  let fp = ctx.fp in
  if Fp.is_zero fp r.az || Fp.is_zero fp r.ay then jset_infinity fp r
  else begin
    Fp.Mut.sqr_into fp r.t0 r.ay; (* t0 = Y^2 *)
    Fp.Mut.mul_into fp r.t1 r.ax r.t0; (* t1 = X*Y^2 *)
    Fp.Mut.add_into fp r.t1 r.t1 r.t1;
    Fp.Mut.add_into fp r.t1 r.t1 r.t1; (* t1 = s = 4*X*Y^2 *)
    Fp.Mut.sqr_into fp r.t2 r.az; (* t2 = Z^2 *)
    Fp.Mut.sqr_into fp r.t3 r.ax; (* t3 = X^2 *)
    Fp.Mut.add_into fp r.t4 r.t3 r.t3;
    Fp.Mut.add_into fp r.t4 r.t4 r.t3; (* t4 = 3*X^2 *)
    if not ctx.a_is_zero then begin
      Fp.Mut.sqr_into fp r.t5 r.t2;
      Fp.Mut.mul_into fp r.t5 ctx.a r.t5;
      Fp.Mut.add_into fp r.t4 r.t4 r.t5 (* t4 = M = 3X^2 + a*Z^4 *)
    end;
    Fp.Mut.sqr_into fp r.t5 r.t4;
    Fp.Mut.sub_into fp r.t5 r.t5 r.t1;
    Fp.Mut.sub_into fp r.t5 r.t5 r.t1; (* t5 = X' = M^2 - 2s *)
    Fp.Mut.sqr_into fp r.t0 r.t0;
    Fp.Mut.add_into fp r.t0 r.t0 r.t0;
    Fp.Mut.add_into fp r.t0 r.t0 r.t0;
    Fp.Mut.add_into fp r.t0 r.t0 r.t0; (* t0 = 8*Y^4 *)
    Fp.Mut.sub_into fp r.t1 r.t1 r.t5;
    Fp.Mut.mul_into fp r.t1 r.t4 r.t1;
    Fp.Mut.sub_into fp r.t1 r.t1 r.t0; (* t1 = Y' = M(s - X') - 8Y^4 *)
    Fp.Mut.add_into fp r.t2 r.ay r.ay;
    Fp.Mut.mul_into fp r.az r.t2 r.az; (* Z' = 2*Y*Z *)
    Fp.Mut.set fp r.ax r.t5;
    Fp.Mut.set fp r.ay r.t1
  end

let jadd_affine_in ctx r ~x2 ~y2 =
  let fp = ctx.fp in
  if Fp.is_zero fp r.az then begin
    Fp.Mut.set fp r.ax x2;
    Fp.Mut.set fp r.ay y2;
    Fp.Mut.set_one fp r.az
  end
  else begin
    Fp.Mut.sqr_into fp r.t0 r.az; (* t0 = Z^2 *)
    Fp.Mut.mul_into fp r.t1 x2 r.t0;
    Fp.Mut.sub_into fp r.t1 r.t1 r.ax; (* t1 = h = x2*Z^2 - X *)
    Fp.Mut.mul_into fp r.t2 r.t0 r.az;
    Fp.Mut.mul_into fp r.t2 y2 r.t2;
    Fp.Mut.sub_into fp r.t2 r.t2 r.ay; (* t2 = r = y2*Z^3 - Y *)
    if Fp.is_zero fp r.t1 then
      if Fp.is_zero fp r.t2 then jdouble_in ctx r else jset_infinity fp r
    else begin
      Fp.Mut.sqr_into fp r.t3 r.t1; (* t3 = h^2 *)
      Fp.Mut.mul_into fp r.t4 r.t3 r.t1; (* t4 = h^3 *)
      Fp.Mut.mul_into fp r.t3 r.ax r.t3; (* t3 = X*h^2 *)
      Fp.Mut.sqr_into fp r.t5 r.t2;
      Fp.Mut.sub_into fp r.t5 r.t5 r.t4;
      Fp.Mut.sub_into fp r.t5 r.t5 r.t3;
      Fp.Mut.sub_into fp r.t5 r.t5 r.t3; (* t5 = X' = r^2 - h^3 - 2Xh^2 *)
      Fp.Mut.sub_into fp r.t3 r.t3 r.t5;
      Fp.Mut.mul_into fp r.t3 r.t2 r.t3;
      Fp.Mut.mul_into fp r.t4 r.ay r.t4;
      Fp.Mut.sub_into fp r.t3 r.t3 r.t4; (* t3 = Y' = r(Xh^2 - X') - Y*h^3 *)
      Fp.Mut.mul_into fp r.az r.az r.t1; (* Z' = Z*h *)
      Fp.Mut.set fp r.ax r.t5;
      Fp.Mut.set fp r.ay r.t3
    end
  end

(* Snapshot the accumulator registers as a (functional) Jacobian point;
   [jac_to_affine] only reads its argument, and its outputs are fresh. *)
let jregs_to_affine ctx r =
  jac_to_affine ctx { jx = r.ax; jy = r.ay; jz = r.az }

(* Benchmark/ablation probes: [steps] iterations of double-then-mixed-add
   starting from [point], through the functional formulas and through the
   register file respectively. Same field expressions, canonical
   representatives — the results must be bit-identical, which the bench
   smoke mode and equivalence tests assert. *)
let jac_steps_ref ctx point steps =
  match point with
  | Infinity -> Infinity
  | Affine { x = x2; y = y2 } ->
      let acc = ref { jx = x2; jy = y2; jz = Fp.one ctx.fp } in
      for _ = 1 to steps do
        acc := jac_double ctx !acc;
        acc := jac_add_affine ctx !acc ~x2 ~y2
      done;
      jac_to_affine ctx !acc

let jac_steps_kernel ctx point steps =
  match point with
  | Infinity -> Infinity
  | Affine { x = x2; y = y2 } ->
      let fp = ctx.fp in
      let r = jregs_acquire fp in
      Fp.Mut.set fp r.ax x2;
      Fp.Mut.set fp r.ay y2;
      Fp.Mut.set_one fp r.az;
      for _ = 1 to steps do
        jdouble_in ctx r;
        jadd_affine_in ctx r ~x2 ~y2
      done;
      let p = jregs_to_affine ctx r in
      jregs_release r;
      p

let mul_double_add ctx k point =
  let k, point =
    if Bigint.sign k >= 0 then (k, point) else (Bigint.neg k, neg ctx point)
  in
  match point with
  | Infinity -> Infinity
  | Affine { x = x2; y = y2 } ->
      let fp = ctx.fp in
      let bits = Bigint.bit_length k in
      let acc = ref (jac_infinity fp) in
      for i = bits - 1 downto 0 do
        acc := jac_double ctx !acc;
        if Bigint.test_bit k i then acc := jac_add_affine ctx !acc ~x2 ~y2
      done;
      jac_to_affine ctx !acc

(* --- x-only Montgomery ladder ---

   A point is tracked by its Montgomery u-coordinate alone, as (X : Z)
   with infinity at Z = 0. Each bit of k costs one differential addition
   (2S + 3M against the affine base u) and one doubling (2S + 2M when
   A = 0, one more M by a24 otherwise), through the register file:
   (X_k : Z_k) in (ax : ay), (X_k+1 : Z_k+1) in (az : t0), the base u in
   t5, t1-t4 temporaries. A^2 - 4 is a non-square on both curves (-4 and
   -1, with p = 3 mod 4), so no step ever produces (0 : 0) unless the
   base is the 2-torsion point u = 0, which callers route around: the
   ladder is exact for every other base, whatever its order. *)

(* (xd : zd) <- 2 (xd : zd) and (xo : zo) <- (xd : zd) + (xo : zo); the
   two registers always differ by the base, so the sum is the
   differential one. *)
let ladder_step ctx r ~xd ~zd ~xo ~zo =
  let fp = ctx.fp in
  Fp.Mut.add_into fp r.t1 xd zd; (* t1 = A = Xd + Zd *)
  Fp.Mut.sub_into fp r.t2 xd zd; (* t2 = B = Xd - Zd *)
  Fp.Mut.add_into fp r.t3 xo zo;
  Fp.Mut.sub_into fp r.t4 xo zo;
  Fp.Mut.mul_into fp r.t4 r.t4 r.t1; (* t4 = DA = (Xo - Zo) A *)
  Fp.Mut.mul_into fp r.t3 r.t3 r.t2; (* t3 = CB = (Xo + Zo) B *)
  Fp.Mut.add_into fp xo r.t4 r.t3;
  Fp.Mut.sqr_into fp xo xo; (* Xo' = (DA + CB)^2 *)
  Fp.Mut.sub_into fp zo r.t4 r.t3;
  Fp.Mut.sqr_into fp zo zo;
  Fp.Mut.mul_into fp zo zo r.t5; (* Zo' = u (DA - CB)^2 *)
  Fp.Mut.sqr_into fp r.t1 r.t1; (* t1 = AA *)
  Fp.Mut.sqr_into fp r.t2 r.t2; (* t2 = BB *)
  Fp.Mut.mul_into fp xd r.t1 r.t2; (* Xd' = AA BB *)
  Fp.Mut.sub_into fp r.t3 r.t1 r.t2; (* t3 = E = AA - BB = 4 Xd Zd *)
  match ctx.mont.a24 with
  | None ->
      (* A = 0: Zd' = E (AA + BB) / 2; scale both coordinates by 2 *)
      Fp.Mut.add_into fp xd xd xd;
      Fp.Mut.add_into fp r.t4 r.t1 r.t2;
      Fp.Mut.mul_into fp zd r.t3 r.t4
  | Some a24 ->
      Fp.Mut.mul_into fp r.t4 a24 r.t3;
      Fp.Mut.add_into fp r.t4 r.t4 r.t2;
      Fp.Mut.mul_into fp zd r.t3 r.t4 (* Zd' = E (BB + a24 E) *)

(* Run the ladder for k > 0 on the affine base with Weierstrass x-coordinate
   [x] (u(x) <> 0): leaves [k]P in (ax : ay) and [k+1]P in (az : t0). *)
let ladder ctx r k x =
  let fp = ctx.fp and m = ctx.mont in
  Fp.Mut.sub_into fp r.t5 x m.x_t;
  Fp.Mut.mul_into fp r.t5 r.t5 m.c;
  Fp.Mut.set_one fp r.ax;
  Fp.Mut.set_zero fp r.ay;
  Fp.Mut.set fp r.az r.t5;
  Fp.Mut.set_one fp r.t0;
  for i = Bigint.bit_length k - 1 downto 0 do
    if Bigint.test_bit k i then ladder_step ctx r ~xd:r.az ~zd:r.t0 ~xo:r.ax ~zo:r.ay
    else ladder_step ctx r ~xd:r.ax ~zd:r.ay ~xo:r.az ~zo:r.t0
  done

let is_two_torsion ctx x = Fp.equal x ctx.mont.x_t

(* Okeya-Sakurai y-recovery: Q = [k]P from u(Q) = X1/Z1, u(Q+P) = X2/Z2
   and P = (u, v), with Z1, Z2 <> 0 and v <> 0:
     v(Q) = ((u uQ + 1)(uQ + u + 2A) - 2A - (uQ - u)^2 u(Q+P)) / (2 B v),
   projectively Y' / (2 B v Z1^2 Z2) with
     Y' = Z2 ((u X1 + Z1)(X1 + u Z1 + 2A Z1) - 2A Z1^2) - X2 (X1 - u Z1)^2.
   Back on the Weierstrass curve x = uQ / c + x_t and y = v(Q) / c, so
   with v = c y both share the denominator W = 2 B c^2 y Z1^2 Z2: one
   inversion for the whole point. *)
let recover_y ctx r ~y =
  let fp = ctx.fp and m = ctx.mont in
  let u = r.t5 and x1 = r.ax and z1 = r.ay and x2 = r.az and z2 = r.t0 in
  let uz1 = Fp.mul fp u z1 in
  let az1 = Fp.mul fp m.two_a z1 in
  let s =
    Fp.sub fp
      (Fp.mul fp
         (Fp.add fp (Fp.mul fp u x1) z1)
         (Fp.add fp (Fp.add fp x1 uz1) az1))
      (Fp.mul fp az1 z1)
  in
  let y' = Fp.sub fp (Fp.mul fp s z2) (Fp.mul fp x2 (Fp.sqr fp (Fp.sub fp x1 uz1))) in
  let t = Fp.mul fp (Fp.mul fp m.rec_k y) (Fp.mul fp z1 z2) in
  let winv = Fp.inv fp (Fp.mul fp t z1) in
  Affine
    { x = Fp.add fp (Fp.mul fp (Fp.mul fp (Fp.mul fp x1 t) m.c_inv) winv) m.x_t;
      y = Fp.mul fp y' winv }

(* Variable-base scalar multiplication: the ladder, then y-recovery.
   Neither [k]P = O (Z_k = 0) nor [k]P = -P (Z_k+1 = 0) fits the recovery
   formula; both are read off the ladder directly. *)
let mul ctx k point =
  let k, point =
    if Bigint.sign k >= 0 then (k, point) else (Bigint.neg k, neg ctx point)
  in
  match point with
  | Infinity -> Infinity
  | Affine _ when Bigint.is_zero k -> Infinity
  | Affine { x; _ } when is_two_torsion ctx x ->
      if Bigint.is_odd k then point else Infinity
  | Affine { x; y } ->
      let fp = ctx.fp in
      let r = jregs_acquire fp in
      ladder ctx r k x;
      let p =
        if Fp.is_zero fp r.ay then Infinity
        else if Fp.is_zero fp r.t0 then neg ctx point
        else recover_y ctx r ~y
      in
      jregs_release r;
      p

(* [k]P = O, decided by the ladder alone: no y, no inversion. *)
let mul_is_infinity ctx k point =
  match point with
  | Infinity -> true
  | Affine _ when Bigint.is_zero k -> true
  | Affine { x; _ } when is_two_torsion ctx x -> Bigint.is_even k
  | Affine { x; _ } ->
      let fp = ctx.fp in
      let r = jregs_acquire fp in
      ladder ctx r (Bigint.abs k) x;
      let z = Fp.is_zero fp r.ay in
      jregs_release r;
      z

(* Multi-scalar multiplication sum_i k_i * P_i: every term's wNAF digit
   stream is interleaved over ONE shared doubling chain, all the terms'
   odd-multiple tables are normalized by ONE Montgomery batch inversion,
   and the result pays one final inversion — versus n full double-chains
   and inversions for independent [mul]s. With the short (64-bit)
   exponents of batch verification this drops the per-term cost from a
   whole ladder to roughly a table build plus bits/(w+1) mixed additions.
   Degenerate terms (low-order points whose odd-multiple table
   collapses) fall back to a standalone [mul] and are added in at the
   end, so the result always agrees with folding [add] over independent
   [mul]s. *)
let msm ctx pairs =
  let fp = ctx.fp in
  let w = 4 in
  let tcount = 1 lsl (w - 2) in
  let plain = ref Infinity in
  let terms =
    List.filter_map
      (fun (k, p) ->
        let k, p =
          if Bigint.sign k >= 0 then (k, p) else (Bigint.neg k, neg ctx p)
        in
        match p with
        | Infinity -> None
        | Affine _ when Bigint.is_zero k -> None
        | Affine { x; y } ->
            let pj = { jx = x; jy = y; jz = Fp.one fp } in
            let twop = jac_double ctx pj in
            let tbl = Array.make tcount pj in
            for i = 1 to tcount - 1 do
              tbl.(i) <- jac_add ctx tbl.(i - 1) twop
            done;
            if
              Fp.is_zero fp twop.jz
              || Array.exists (fun q -> Fp.is_zero fp q.jz) tbl
            then begin
              plain := add ctx !plain (mul ctx k p);
              None
            end
            else Some (Bigint.wnaf k w, tbl))
      pairs
  in
  match terms with
  | [] -> !plain
  | _ :: _ ->
      let flat = Array.concat (List.map snd terms) in
      let aff = batch_to_affine ctx flat in
      let terms =
        List.mapi
          (fun i (digits, _) -> (digits, Array.sub aff (i * tcount) tcount))
          terms
      in
      (* every digit stream ends on its top nonzero digit *)
      let top =
        List.fold_left
          (fun hi (digits, _) -> Stdlib.max hi (Array.length digits - 1))
          0 terms
      in
      let r = jregs_acquire fp in
      jset_infinity fp r;
      for i = top downto 0 do
        jdouble_in ctx r;
        List.iter
          (fun (digits, tbl) ->
            if i < Array.length digits then begin
              let d = digits.(i) in
              if d <> 0 then begin
                let tx, ty = tbl.((Stdlib.abs d - 1) / 2) in
                if d < 0 then begin
                  Fp.Mut.neg_into fp r.tn ty;
                  jadd_affine_in ctx r ~x2:tx ~y2:r.tn
                end
                else jadd_affine_in ctx r ~x2:tx ~y2:ty
              end
            end)
          terms
      done;
      let acc = jregs_to_affine ctx r in
      jregs_release r;
      add ctx acc !plain

(* Fixed-base precomputation (Yao/BGMW style): for a base P used with many
   scalars, store every multiple m * 2^(j*w) * P (1 <= m < 2^w) in affine
   form. A scalar multiplication is then at most d = ceil(bits/w) mixed
   additions and no doublings at all. *)
module Table = struct
  type table = {
    ctx : ctx;
    base : point;
    bits : int;
    w : int;
    (* windows.(j).(m-1) = (m * 2^(j*w)) * base in affine coordinates;
       [||] marks a degenerate base (infinity or low order) for which we
       always fall back to the generic multiplication. *)
    windows : (Fp.t * Fp.t) array array;
  }

  type t = table

  let create ?(w = 4) ctx ~bits base =
    if w < 1 || w > 8 then invalid_arg "Curve.Table.create: bad window width";
    if bits < 1 then invalid_arg "Curve.Table.create: bad bit bound";
    match base with
    | Infinity -> { ctx; base; bits; w; windows = [||] }
    | Affine { x; y } ->
        let fp = ctx.fp in
        let d = (bits + w - 1) / w in
        let per = (1 lsl w) - 1 in
        let rows = Array.make d [||] in
        let cur = ref { jx = x; jy = y; jz = Fp.one fp } in
        for j = 0 to d - 1 do
          let row = Array.make per !cur in
          for m = 1 to per - 1 do
            row.(m) <- jac_add ctx row.(m - 1) !cur
          done;
          rows.(j) <- row;
          if j < d - 1 then
            for _ = 1 to w do
              cur := jac_double ctx !cur
            done
        done;
        if
          (* Only low-order bases can hit infinity here: for an order-q
             base with prime q > 2^w every table entry is a nonzero
             multiple of a point of odd prime order. *)
          Array.exists (Array.exists (fun q -> Fp.is_zero fp q.jz)) rows
        then { ctx; base; bits; w; windows = [||] }
        else begin
          let flat = Array.concat (Array.to_list rows) in
          let aff = batch_to_affine ctx flat in
          let windows = Array.init d (fun j -> Array.sub aff (j * per) per) in
          { ctx; base; bits; w; windows }
        end

  (* [mul] is not recursive, so [mul ctx k p] below still refers to the
     ladder from the enclosing module. *)
  let mul t k =
    let negate = Bigint.sign k < 0 in
    let k = Bigint.abs k in
    if Bigint.is_zero k then Infinity
    else if Array.length t.windows = 0 || Bigint.bit_length k > t.bits then begin
      let p = mul t.ctx k t.base in
      if negate then neg t.ctx p else p
    end
    else begin
      let fp = t.ctx.fp in
      let r = jregs_acquire fp in
      jset_infinity fp r;
      for j = 0 to Array.length t.windows - 1 do
        (* Digit m = bits [j*w, (j+1)*w) of k. *)
        let m = ref 0 in
        for b = t.w - 1 downto 0 do
          m := (!m lsl 1) lor (if Bigint.test_bit k ((j * t.w) + b) then 1 else 0)
        done;
        if !m > 0 then begin
          let x2, y2 = t.windows.(j).(!m - 1) in
          jadd_affine_in t.ctx r ~x2 ~y2
        end
      done;
      let p = jregs_to_affine t.ctx r in
      jregs_release r;
      if negate then neg t.ctx p else p
    end
end

let group_order ctx = Bigint.succ (Fp.modulus ctx.fp)

let lift_x ctx x =
  let fp = ctx.fp in
  match Fp.sqrt fp (rhs ctx x) with
  | None -> None
  | Some y ->
      let y' = Fp.neg fp y in
      let a = Affine { x; y } and b = Affine { x; y = y' } in
      if Bigint.compare (Fp.to_bigint fp y) (Fp.to_bigint fp y') <= 0 then
        Some (a, b)
      else Some (b, a)

let byte_length ctx = 1 + Fp.byte_length ctx.fp

let to_bytes ctx = function
  | Infinity -> "\x00"
  | Affine { x; y } ->
      let parity = if Bigint.is_odd (Fp.to_bigint ctx.fp y) then '\x03' else '\x02' in
      String.make 1 parity ^ Fp.to_bytes ctx.fp x

let of_bytes ctx s =
  if s = "\x00" then Some Infinity
  else if String.length s <> byte_length ctx then None
  else begin
    match s.[0] with
    | ('\x02' | '\x03') as tag -> (
        match Fp.of_bytes ctx.fp (String.sub s 1 (String.length s - 1)) with
        | None -> None
        | Some x -> (
            match lift_x ctx x with
            | None -> None
            | Some (a, b) -> (
                let want_odd = tag = '\x03' in
                let parity_of = function
                  | Affine { y; _ } -> Bigint.is_odd (Fp.to_bigint ctx.fp y)
                  | Infinity -> assert false
                in
                match (parity_of a = want_odd, parity_of b = want_odd) with
                | true, _ -> Some a
                | _, true -> Some b
                | false, false -> None)))
    | _ -> None
  end

let pp ctx fmt = function
  | Infinity -> Format.pp_print_string fmt "O"
  | Affine { x; y } ->
      Format.fprintf fmt "(%a, %a)" (Fp.pp ctx.fp) x (Fp.pp ctx.fp) y
