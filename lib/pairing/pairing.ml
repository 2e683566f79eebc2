type family = Y2_x3_x | Y2_x3_1

(* --- prepared pairings: precomputed Miller-loop line functions ---

   The line functions of Miller's algorithm depend only on the first
   pairing argument P (they are the tangent/chord lines of the running
   multiple of P); the second argument merely evaluates them. A [prepared]
   value stores the line coefficients of the whole loop so that pairings
   against a fixed P cost only the evaluations — no point arithmetic and
   no per-step field inversion. *)

(* A recorded schedule is the whole Miller loop over the NAF of q
   flattened into two kernel-resident arrays: [ops] lists the accumulator
   operations in order (0 = square f, 1 = multiply f by the next
   recorded line), and [lines] holds the line coefficients as
   consecutive (a0, ax) PAIRS of canonical residues. Lines are evaluated
   at a point (-xq, i yq) with xq, yq in GF(p): phi(Q) itself on the
   y^2 = x^3 + x family, the trace-zero image of phi(Q) on y^2 = x^3 + 1
   (see [x1_images]). Verticals there lie in GF(p) and are skipped. The
   recorded tangent/chord line (l0 + lx*xq) + (ly*yq) i is divided
   through by its (nonzero, GF(p)) y-coefficient at preparation time —
   one Montgomery batch inversion for the whole schedule — so evaluation
   is (a0 + ax*xq) + yq i: one base-field multiplication per line instead
   of two, and no multiply for the imaginary part. The dropped factor ly
   lies in GF(p)*, which the final exponentiation annihilates, so pairing
   values are unchanged. A flat spine with no options and no per-step
   records: evaluation is one cache-friendly pass over two arrays. [fam]
   is the family the schedule was recorded for; [pt] keeps the first
   argument itself, for an xx product that has to run on the reference
   loop because another of its slots is degenerate. *)
type schedule = {
  fam : family;
  pt : Curve.point;
  ops : int array;
  lines : Fp.t array;
}

(* [Prep_live P] records no schedule: P walks live in every product
   holding it. That is a y^2 = x^3 + x point whose NAF walk degenerates
   (low order only; the walk then sends the product to the reference
   loop), or a y^2 = x^3 + 1 point outside G1, for which the trace-zero
   evaluation is not exact. *)
type prepared = Prep_inf | Prep_sched of schedule | Prep_live of Curve.point

type params = {
  name : string;
  family : family;
  p : Bigint.t;
  q : Bigint.t;
  cofactor : Bigint.t;
  fp : Fp.ctx;
  curve : Curve.ctx;
  g : Curve.point;
  final_exp : Bigint.t;
  zeta : Fp2.t;
  q_naf : int array;
  cofactor_wnaf : int array;
  g_table : Curve.Table.t;
  g_prep : prepared;
}

let scalar_bytes prms = (Bigint.bit_length prms.q + 7) / 8
let point_bytes prms = Curve.byte_length prms.curve
let gt_bytes prms = 2 * Fp.byte_length prms.fp

(* --- H1: hash to the order-q subgroup, try-and-increment --- *)

(* The pre-clamping lift: hash to a curve point (of unconstrained order)
   by try-and-increment. Returns the chosen point together with the
   counter that produced it, so the cofactor-clearing caller can resume
   the very same counter sequence if clearing lands on infinity. *)
let lift_to_curve ~fp ~curve msg ctr0 =
  let fp_bytes = Fp.byte_length fp in
  let rec attempt ctr =
    if ctr > 1000 then failwith "hash_to_g1: no point found (broken parameters?)";
    (* One extra byte drives the choice between the two square roots. *)
    let seed = Printf.sprintf "TRE-H1|%d|%s" ctr msg in
    let stream = Hashing.Kdf.mask seed (fp_bytes + 1) in
    let x = Fp.of_bigint fp (Bigint.of_bytes_be (String.sub stream 0 fp_bytes)) in
    match Curve.lift_x curve x with
    | None -> attempt (ctr + 1)
    | Some (lo, hi) ->
        let point = if Char.code stream.[fp_bytes] land 1 = 0 then lo else hi in
        (point, ctr)
  in
  attempt ctr0

let hash_to_g1_raw ~fp ~curve ~cofactor msg =
  let rec go ctr0 =
    let point, ctr = lift_to_curve ~fp ~curve msg ctr0 in
    let clamped = Curve.mul curve cofactor point in
    if Curve.is_infinity clamped then go (ctr + 1) else clamped
  in
  go 0

(* --- parameter construction --- *)

(* A primitive cube root of unity in GF(p^2) = GF(p)[i], available when
   p = 2 (mod 3): zeta = (-1 + sqrt(-3)) / 2 with sqrt(-3) = sqrt(3) * i
   (3 is a QR exactly when -3 is not, which holds for p = 11 mod 12). *)
let cube_root_of_unity fp =
  match Fp.sqrt fp (Fp.of_int fp 3) with
  | None -> invalid_arg "Pairing.make: sqrt(3) missing (p not 11 mod 12?)"
  | Some root3 ->
      let half = Fp.inv fp (Fp.of_int fp 2) in
      let zeta =
        Fp2.make
          ~re:(Fp.mul fp (Fp.of_int fp (-1)) half)
          ~im:(Fp.mul fp root3 half)
      in
      (* zeta^2 + zeta + 1 = 0 guarantees primitivity. *)
      if
        not
          (Fp2.is_zero fp
             (Fp2.add fp (Fp2.add fp (Fp2.sqr fp zeta) zeta) (Fp2.one fp)))
      then invalid_arg "Pairing.make: cube root of unity check failed";
      zeta

(* --- signed-digit Miller schedules ---

   The production Miller loop for the x^3 + x family (the product
   kernel's walkers, and [record_naf] behind [prepare] on both families)
   walks a
   left-to-right signed-digit (non-adjacent form) schedule: the NAF of q
   has ~bits/3 nonzero digits against ~bits/2 set bits, and denominator
   elimination makes a negative digit exactly as cheap as a positive one
   — the chord through T and -P, with -P = (xp, -yp), is one more scaled
   line whose vertical cofactor lies in GF(p). The reference loop
   [miller_loop_xx_ref] stays on the plain binary schedule; the two
   chains compute the same Miller function up to GF(p)* factors, so the
   pairing values agree bit-for-bit after the final exponentiation —
   which is what the differential tests and [bench --smoke] pin.

   [wnaf_msb n w]: {!Bigint.wnaf} read most significant digit first, so
   the leading digit is positive. w = 2 is the classic NAF driving the
   Miller loops; w = 5 recodes the final-exponentiation cofactor, whose
   negative digits cost nothing because inversion in the norm-1 subgroup
   is conjugation. *)
let wnaf_msb n w =
  let d = Bigint.wnaf n w in
  let l = Array.length d in
  Array.init l (fun i -> d.(l - 1 - i))

(* Raised by the signed-digit walkers on the one degenerate case they do
   not model: an addition step whose operands coincide (T = dP with
   chord slope 0/0 — a doubling in disguise). It needs ord(P) | k - d
   for some NAF prefix k of q, so only low-order inputs reach it, never
   order-q points. The product kernel then computes the whole product on
   the reference loop. Every other degeneracy (2-torsion tangent, running
   point at infinity, vertical chord) contributes only GF(p) factors and
   is handled in-line on both schedules. *)
exception Degenerate_chain

(* --- building prepared pairings ---

   Recording walks the NAF of q as the xx product kernel's walkers below
   do, keeping the line coefficients instead of evaluating them. Field
   values are canonical (normalized Montgomery residues), so evaluating a
   prepared pairing later agrees with the live pairing after the final
   exponentiation. *)

type miller_state = { mx : Fp.t; my : Fp.t; mz : Fp.t }

(* Record the flat (ops, lines) schedule of the Miller loop of the
   affine point (xp, yp) over the NAF of q; [keep] is stored as the
   schedule's first argument. The tangent's M = 3X^2 + aZ^4 carries the
   curve's a (1 on y^2 = x^3 + x, 0 on y^2 = x^3 + 1); every other
   formula is the same on both families. Raises [Degenerate_chain] on
   coincident addition operands, as the live xx walker does. *)
let record_naf prms ~keep ~xp ~yp =
  let fp = prms.fp in
  let digits = prms.q_naf in
  let a1 = prms.family = Y2_x3_x in
  let ypn = Fp.neg fp yp in
  let one = Fp.one fp in
  let ops = ref [] and nops = ref 0 in
  let lines = ref [] and nlines = ref 0 in
  let emit_sqr () = incr nops; ops := 0 :: !ops in
  let emit_line l0 lx ly =
    incr nops;
    ops := 1 :: !ops;
    nlines := !nlines + 3;
    lines := ly :: lx :: l0 :: !lines
  in
  let t = ref { mx = xp; my = yp; mz = one } in
  for i = 1 to Array.length digits - 1 do
    emit_sqr ();
    (let { mx = x; my = y; mz = z } = !t in
     if Fp.is_zero fp z then ()
     else if Fp.is_zero fp y then
       t := { mx = one; my = one; mz = Fp.zero fp }
     else begin
       let y2 = Fp.sqr fp y in
       let z2 = Fp.sqr fp z in
       let x2 = Fp.sqr fp x in
       let m = Fp.add fp (Fp.add fp x2 x2) x2 in
       let m = if a1 then Fp.add fp m (Fp.sqr fp z2) else m in
       let w = Fp.mul fp (Fp.add fp y y) z in
       let l0 = Fp.sub fp (Fp.mul fp m x) (Fp.add fp y2 y2) in
       let lx = Fp.mul fp m z2 in
       let ly = Fp.mul fp w z2 in
       let s =
         let xy2 = Fp.mul fp x y2 in
         let d = Fp.add fp xy2 xy2 in
         Fp.add fp d d
       in
       let x' = Fp.sub fp (Fp.sqr fp m) (Fp.add fp s s) in
       let y4_8 =
         let y4 = Fp.sqr fp y2 in
         let d = Fp.add fp y4 y4 in
         let d = Fp.add fp d d in
         Fp.add fp d d
       in
       let y' = Fp.sub fp (Fp.mul fp m (Fp.sub fp s x')) y4_8 in
       t := { mx = x'; my = y'; mz = w };
       emit_line l0 lx ly
     end);
    let d = digits.(i) in
    if d <> 0 then begin
      let yp' = if d > 0 then yp else ypn in
      let { mx = x; my = y; mz = z } = !t in
      if Fp.is_zero fp z then t := { mx = xp; my = yp'; mz = one }
      else begin
        let z2 = Fp.sqr fp z in
        let u2 = Fp.mul fp xp z2 in
        let s2 = Fp.mul fp yp' (Fp.mul fp z2 z) in
        let h = Fp.sub fp u2 x in
        let r = Fp.sub fp s2 y in
        if Fp.is_zero fp h then begin
          if Fp.is_zero fp r then raise Degenerate_chain
          else t := { mx = one; my = one; mz = Fp.zero fp }
        end
        else begin
          let z' = Fp.mul fp z h in
          let l0 = Fp.sub fp (Fp.mul fp r xp) (Fp.mul fp z' yp') in
          let h2 = Fp.sqr fp h in
          let h3 = Fp.mul fp h2 h in
          let xh2 = Fp.mul fp x h2 in
          let x' = Fp.sub fp (Fp.sub fp (Fp.sqr fp r) h3) (Fp.add fp xh2 xh2) in
          let y' = Fp.sub fp (Fp.mul fp r (Fp.sub fp xh2 x')) (Fp.mul fp y h3) in
          t := { mx = x'; my = y'; mz = z' };
          emit_line l0 r z'
        end
      end
    end
  done;
  let ops_arr = Array.make !nops 0 in
  let rec fill_ops i = function
    | [] -> ()
    | o :: rest -> ops_arr.(i) <- o; fill_ops (i - 1) rest
  in
  fill_ops (!nops - 1) !ops;
  let zero = Fp.zero fp in
  let lines_arr = Array.make (Stdlib.max 1 !nlines) zero in
  let rec fill_lines i = function
    | [] -> ()
    | l :: rest -> lines_arr.(i) <- l; fill_lines (i - 1) rest
  in
  fill_lines (!nlines - 1) !lines;
  (* Divide every line by its ly (= W Z^2 or Z', nonzero in both
     emitting branches): ONE field inversion via the Montgomery
     batch trick, then two muls per line to store (l0/ly, lx/ly). *)
  let nl = !nlines / 3 in
  let scaled = Array.make (Stdlib.max 1 (2 * nl)) zero in
  if nl > 0 then begin
    let prefix = Array.make nl one in
    let acc = ref one in
    for i = 0 to nl - 1 do
      prefix.(i) <- !acc;
      acc := Fp.mul fp !acc lines_arr.((3 * i) + 2)
    done;
    let suffix = ref (Fp.inv fp !acc) in
    for i = nl - 1 downto 0 do
      let ly_inv = Fp.mul fp !suffix prefix.(i) in
      suffix := Fp.mul fp !suffix lines_arr.((3 * i) + 2);
      scaled.(2 * i) <- Fp.mul fp lines_arr.(3 * i) ly_inv;
      scaled.((2 * i) + 1) <- Fp.mul fp lines_arr.((3 * i) + 1) ly_inv
    done
  end;
  { fam = prms.family; pt = keep; ops = ops_arr; lines = scaled }

(* On y^2 = x^3 + x the schedule is P's own. On y^2 = x^3 + 1 it is
   recorded for P' = [(q+1)/2]P and evaluated at the trace-zero image of
   phi(Q) (see [x1_images]), which yields e(P', Q)^2 = e(P, Q) — exact for
   P in G1 only, so any other point is left to walk live. *)
let prepare_raw prms pt =
  match pt with
  | Curve.Infinity -> Prep_inf
  | Curve.Affine _ -> (
      let walk =
        match prms.family with
        | Y2_x3_x -> Some pt
        | Y2_x3_1 ->
            if Curve.mul_is_infinity prms.curve prms.q pt then
              Some (Curve.mul prms.curve (Bigint.shift_right (Bigint.succ prms.q) 1) pt)
            else None
      in
      match walk with
      | Some (Curve.Affine w) -> (
          try Prep_sched (record_naf prms ~keep:pt ~xp:w.x ~yp:w.y)
          with Degenerate_chain -> Prep_live pt)
      | Some Curve.Infinity | None -> Prep_live pt)

let prepare prms pt =
  (* Every long-lived verifier prepares the system generator (it is one
     side of the paper's verification equation); hand back the
     construction-time schedule instead of re-recording it. *)
  if Curve.equal pt prms.g then prms.g_prep else prepare_raw prms pt

let make ?(family = Y2_x3_x) ~name ~p ~q () =
  if not (Prime.is_probably_prime p) then invalid_arg "Pairing.make: p not prime";
  if not (Prime.is_probably_prime q) then invalid_arg "Pairing.make: q not prime";
  if not (Bigint.equal (Bigint.erem p (Bigint.of_int 4)) (Bigint.of_int 3)) then
    invalid_arg "Pairing.make: p must be 3 mod 4";
  if
    family = Y2_x3_1
    && not (Bigint.equal (Bigint.erem p (Bigint.of_int 3)) (Bigint.of_int 2))
  then invalid_arg "Pairing.make: p must be 2 mod 3 for the x^3 + 1 family";
  let order = Bigint.succ p in
  let cofactor, rem = Bigint.divmod order q in
  if not (Bigint.is_zero rem) then invalid_arg "Pairing.make: q does not divide p+1";
  if Bigint.is_zero (Bigint.erem cofactor q) then
    invalid_arg "Pairing.make: q^2 divides p+1 (G1 would not be cyclic of order q)";
  let fp = Fp.create p in
  let curve =
    match family with
    | Y2_x3_x -> Curve.create ~a:1 ~b:0 fp
    | Y2_x3_1 -> Curve.create ~a:0 ~b:1 fp
  in
  let g = hash_to_g1_raw ~fp ~curve ~cofactor ("TRE-generator|" ^ name) in
  if not (Curve.mul_is_infinity curve q g) then
    invalid_arg "Pairing.make: generator does not have order q";
  let final_exp = Bigint.div (Bigint.pred (Bigint.mul p p)) q in
  let zeta = match family with Y2_x3_x -> Fp2.one fp | Y2_x3_1 -> cube_root_of_unity fp in
  (* Signed-digit recodings fixed by the parameters: the NAF of q drives
     the xx-family Miller walk (live and recorded), the wNAF of the
     cofactor drives the cyclotomic final-exponentiation window. The
     width is chosen by costing each candidate recoding of THIS cofactor
     rather than by a bit-length threshold — the threshold form
     mispicked for cofactors whose digit pattern doesn't match their size
     class (mid128b sat below 1.0x against the reference for a full PR).
     The model charges
     a cyclotomic squaring per chain step at 0.7x the price of a
     multiplication (two base-field squarings vs three multiplications,
     measured), one multiplication per nonzero digit past the first, and
     the odd-power table build (one squaring plus tsize-1 products) when
     any digit exceeds 1. The exponent is fixed per parameter set, so
     the scan costs nothing on any hot path. *)
  let q_naf = wnaf_msb q 2 in
  let cofactor_wnaf =
    let cost digits =
      let n = Array.length digits in
      if n = 0 then 0
      else begin
        let nz = ref 0 and maxd = ref 1 in
        Array.iter
          (fun d ->
            if d <> 0 then incr nz;
            if abs d > !maxd then maxd := abs d)
          digits;
        let tsize = (!maxd + 1) / 2 in
        let table = if tsize > 1 then 7 + ((tsize - 1) * 10) else 0 in
        ((n - 1) * 7) + ((!nz - 1) * 10) + table
      end
    in
    (* Width 5 is the ceiling: the per-domain register file holds eight
       odd powers (digits to 15), and no candidate exponent size here
       amortizes a 16-entry table anyway. *)
    let best = ref (wnaf_msb cofactor 2) in
    for w = 3 to 5 do
      let cand = wnaf_msb cofactor w in
      if cost cand < cost !best then best := cand
    done;
    !best
  in
  let base =
    {
      name; family; p; q; cofactor; fp; curve; g; final_exp; zeta;
      q_naf; cofactor_wnaf;
      g_table = Curve.Table.create curve ~bits:(Bigint.bit_length q) g;
      g_prep = Prep_inf;
    }
  in
  (* Recording a schedule needs a params value; [prepare_raw] never reads
     [g_prep], so the placeholder is never seen. *)
  { base with g_prep = prepare_raw base g }

let hash_to_g1 prms msg =
  hash_to_g1_raw ~fp:prms.fp ~curve:prms.curve ~cofactor:prms.cofactor msg

(* Batch-verification helper: cofactor clearing commutes with linear
   combinations — sum d_i * (h * P_i) = h * (sum d_i * P_i) — so a batch
   can skip the per-item clearing mult, accumulate the raw lifts, and pay
   ONE h-mult on the sum. [hash_to_g1 prms msg] equals
   [cofactor * hash_to_g1_unclamped prms msg] for every input on which the
   clamped lift is nonzero; the exception (a lift that cofactor-clears to
   infinity, making hash_to_g1 re-roll its counter) occurs for a uniform
   lift with probability 1/q < 2^-64 and has never been observed for any
   named parameter set. *)
let hash_to_g1_unclamped prms msg =
  fst (lift_to_curve ~fp:prms.fp ~curve:prms.curve msg 0)

(* --- named parameter sets (generated by bin/paramgen, fixed seed) --- *)

let named = Hashtbl.create 4

(* The named-set cells stay lazy (building all five sets eagerly at
   module init would be wasteful), so forcing them must be serialized:
   without the mutex, two domains racing on the same first lookup hit the
   non-domain-safe [Lazy.force]. *)
let named_lock = Mutex.create ()
let force_cell cell = Mutex.protect named_lock (fun () -> Lazy.force cell)

let def_params ?family name ~p ~q =
  let cell =
    lazy (make ?family ~name ~p:(Bigint.of_string p) ~q:(Bigint.of_string q) ())
  in
  Hashtbl.replace named name cell;
  fun () -> force_cell cell

(* Constants below were produced by `dune exec bin/paramgen.exe` with the
   fixed seed "tre-paramgen-v1"; rerunning reproduces them bit-for-bit. *)

let toy64 =
  def_params "toy64"
    ~p:"0x83b0f2e27d38d3059d8287"
    ~q:"0xa2a8bbf28af65885"

let mid128 =
  def_params "mid128"
    ~p:"0xb79115a77944f9886a70613fce8e6e3b8571621ea5b5480d8686c27f4c3b5887"
    ~q:"0xe98ebd8df920bb4a05b328cd34075865"

let std160 =
  def_params "std160"
    ~p:"0xbc0030fbac55acabef9c398bc82fc33ede111d05bca74d8cd9a93ca897ec078881ddf52c66c1ebb0af9ec6c8308f58b5331ed7cc800c09ab2ef43019363c9883"
    ~q:"0xd1554dbf6d534c8896055e5b9c06157212777ca9"

let by_name name =
  match Hashtbl.find_opt named name with
  | Some cell -> Some (force_cell cell)
  | None -> None

let toy64b =
  def_params ~family:Y2_x3_1 "toy64b"
    ~p:"0x98cc26f8648a2ff1d5b3e3"
    ~q:"0xdb0fda9fdb5f5101"

let mid128b =
  def_params ~family:Y2_x3_1 "mid128b"
    ~p:"0xb8ed1956306ea251201fc874f4780a1184fc8c6a726b5203ec8c2accf057d433"
    ~q:"0xc341683dcdb86ede42971406d55325d7"

let all_names = [ "toy64"; "mid128"; "std160"; "toy64b"; "mid128b" ]

(* --- scalars and GT --- *)

let random_scalar prms rng =
  Bigint.random_in_range rng ~lo:Bigint.one ~hi:(Bigint.pred prms.q)

(* Small exponents for Bellare–Garay–Rabin batch verification,
   derandomized: the DRBG is keyed by the caller-supplied seed, which by
   convention serializes the whole batch plus the verification key. An
   adversary who tampers with any batch element thereby re-randomizes
   every exponent (the Fiat–Shamir heuristic, sound in the random-oracle
   model this paper already lives in), so a crafted combination of errors
   cancels with probability ~2^-64 per attempt. Exponents are in
   [1, 2^64], never zero — a zero exponent would drop its item from the
   check entirely. *)
let batch_exponents (_ : params) ~seed n =
  let rng =
    Hashing.Drbg.create ~seed ~personalization:"TRE-batch-exponents" ()
  in
  List.init n (fun _ ->
      Bigint.succ (Bigint.of_bytes_be (Hashing.Drbg.generate rng 8)))

let gt_mul prms a b = Fp2.mul prms.fp a b
let gt_pow prms a n = Fp2.pow prms.fp a n
let gt_inv prms a = Fp2.inv prms.fp a
let gt_equal = Fp2.equal
let gt_one prms = Fp2.one prms.fp

(* --- the modified Tate pairing ---

   Miller's algorithm in Jacobian coordinates with denominator
   elimination, evaluated at the distorted point phi(Q) = (-xq, i*yq).
   With embedding degree 2, any factor of the Miller value lying in
   GF(p)* is annihilated by the final exponentiation ((p-1) divides the
   exponent), which licenses two optimizations used here:
   - vertical lines are skipped entirely;
   - line values are scaled by their (GF(p)) denominators, so the loop
     needs no field inversion at all.

   The final exponentiation (p^2-1)/q = (p-1) * h factors through the
   Frobenius: f^(p-1) = conj(f) / f, leaving only a pow by the (much
   shorter) cofactor h. *)

(* The Miller function f_{q,P}(phi Q) for the y^2 = x^3 + x family,
   before final exponentiation, on the binary schedule of q. Functional
   reference path: allocates a fresh element per field operation. The
   product kernel's NAF walk differs from it only by GF(p)* factors, so
   the two agree after the final exponentiation, which the equivalence
   tests and [bench --smoke] assert; a product holding a degenerate slot
   is computed on this loop outright. *)
let miller_loop_xx_ref prms pt qt =
  let fp = prms.fp in
  match (pt, qt) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one fp
  | Curve.Affine p', Curve.Affine q' ->
      let xp = p'.x and yp = p'.y in
      let xq = q'.x and yq = q'.y in
      let one = Fp.one fp in
      let f = ref (Fp2.one fp) in
      let t = ref { mx = xp; my = yp; mz = one } in
      let bits = Bigint.bit_length prms.q in
      for i = bits - 2 downto 0 do
        let { mx = x; my = y; mz = z } = !t in
        f := Fp2.sqr fp !f;
        if Fp.is_zero fp z then ()
        else if Fp.is_zero fp y then
          (* 2-torsion: vertical tangent, contributes a GF(p) factor. *)
          t := { mx = one; my = one; mz = Fp.zero fp }
        else begin
          (* Doubling step with scaled tangent-line evaluation:
             M = 3X^2 + Z^4, W = 2YZ (= new Z);
             l = [M*(Z^2 xq + X) - 2Y^2] + (W Z^2 yq) i. *)
          let y2 = Fp.sqr fp y in
          let z2 = Fp.sqr fp z in
          let x2 = Fp.sqr fp x in
          let m = Fp.add fp (Fp.add fp (Fp.add fp x2 x2) x2) (Fp.sqr fp z2) in
          let w = Fp.mul fp (Fp.add fp y y) z in
          let re =
            Fp.sub fp
              (Fp.mul fp m (Fp.add fp (Fp.mul fp z2 xq) x))
              (Fp.add fp y2 y2)
          in
          let im = Fp.mul fp (Fp.mul fp w z2) yq in
          f := Fp2.mul fp !f (Fp2.make ~re ~im);
          (* Complete the doubling. *)
          let s =
            let xy2 = Fp.mul fp x y2 in
            let d = Fp.add fp xy2 xy2 in
            Fp.add fp d d
          in
          let x' = Fp.sub fp (Fp.sqr fp m) (Fp.add fp s s) in
          let y4_8 =
            let y4 = Fp.sqr fp y2 in
            let d = Fp.add fp y4 y4 in
            let d = Fp.add fp d d in
            Fp.add fp d d
          in
          let y' = Fp.sub fp (Fp.mul fp m (Fp.sub fp s x')) y4_8 in
          t := { mx = x'; my = y'; mz = w }
        end;
        if Bigint.test_bit prms.q i then begin
          let { mx = x; my = y; mz = z } = !t in
          if Fp.is_zero fp z then t := { mx = xp; my = yp; mz = one }
          else begin
            (* Mixed addition with scaled chord-line evaluation:
               H = xp Z^2 - X, R = yp Z^3 - Y, Z' = Z H;
               l = [R*(xq + xp) - Z' yp] + (Z' yq) i. *)
            let z2 = Fp.sqr fp z in
            let u2 = Fp.mul fp xp z2 in
            let s2 = Fp.mul fp yp (Fp.mul fp z2 z) in
            let h = Fp.sub fp u2 x in
            let r = Fp.sub fp s2 y in
            if Fp.is_zero fp h then
              (* T = +-P: the chord is vertical (or tangent at P, which
                 cannot occur for prime q > 2 mid-loop); GF(p) factor. *)
              t :=
                (if Fp.is_zero fp r then !t (* unreachable for prime q *)
                 else { mx = one; my = one; mz = Fp.zero fp })
            else begin
              let z' = Fp.mul fp z h in
              let re = Fp.sub fp (Fp.mul fp r (Fp.add fp xq xp)) (Fp.mul fp z' yp) in
              let im = Fp.mul fp z' yq in
              f := Fp2.mul fp !f (Fp2.make ~re ~im);
              let h2 = Fp.sqr fp h in
              let h3 = Fp.mul fp h2 h in
              let xh2 = Fp.mul fp x h2 in
              let x' = Fp.sub fp (Fp.sub fp (Fp.sqr fp r) h3) (Fp.add fp xh2 xh2) in
              let y' = Fp.sub fp (Fp.mul fp r (Fp.sub fp xh2 x')) (Fp.mul fp y h3) in
              t := { mx = x'; my = y'; mz = z' }
            end
          end
        end
      done;
      !f

(* --- the xx-family NAF walker ---

   The signed-digit Miller step of one live first argument, on the
   in-place {!Fp.Mut} / {!Fp2.Mut} kernels; the product kernel below
   drives one walker per live pair under one shared f^2 squaring chain.
   A walker owns its Jacobian accumulator (mx, my, mz) and the negated
   y (ypn); the temporaries u0..u5 and the line-value buffers are
   transient within one step and shared across all walkers of a
   product. Each step folds its line values into the caller's f through
   the in-place {!Fp2.Mut} product. *)

type xx_walker = {
  w_xp : Fp.t;
  w_yp : Fp.t;
  w_ypn : Fp.t; (* owned: -yp *)
  w_xq : Fp.t;
  w_yq : Fp.t;
  w_mx : Fp.t; (* owned register file: Jacobian T *)
  w_my : Fp.t;
  w_mz : Fp.t;
}

(* Transient step scratch, shared by every walker of one Miller product
   (each walker finishes its step before the next one starts). *)
type xx_scratch = {
  u0 : Fp.t;
  u1 : Fp.t;
  u2 : Fp.t;
  u3 : Fp.t;
  u4 : Fp.t;
  u5 : Fp.t;
  lre : Fp.t;
  lim : Fp.t;
  line : Fp2.t; (* { re = lre; im = lim } *)
}

let xx_scratch_alloc fp =
  let lre = Fp.Mut.alloc fp and lim = Fp.Mut.alloc fp in
  {
    u0 = Fp.Mut.alloc fp;
    u1 = Fp.Mut.alloc fp;
    u2 = Fp.Mut.alloc fp;
    u3 = Fp.Mut.alloc fp;
    u4 = Fp.Mut.alloc fp;
    u5 = Fp.Mut.alloc fp;
    lre;
    lim;
    line = Fp2.make ~re:lre ~im:lim;
  }

let xx_walker_make fp ~xp ~yp ~xq ~yq =
  let ypn = Fp.Mut.alloc fp in
  Fp.Mut.neg_into fp ypn yp;
  let mz = Fp.Mut.alloc fp in
  Fp.Mut.set_one fp mz;
  {
    w_xp = xp;
    w_yp = yp;
    w_ypn = ypn;
    w_xq = xq;
    w_yq = yq;
    w_mx = Fp.Mut.copy fp xp;
    w_my = Fp.Mut.copy fp yp;
    w_mz = mz;
  }

(* One signed digit of one walker: the doubling (with scaled tangent
   line folded into [f]) and, for a nonzero digit, the mixed addition of
   dP = (xp, +-yp) (with scaled chord line). Raises [Degenerate_chain]
   on coincident addition operands — low-order inputs only. *)
let xx_step fp sc w f d =
  let { u0; u1; u2; u3; u4; u5; lre; lim; line } = sc in
  let mx = w.w_mx and my = w.w_my and mz = w.w_mz in
  let xp = w.w_xp and xq = w.w_xq and yq = w.w_yq in
  let set_torsion () =
    Fp.Mut.set_one fp mx;
    Fp.Mut.set_one fp my;
    Fp.Mut.set_zero fp mz
  in
  if Fp.is_zero fp mz then ()
  else if Fp.is_zero fp my then set_torsion ()
  else begin
    (* Doubling with scaled tangent line, as in [miller_loop_xx_ref]:
       M = 3X^2 + Z^4, W = 2YZ;
       l = [M*(Z^2 xq + X) - 2Y^2] + (W Z^2 yq) i. *)
    Fp.Mut.sqr_into fp u0 my; (* u0 = Y^2 *)
    Fp.Mut.sqr_into fp u1 mz; (* u1 = Z^2 *)
    Fp.Mut.sqr_into fp u2 mx; (* u2 = X^2 *)
    Fp.Mut.add_into fp u3 u2 u2;
    Fp.Mut.add_into fp u3 u3 u2; (* u3 = 3X^2 *)
    Fp.Mut.sqr_into fp u4 u1;
    Fp.Mut.add_into fp u3 u3 u4; (* u3 = M *)
    Fp.Mut.add_into fp u4 my my;
    Fp.Mut.mul_into fp mz u4 mz; (* Z' = W = 2YZ; old Z^2 lives in u1 *)
    Fp.Mut.mul_into fp u4 u1 xq;
    Fp.Mut.add_into fp u4 u4 mx;
    Fp.Mut.mul_into fp u4 u3 u4;
    Fp.Mut.add_into fp u5 u0 u0;
    Fp.Mut.sub_into fp lre u4 u5; (* re = M(Z^2 xq + X) - 2Y^2 *)
    Fp.Mut.mul_into fp u4 mz u1;
    Fp.Mut.mul_into fp lim u4 yq; (* im = W Z^2 yq *)
    Fp2.Mut.mul_into fp f f line;
    (* Complete the doubling. *)
    Fp.Mut.mul_into fp u4 mx u0;
    Fp.Mut.add_into fp u4 u4 u4;
    Fp.Mut.add_into fp u4 u4 u4; (* u4 = s = 4XY^2 *)
    Fp.Mut.sqr_into fp u2 u3;
    Fp.Mut.sub_into fp u2 u2 u4;
    Fp.Mut.sub_into fp u2 u2 u4; (* u2 = X' = M^2 - 2s *)
    Fp.Mut.sqr_into fp u0 u0;
    Fp.Mut.add_into fp u0 u0 u0;
    Fp.Mut.add_into fp u0 u0 u0;
    Fp.Mut.add_into fp u0 u0 u0; (* u0 = 8Y^4 *)
    Fp.Mut.sub_into fp u4 u4 u2;
    Fp.Mut.mul_into fp u4 u3 u4;
    Fp.Mut.sub_into fp u4 u4 u0; (* u4 = Y' = M(s - X') - 8Y^4 *)
    Fp.Mut.set fp mx u2;
    Fp.Mut.set fp my u4
  end;
  if d <> 0 then begin
    (* The digit's point is dP = (xp, +-yp). *)
    let ypd = if d > 0 then w.w_yp else w.w_ypn in
    if Fp.is_zero fp mz then begin
      Fp.Mut.set fp mx xp;
      Fp.Mut.set fp my ypd;
      Fp.Mut.set_one fp mz
    end
    else begin
      (* Mixed addition with scaled chord line:
         H = xp Z^2 - X, R = yp' Z^3 - Y, Z' = Z H;
         l = [R(xq + xp) - Z' yp'] + (Z' yq) i. *)
      Fp.Mut.sqr_into fp u0 mz; (* u0 = Z^2 *)
      Fp.Mut.mul_into fp u1 xp u0;
      Fp.Mut.sub_into fp u1 u1 mx; (* u1 = H *)
      Fp.Mut.mul_into fp u2 u0 mz;
      Fp.Mut.mul_into fp u2 ypd u2;
      Fp.Mut.sub_into fp u2 u2 my; (* u2 = R *)
      if Fp.is_zero fp u1 then begin
        if Fp.is_zero fp u2 then raise Degenerate_chain
        else set_torsion () (* T = -dP: vertical chord, GF(p) factor *)
      end
      else begin
        Fp.Mut.mul_into fp mz mz u1; (* Z' = Z H *)
        Fp.Mut.add_into fp u3 xq xp;
        Fp.Mut.mul_into fp u3 u2 u3;
        Fp.Mut.mul_into fp u4 mz ypd;
        Fp.Mut.sub_into fp lre u3 u4; (* re = R(xq + xp) - Z' yp' *)
        Fp.Mut.mul_into fp lim mz yq; (* im = Z' yq *)
        Fp2.Mut.mul_into fp f f line;
        Fp.Mut.sqr_into fp u3 u1; (* u3 = H^2 *)
        Fp.Mut.mul_into fp u4 u3 u1; (* u4 = H^3 *)
        Fp.Mut.mul_into fp u3 mx u3; (* u3 = X H^2 *)
        Fp.Mut.sqr_into fp u5 u2;
        Fp.Mut.sub_into fp u5 u5 u4;
        Fp.Mut.sub_into fp u5 u5 u3;
        Fp.Mut.sub_into fp u5 u5 u3; (* u5 = X' = R^2 - H^3 - 2XH^2 *)
        Fp.Mut.sub_into fp u3 u3 u5;
        Fp.Mut.mul_into fp u3 u2 u3;
        Fp.Mut.mul_into fp u4 my u4;
        Fp.Mut.sub_into fp u3 u3 u4; (* u3 = Y' = R(XH^2 - X') - Y H^3 *)
        Fp.Mut.set fp mx u5;
        Fp.Mut.set fp my u3
      end
    end
  end

(* The Miller function for the y^2 = x^3 + 1 family, evaluated at the
   distorted point phi(Q) = (zeta xq, yq) with zeta in GF(p^2). Because
   the distorted x-coordinate is a full GF(p^2) element, vertical lines do
   NOT collapse into GF(p), so denominator elimination is unavailable:
   this is the textbook affine Miller iteration with separate numerator /
   denominator accumulators (merged by one inversion at the end).
   Correctness-first reference implementation — the paper's constructions
   work over "any" GDH group, and this is the second classic instance
   (the Boneh–Franklin curve); in production a live first argument runs
   on the product kernel's Jacobian walker below, a prepared one on its
   trace-zero schedule ([x1_images]). *)
let miller_loop_x1 prms pt qt =
  let fp = prms.fp in
  match (pt, qt) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one fp
  | Curve.Affine _, Curve.Affine q' ->
      (* phi(Q) coordinates in GF(p^2). *)
      let xq = Fp2.mul_fp fp q'.x prms.zeta in
      let yq = Fp2.of_fp fp q'.y in
      let curve = prms.curve in
      let f_num = ref (Fp2.one fp) and f_den = ref (Fp2.one fp) in
      let t = ref pt in
      (* Line through (x1,y1) with slope lambda, at phi(Q). *)
      let chord ~x1 ~y1 ~lambda =
        Fp2.sub fp
          (Fp2.sub fp yq (Fp2.of_fp fp y1))
          (Fp2.mul_fp fp lambda (Fp2.sub fp xq (Fp2.of_fp fp x1)))
      in
      let vertical_at = function
        | Curve.Infinity -> Fp2.one fp
        | Curve.Affine { x; _ } -> Fp2.sub fp xq (Fp2.of_fp fp x)
      in
      let three = Fp.of_int fp 3 in
      let bits = Bigint.bit_length prms.q in
      for i = bits - 2 downto 0 do
        f_num := Fp2.sqr fp !f_num;
        f_den := Fp2.sqr fp !f_den;
        (match !t with
        | Curve.Infinity -> ()
        | Curve.Affine { x; y } ->
            if Fp.is_zero fp y then begin
              (* Tangent is vertical; 2T = infinity. *)
              f_num := Fp2.mul fp !f_num (vertical_at !t);
              t := Curve.Infinity
            end
            else begin
              let lambda =
                Fp.div fp
                  (Fp.add fp (Fp.mul fp three (Fp.sqr fp x)) (Curve.coeff_a curve))
                  (Fp.add fp y y)
              in
              let t2 = Curve.double curve !t in
              f_num := Fp2.mul fp !f_num (chord ~x1:x ~y1:y ~lambda);
              f_den := Fp2.mul fp !f_den (vertical_at t2);
              t := t2
            end);
        if Bigint.test_bit prms.q i then begin
          match (!t, pt) with
          | Curve.Infinity, _ -> t := pt
          | Curve.Affine { x; y }, Curve.Affine { x = xp; y = yp } ->
              if Fp.equal x xp then begin
                (* T = -P (or T = P, impossible mid-loop for prime q):
                   vertical chord; T + P = infinity. *)
                f_num := Fp2.mul fp !f_num (vertical_at !t);
                t := Curve.Infinity
              end
              else begin
                let lambda = Fp.div fp (Fp.sub fp yp y) (Fp.sub fp xp x) in
                let t2 = Curve.add curve !t pt in
                f_num := Fp2.mul fp !f_num (chord ~x1:x ~y1:y ~lambda);
                f_den := Fp2.mul fp !f_den (vertical_at t2);
                t := t2
              end
          | Curve.Affine _, Curve.Infinity -> ()
        end
      done;
      Fp2.mul fp !f_num (Fp2.inv fp !f_den)

(* --- the x1-family Jacobian walker ---

   The live walker for y^2 = x^3 + 1: the affine reference above
   pays ~1.5 field inversions per bit (one per slope); this walker runs
   the same binary schedule in Jacobian coordinates with every line
   SCALED by its GF(p)* denominator, so the whole loop performs no
   inversion at all (one GF(p^2) inversion merges the num/den
   accumulators at the end). Unlike the xx family the distorted
   x-coordinate zeta*xq is a full GF(p^2) element, so vertical lines do
   not collapse into GF(p) and the denominator chain must be kept — two
   shared squaring chains in a product, still zero inversions. (Prepared
   points of G1 avoid the verticals altogether: see [x1_images].)

   Branch structure mirrors [miller_loop_x1] exactly (Z = 0 <=> T
   at infinity, Y = 0 <=> vertical tangent, H = 0 <=> x = xp), so the
   degenerate cases land in the same cases as the reference and no
   [Degenerate_chain] escape is needed. Line values:
   - tangent at T, scaled by W Z^2 (W = 2YZ, M = 3X^2):
     [M X - 2Y^2 + W Z^2 yq] - M Z^2 (zeta xq)
   - chord through T and P, evaluated at P, scaled by Z' = ZH:
     [Z' yq - Z' yp + R xp] - R (zeta xq)
   - verticals, scaled by Z^2: Z^2 (zeta xq) - X. *)

type x1_walker = {
  j_xp : Fp.t;
  j_yp : Fp.t;
  j_yq : Fp.t;
  j_zxr : Fp.t; (* owned: re (zeta xq) *)
  j_zxi : Fp.t; (* owned: im (zeta xq) *)
  j_mx : Fp.t; (* owned register file: Jacobian T *)
  j_my : Fp.t;
  j_mz : Fp.t;
}

let x1_walker_make prms ~xp ~yp ~xq ~yq =
  let fp = prms.fp in
  let zxr = Fp.Mut.alloc fp and zxi = Fp.Mut.alloc fp in
  Fp.Mut.mul_into fp zxr prms.zeta.Fp2.re xq;
  Fp.Mut.mul_into fp zxi prms.zeta.Fp2.im xq;
  let mz = Fp.Mut.alloc fp in
  Fp.Mut.set_one fp mz;
  {
    j_xp = xp;
    j_yp = yp;
    j_yq = yq;
    j_zxr = zxr;
    j_zxi = zxi;
    j_mx = Fp.Mut.copy fp xp;
    j_my = Fp.Mut.copy fp yp;
    j_mz = mz;
  }

(* One bit of one x1 walker: numerator lines fold into [fnum],
   denominator verticals into [fden]; the shared squarings of both
   accumulators are the driver's. Scratch discipline as in [xx_step]. *)
let x1_step fp sc w ~fnum ~fden d =
  let { u0; u1; u2; u3; u4; u5; lre; lim; line } = sc in
  let mx = w.j_mx and my = w.j_my and mz = w.j_mz in
  let xp = w.j_xp and yp = w.j_yp and yq = w.j_yq in
  let zxr = w.j_zxr and zxi = w.j_zxi in
  (if Fp.is_zero fp mz then ()
   else if Fp.is_zero fp my then begin
     (* Vertical tangent (2-torsion): num *= Z^2 xq2 - X; 2T = inf. *)
     Fp.Mut.sqr_into fp u1 mz;
     Fp.Mut.mul_into fp u2 u1 zxr;
     Fp.Mut.sub_into fp lre u2 mx;
     Fp.Mut.mul_into fp lim u1 zxi;
     Fp2.Mut.mul_into fp fnum fnum line;
     Fp.Mut.set_zero fp mz
   end
   else begin
     (* Tangent line, scaled by W Z^2:
        [M X - 2Y^2 + W Z^2 yq] - M Z^2 (zeta xq), M = 3X^2, W = 2YZ. *)
     Fp.Mut.sqr_into fp u0 my; (* u0 = Y^2 *)
     Fp.Mut.sqr_into fp u1 mz; (* u1 = Z^2 *)
     Fp.Mut.sqr_into fp u2 mx; (* u2 = X^2 *)
     Fp.Mut.add_into fp u3 u2 u2;
     Fp.Mut.add_into fp u3 u3 u2; (* u3 = M = 3X^2 (a = 0) *)
     Fp.Mut.add_into fp u4 my my;
     Fp.Mut.mul_into fp mz u4 mz; (* Z' = W = 2YZ; old Z^2 lives in u1 *)
     Fp.Mut.mul_into fp u4 u3 mx; (* u4 = M X *)
     Fp.Mut.add_into fp u5 u0 u0;
     Fp.Mut.sub_into fp u4 u4 u5; (* u4 = M X - 2Y^2 *)
     Fp.Mut.mul_into fp u5 mz u1;
     Fp.Mut.mul_into fp u5 u5 yq; (* u5 = W Z^2 yq *)
     Fp.Mut.add_into fp u4 u4 u5;
     Fp.Mut.mul_into fp u5 u3 u1; (* u5 = M Z^2 *)
     Fp.Mut.mul_into fp u2 u5 zxr;
     Fp.Mut.sub_into fp lre u4 u2;
     Fp.Mut.mul_into fp lim u5 zxi;
     Fp.Mut.neg_into fp lim lim;
     Fp2.Mut.mul_into fp fnum fnum line;
     (* Complete the doubling (a = 0): s = 4XY^2, X' = M^2 - 2s,
        Y' = M(s - X') - 8Y^4. *)
     Fp.Mut.mul_into fp u4 mx u0;
     Fp.Mut.add_into fp u4 u4 u4;
     Fp.Mut.add_into fp u4 u4 u4; (* u4 = s *)
     Fp.Mut.sqr_into fp u2 u3;
     Fp.Mut.sub_into fp u2 u2 u4;
     Fp.Mut.sub_into fp u2 u2 u4; (* u2 = X' *)
     Fp.Mut.sqr_into fp u0 u0;
     Fp.Mut.add_into fp u0 u0 u0;
     Fp.Mut.add_into fp u0 u0 u0;
     Fp.Mut.add_into fp u0 u0 u0; (* u0 = 8Y^4 *)
     Fp.Mut.sub_into fp u4 u4 u2;
     Fp.Mut.mul_into fp u4 u3 u4;
     Fp.Mut.sub_into fp u4 u4 u0; (* u4 = Y' *)
     Fp.Mut.set fp mx u2;
     Fp.Mut.set fp my u4;
     (* Denominator vertical at 2T, scaled by Z'^2. *)
     Fp.Mut.sqr_into fp u1 mz;
     Fp.Mut.mul_into fp u2 u1 zxr;
     Fp.Mut.sub_into fp lre u2 mx;
     Fp.Mut.mul_into fp lim u1 zxi;
     Fp2.Mut.mul_into fp fden fden line
   end);
  if d <> 0 then begin
    if Fp.is_zero fp mz then begin
      Fp.Mut.set fp mx xp;
      Fp.Mut.set fp my yp;
      Fp.Mut.set_one fp mz
    end
    else begin
      Fp.Mut.sqr_into fp u0 mz; (* u0 = Z^2 *)
      Fp.Mut.mul_into fp u1 xp u0;
      Fp.Mut.sub_into fp u1 u1 mx; (* u1 = H *)
      if Fp.is_zero fp u1 then begin
        (* T = +-P: vertical chord at T; T + P treated as infinity,
           mirroring the reference branch. *)
        Fp.Mut.mul_into fp u2 u0 zxr;
        Fp.Mut.sub_into fp lre u2 mx;
        Fp.Mut.mul_into fp lim u0 zxi;
        Fp2.Mut.mul_into fp fnum fnum line;
        Fp.Mut.set_zero fp mz
      end
      else begin
        Fp.Mut.mul_into fp u2 u0 mz;
        Fp.Mut.mul_into fp u2 yp u2;
        Fp.Mut.sub_into fp u2 u2 my; (* u2 = R = yp Z^3 - Y *)
        Fp.Mut.mul_into fp mz mz u1; (* Z' = Z H *)
        (* Chord through T and P, evaluated at P, scaled by Z':
           [Z'(yq - yp) + R xp] - R (zeta xq). *)
        Fp.Mut.mul_into fp u3 mz yq;
        Fp.Mut.mul_into fp u4 mz yp;
        Fp.Mut.sub_into fp u3 u3 u4;
        Fp.Mut.mul_into fp u4 u2 xp;
        Fp.Mut.add_into fp u3 u3 u4;
        Fp.Mut.mul_into fp u4 u2 zxr;
        Fp.Mut.sub_into fp lre u3 u4;
        Fp.Mut.mul_into fp lim u2 zxi;
        Fp.Mut.neg_into fp lim lim;
        Fp2.Mut.mul_into fp fnum fnum line;
        (* Complete the mixed addition (as in the xx kernel). *)
        Fp.Mut.sqr_into fp u3 u1; (* u3 = H^2 *)
        Fp.Mut.mul_into fp u4 u3 u1; (* u4 = H^3 *)
        Fp.Mut.mul_into fp u3 mx u3; (* u3 = X H^2 *)
        Fp.Mut.sqr_into fp u5 u2;
        Fp.Mut.sub_into fp u5 u5 u4;
        Fp.Mut.sub_into fp u5 u5 u3;
        Fp.Mut.sub_into fp u5 u5 u3; (* u5 = X' *)
        Fp.Mut.sub_into fp u3 u3 u5;
        Fp.Mut.mul_into fp u3 u2 u3;
        Fp.Mut.mul_into fp u4 my u4;
        Fp.Mut.sub_into fp u3 u3 u4; (* u3 = Y' *)
        Fp.Mut.set fp mx u5;
        Fp.Mut.set fp my u3;
        (* Denominator vertical at T + P, scaled by Z'^2. *)
        Fp.Mut.sqr_into fp u0 mz;
        Fp.Mut.mul_into fp u2 u0 zxr;
        Fp.Mut.sub_into fp lre u2 mx;
        Fp.Mut.mul_into fp lim u0 zxi;
        Fp2.Mut.mul_into fp fden fden line
      end
    end
  end

(* Functional-path dispatch, pinned as the reference the product kernel
   is measured and tested against. *)
let miller_loop_ref prms pt qt =
  match prms.family with
  | Y2_x3_x -> miller_loop_xx_ref prms pt qt
  | Y2_x3_1 -> miller_loop_x1 prms pt qt

(* --- the product-of-pairings kernel ---

   prod_i f_{q,P_i}(phi Q_i) through ONE interleaved Miller loop: all
   walkers share a single f^2 squaring chain — with N pairs the dominant
   GF(p^2) squarings are paid once instead of N times — and every line
   evaluation folds into the same accumulator through the in-place
   {!Fp2.Mut} product. This is the only production Miller loop of each
   family: a single pairing is a product of one live pair, a prepared
   pairing a product of one prepared slot. Prepared schedules and live points mix
   freely; a live first argument equal to the system generator is
   promoted to the construction-time prepared schedule.

   Every xx walker and recorded schedule follows the NAF of q, so their
   squaring chains agree. A live walk that degenerates (low-order first
   arguments only; [prepare] leaves such a point to walk live) sends the
   whole product to the reference loop: prod_i [miller_loop_xx_ref]
   (P_i, Q_i). On every other pair the two loops differ only by GF(p)*
   factors, so every value after the final exponentiation, and every
   decision, is unchanged. On the x1 family, recorded schedules run on
   the NAF positions of q with the numerator chain only, and live walkers
   on the binary schedule (which mirrors the reference branch for branch
   and never degenerates) with a second, denominator chain and a single
   merging inversion; both schedules end on the same position, so they
   interleave. *)

type pair_arg = Point of Curve.point | Prepared of prepared

(* --- per-domain register file for the product kernel ---

   The product paths used to allocate per call: a fresh accumulator and
   step scratch, one cursor record (plus an [Fp2.make] line view) per
   promoted prepared schedule, and — on the x1 family — a functional
   GF(p^2) value per prepared line evaluation, which put the "faster"
   kernel at tens of kilowords per verification. Everything below is the
   once-per-domain replacement: fixed accumulators and step scratch, a
   growable array of prepared-schedule slots whose buffers are reused
   across calls (immutable inputs are re-pointed, per-pair values copied
   into owned buffers), and the odd-power table the cofactor-membership
   decision exponentiates through. Keyed on limb count like the
   final-exponentiation file; results that escape a public API are
   copied out fresh so no caller ever aliases the scratch. *)

type pk_slot = {
  (* Recorded-schedule cursor: [ks_oi] walks [ks_ops] (each NAF position
     consumes the recorded squaring — performed once, shared — then
     folds the position's lines), [ks_li] walks the pre-scaled line
     pairs. The line view's re is the file's shared line scratch; its im
     is an owned buffer holding the evaluation point's yq. [ks_xq] is
     re-pointed at Q's own x on y^2 = x^3 + x, and at the owned [ks_xown]
     (the image abscissa) on y^2 = x^3 + 1, where [ks_aux] holds the
     slot's share of the batched inversion. *)
  mutable ks_ops : int array;
  mutable ks_lines : Fp.t array;
  mutable ks_xq : Fp.t;
  ks_xown : Fp.t;
  ks_aux : Fp.t;
  ks_line : Fp2.t;
  mutable ks_oi : int;
  mutable ks_li : int;
}

type pk_file = {
  k_f : Fp2.t; (* accumulator; x1 numerator *)
  k_fden : Fp2.t; (* x1 live walkers' denominator *)
  k_sc : xx_scratch;
  k_tbl : Fp2.t array; (* membership-test odd-power table *)
  k_acc : Fp2.t; (* membership-test accumulator *)
  mutable k_slots : pk_slot array;
}

let pk_key : (int * pk_file) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let pk_slot_make fp sc =
  let xown = Fp.Mut.alloc fp in
  {
    ks_ops = [||];
    ks_lines = [||];
    ks_xq = xown;
    ks_xown = xown;
    ks_aux = Fp.Mut.alloc fp;
    ks_line = Fp2.make ~re:sc.lre ~im:(Fp.Mut.alloc fp);
    ks_oi = 0;
    ks_li = 0;
  }

let pk_file fp =
  let k = Limbs.limb_count (Fp.kernel fp) in
  let cell = Domain.DLS.get pk_key in
  match !cell with
  | Some (k', file) when k' = k -> file
  | _ ->
      let sc = xx_scratch_alloc fp in
      let file =
        {
          k_f = Fp2.Mut.alloc fp;
          k_fden = Fp2.Mut.alloc fp;
          k_sc = sc;
          k_tbl = Array.init 8 (fun _ -> Fp2.Mut.alloc fp);
          k_acc = Fp2.Mut.alloc fp;
          k_slots = [||];
        }
      in
      cell := Some (k, file);
      file

let pk_slots file fp n =
  if Array.length file.k_slots < n then begin
    let old = file.k_slots in
    file.k_slots <-
      Array.init n (fun i ->
          if i < Array.length old then old.(i) else pk_slot_make fp file.k_sc)
  end;
  file.k_slots

(* Slot classification, the same for both families: a slot with
   infinity in either position contributes 1 and is dropped; a live
   first argument equal to the system generator is promoted to its
   construction-time schedule; every recorded schedule goes to [sched]
   and every other first argument, live or [Prep_live], to [live]. *)
let classify prms items ~sched ~live =
  let rec slot a qt =
    match (a, qt) with
    | (Point Curve.Infinity | Prepared (Prep_inf | Prep_live Curve.Infinity)), _
    | _, Curve.Infinity ->
        ()
    | Point pt, _ when Curve.equal pt prms.g -> slot (Prepared prms.g_prep) qt
    | Prepared (Prep_sched s), Curve.Affine q' ->
        if s.fam <> prms.family then
          invalid_arg "Pairing: prepared argument of the other curve family";
        sched s q'.x q'.y
    | (Point (Curve.Affine p') | Prepared (Prep_live (Curve.Affine p'))), Curve.Affine q'
      ->
        live p'.x p'.y q'.x q'.y
  in
  List.iter (fun (a, qt) -> slot a qt) items

let sched_start k s ~xq =
  k.ks_ops <- s.ops;
  k.ks_lines <- s.lines;
  k.ks_xq <- xq;
  k.ks_oi <- 0;
  k.ks_li <- 0

(* One NAF position of every recorded schedule: consume the recorded
   squaring (the caller squares [f] once for all of them) and fold the
   position's lines, (a0 + ax*xq) + yq i, into [f]. *)
let sched_fold fp sc slots n f =
  for k = 0 to n - 1 do
    let pw = slots.(k) in
    pw.ks_oi <- pw.ks_oi + 1;
    let ops = pw.ks_ops and lines = pw.ks_lines in
    while pw.ks_oi < Array.length ops && ops.(pw.ks_oi) = 1 do
      Fp.Mut.mul_into fp sc.lre lines.(pw.ks_li + 1) pw.ks_xq;
      Fp.Mut.add_into fp sc.lre lines.(pw.ks_li) sc.lre;
      pw.ks_li <- pw.ks_li + 2;
      Fp2.Mut.mul_into fp f f pw.ks_line;
      pw.ks_oi <- pw.ks_oi + 1
    done
  done

let xx_product prms items =
  let fp = prms.fp in
  let file = pk_file fp in
  let sc = file.k_sc and f = file.k_f in
  let slots = pk_slots file fp (List.length items) in
  let nsched = ref 0 and lives = ref [] in
  Fp2.Mut.set_one fp f;
  try
    classify prms items
      ~sched:(fun s xq yq ->
        let k = slots.(!nsched) in
        sched_start k s ~xq;
        Fp.Mut.set fp k.ks_line.Fp2.im yq;
        incr nsched)
      ~live:(fun xp yp xq yq ->
        lives := xx_walker_make fp ~xp ~yp ~xq ~yq :: !lives);
    let nsched = !nsched and lws = Array.of_list (List.rev !lives) in
    let digits = prms.q_naf in
    if nsched > 0 || Array.length lws > 0 then
      for i = 1 to Array.length digits - 1 do
        Fp2.Mut.sqr_into fp f f;
        sched_fold fp sc slots nsched f;
        let d = digits.(i) in
        for k = 0 to Array.length lws - 1 do
          xx_step fp sc lws.(k) f d
        done
      done;
    f
  with Degenerate_chain ->
    (* A live walk degenerated: the whole product on the reference
       loop. *)
    Fp2.Mut.set_one fp f;
    List.iter
      (fun (a, qt) ->
        let pt =
          match a with
          | Point pt | Prepared (Prep_sched { pt; _ } | Prep_live pt) -> pt
          | Prepared Prep_inf -> Curve.Infinity
        in
        Fp2.Mut.mul_into fp f f (miller_loop_xx_ref prms pt qt))
      items;
    f

(* The evaluation points of recorded y^2 = x^3 + 1 schedules. phi(Q) =
   (zeta x, y) is not in the trace-zero subgroup T = { R : pi(R) = -R }
   (pi the p-power Frobenius), so its verticals do not lie in GF(p). Its
   image R = phi(Q) - pi(phi(Q)) = (zeta x, y) + (zeta^2 x, -y) is:
     R = ( -(x^3 + 4) / (3x^2),  i s y (x^3 - 8) / (9x^3) ),
   s = 2 Im(zeta) (s^2 = 3), an abscissa in GF(p) and an ordinate in
   i GF(p): written (-xr, i yr) it is evaluated exactly like the xx
   family's phi(Q) = (-xq, i yq). For P in G1 the reduced Tate pairing
   is linear in its second argument and Frobenius-equivariant
   (e(P, pi R) = e(P, R)^p), so after the final exponentiation
   e(P, R) = e(P, phi Q)^(1-p) = e^(P, Q)^2, since 1 - p = 2 (mod q);
   the schedule is recorded for P' = [(q+1)/2]P to land on e^(P, Q)
   itself. x = 0 (Q = (0, +-1), of order 3) has no image; it pairs to 1
   with every P in G1 and its slot is dropped before this point.

   Slots 0..n-1 arrive with [ks_xq] at Q's x and Q's y in the line's im
   buffer; both are replaced by (xr, yr). The n inversions of 9x^3 share
   one (Montgomery's trick), so a product pays one inversion in all. *)
let x1_images prms sc slots n =
  let fp = prms.fp in
  let { u0; u1; u2; u3; u4; u5; _ } = sc in
  let nine_into d c =
    Fp.Mut.add_into fp d c c;
    Fp.Mut.add_into fp d d d;
    Fp.Mut.add_into fp d d d;
    Fp.Mut.add_into fp d d c
  in
  Fp.Mut.set_one fp u4;
  for k = 0 to n - 1 do
    let s = slots.(k) in
    Fp.Mut.sqr_into fp u0 s.ks_xq;
    Fp.Mut.mul_into fp s.ks_xown u0 s.ks_xq; (* x^3 *)
    Fp.Mut.set fp s.ks_aux u4; (* product of the earlier 9x^3 *)
    nine_into u0 s.ks_xown;
    Fp.Mut.mul_into fp u4 u4 u0
  done;
  if n > 0 then Limbs.inv_into (Fp.kernel fp) u4 u4;
  Fp.Mut.add_into fp u5 (Fp.one fp) (Fp.one fp);
  Fp.Mut.add_into fp u5 u5 u5; (* u5 = 4 *)
  for k = n - 1 downto 0 do
    let s = slots.(k) in
    let x3 = s.ks_xown and y = s.ks_line.Fp2.im in
    Fp.Mut.mul_into fp u2 u4 s.ks_aux; (* u2 = 1 / 9x^3 *)
    nine_into u0 x3;
    Fp.Mut.mul_into fp u4 u4 u0;
    Fp.Mut.add_into fp u0 x3 u5; (* x^3 + 4 *)
    Fp.Mut.sub_into fp u1 x3 u5;
    Fp.Mut.sub_into fp u1 u1 u5; (* x^3 - 8 *)
    Fp.Mut.add_into fp u3 s.ks_xq s.ks_xq;
    Fp.Mut.add_into fp u3 u3 s.ks_xq;
    Fp.Mut.mul_into fp u0 u0 u3;
    Fp.Mut.mul_into fp s.ks_xown u0 u2; (* xr = (x^3 + 4) / 3x^2 *)
    Fp.Mut.mul_into fp u1 u1 u2;
    Fp.Mut.mul_into fp u1 u1 y;
    Fp.Mut.add_into fp u3 prms.zeta.Fp2.im prms.zeta.Fp2.im;
    Fp.Mut.mul_into fp y u1 u3; (* yr = s y (x^3 - 8) / 9x^3 *)
    s.ks_xq <- s.ks_xown
  done

(* Recorded schedules run on the NAF positions of q, one chain in the
   numerator; live walkers run on the bits of q, which end on the same
   position, with the denominator chain and the merging inversion only
   when there is a live walker. *)
let x1_product prms items =
  let fp = prms.fp in
  let file = pk_file fp in
  let sc = file.k_sc and f = file.k_f and fden = file.k_fden in
  let slots = pk_slots file fp (List.length items) in
  let nsched = ref 0 and lives = ref [] in
  classify prms items
    ~sched:(fun s xq yq ->
      if not (Fp.is_zero fp xq) then begin
        let k = slots.(!nsched) in
        sched_start k s ~xq;
        Fp.Mut.set fp k.ks_line.Fp2.im yq;
        incr nsched
      end)
    ~live:(fun xp yp xq yq ->
      lives := x1_walker_make prms ~xp ~yp ~xq ~yq :: !lives);
  let nsched = !nsched and lws = Array.of_list (List.rev !lives) in
  x1_images prms sc slots nsched;
  let nlive = Array.length lws in
  Fp2.Mut.set_one fp f;
  if nsched > 0 || nlive > 0 then begin
    Fp2.Mut.set_one fp fden;
    let len = Array.length prms.q_naf in
    let q = prms.q in
    let bits = Bigint.bit_length q in
    for i = 1 to len - 1 do
      Fp2.Mut.sqr_into fp f f;
      sched_fold fp sc slots nsched f;
      let b = len - 1 - i in
      if nlive > 0 && b <= bits - 2 then begin
        Fp2.Mut.sqr_into fp fden fden;
        let d = if Bigint.test_bit q b then 1 else 0 in
        for k = 0 to nlive - 1 do
          x1_step fp sc lws.(k) ~fnum:f ~fden d
        done
      end
    done;
    if nlive > 0 then begin
      Fp2.Mut.inv_into fp fden fden;
      Fp2.Mut.mul_into fp f f fden
    end
  end;
  f

(* Internal face: the returned accumulator ALIASES the per-domain
   register file and is only valid until the next product-kernel call on
   this domain. The public faces below copy it out fresh. *)
let miller_product_raw prms pairs =
  match prms.family with
  | Y2_x3_x -> xx_product prms pairs
  | Y2_x3_1 -> x1_product prms pairs

let miller_product_mixed prms pairs =
  let m = miller_product_raw prms pairs in
  let out = Fp2.Mut.alloc prms.fp in
  Fp2.Mut.set prms.fp out m;
  out

let miller_product prms pairs =
  miller_product_mixed prms (List.map (fun (pt, qt) -> (Point pt, qt)) pairs)

let miller_loop prms pt qt = miller_product_mixed prms [ (Point pt, qt) ]

(* Deciding prod_i e^(P_i, Q_i) = 1 from the raw Miller product m,
   WITHOUT the final exponentiation: FE(m) = (conj(m)/m)^h = conj(u)/u
   for u = m^h, so FE(m) = 1 exactly when u is fixed by conjugation
   (the Frobenius), i.e. when m^h lands in GF(p). One cofactor
   exponentiation and an is-zero test replace the easy part's field
   inversion plus the full hard part of a canonical FE — and since the
   equality is exact (not probabilistic), accept/reject decisions are
   identical to computing the pairing product in full. Raises
   [Division_by_zero] on m = 0, as the final exponentiation would. *)
let product_is_one prms m =
  let fp = prms.fp in
  if Fp2.is_zero fp m then raise Division_by_zero;
  (* In-place sliding-window m^h through the register file's odd-power
     table (generic squarings — m is not norm-1, so the cyclotomic
     shortcut is off limits); [Fp2.pow] would rebuild its table on the
     heap every verification. The table caps the window at 4; at the
     largest named cofactor (352 bits) that costs ~11 extra products
     over width 5, noise against the Miller loop it follows. [m] may
     alias the file's own accumulator: it is only read, and only before
     the accumulator-table phase ends. *)
  let n = prms.cofactor in
  let bits = Bigint.bit_length n in
  let file = pk_file fp in
  let acc = file.k_acc in
  if bits <= 8 then begin
    Fp2.Mut.set_one fp acc;
    for i = bits - 1 downto 0 do
      Fp2.Mut.sqr_into fp acc acc;
      if Bigint.test_bit n i then Fp2.Mut.mul_into fp acc acc m
    done
  end
  else begin
    let w = if bits <= 96 then 3 else 4 in
    let tbl = file.k_tbl in
    let tn = 1 lsl (w - 1) in
    (* tbl.(i) = m^(2i+1); acc holds m^2 during the build. *)
    Fp2.Mut.set fp tbl.(0) m;
    Fp2.Mut.sqr_into fp acc m;
    for i = 1 to tn - 1 do
      Fp2.Mut.mul_into fp tbl.(i) tbl.(i - 1) acc
    done;
    let started = ref false in
    let i = ref (bits - 1) in
    while !i >= 0 do
      if not (Bigint.test_bit n !i) then begin
        if !started then Fp2.Mut.sqr_into fp acc acc;
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
            Fp2.Mut.sqr_into fp acc acc
          done;
          Fp2.Mut.mul_into fp acc acc tbl.((!v - 1) / 2)
        end
        else begin
          Fp2.Mut.set fp acc tbl.((!v - 1) / 2);
          started := true
        end;
        i := !l - 1
      end
    done
  end;
  Fp.is_zero fp acc.Fp2.im

let check_product_one_mixed prms pairs =
  product_is_one prms (miller_product_raw prms pairs)

let check_product_one prms pairs =
  check_product_one_mixed prms
    (List.map (fun (pt, qt) -> (Point pt, qt)) pairs)

(* f^((p^2-1)/q): f^(p-1) = conj(f)/f via Frobenius, then pow by the
   cofactor h = (p+1)/q. Pinned reference: generic sliding-window GT
   exponentiation for the hard part. *)
let final_exponentiation_ref prms f =
  let fp = prms.fp in
  let fp1 = Fp2.mul fp (Fp2.conj fp f) (Fp2.inv fp f) in
  Fp2.pow fp fp1 prms.cofactor

(* Per-domain register file for the kernel final exponentiation: the
   odd-power table, its conjugate views (inverses — shared re buffers,
   own negated-im buffers), and the accumulator/easy-part temporary.
   Keyed on limb count so parameter sets of the same width share one
   file; rebuilt when the width changes. Every call copies its result
   out fresh, so values never alias the scratch across calls. *)
let fe_key :
    (int * Fp2.t array * Fp2.t array * Fp2.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fe_scratch fp =
  let k = Limbs.limb_count (Fp.kernel fp) in
  let cell = Domain.DLS.get fe_key in
  match !cell with
  | Some (k', tbl, tbln, acc) when k' = k -> (tbl, tbln, acc)
  | _ ->
      let tbl = Array.init 8 (fun _ -> Fp2.Mut.alloc fp) in
      let tbln =
        Array.map (fun t -> Fp2.make ~re:t.Fp2.re ~im:(Fp.Mut.alloc fp)) tbl
      in
      let acc = Fp2.Mut.alloc fp in
      cell := Some (k, tbl, tbln, acc);
      (tbl, tbln, acc)

(* Kernel final exponentiation, same decomposition pushed further: after
   the easy part, f1 = f^(p-1) satisfies f1^(p+1) = f^(p^2-1) = 1, i.e.
   f1 has norm 1 — it lives in the cyclotomic subgroup. There
   - squaring is {!Fp2.Mut.cyclo_sqr_into} (a base-field squaring and a
     multiplication instead of two multiplications), and
   - inversion is conjugation (free), so the cofactor's signed-digit
     recoding costs ~bits/(w+1) table multiplications with no extra
     table space for the negative digits.
   The whole chain — easy part included, via {!Fp2.Mut.inv_into} — runs
   in the per-domain register file; the only allocation is the returned
   copy. The odd-power table is sized to the largest recoded digit, so
   small-cofactor parameter sets (toy64: h fits 32 bits, width-2
   recoding) no longer pay an 8-entry table build for a handful of
   digits. Same canonical result as [final_exponentiation_ref] for every
   f — the differential tests pin the bit-identity. *)
let final_exponentiation prms f =
  let fp = prms.fp in
  let digits = prms.cofactor_wnaf in
  let n = Array.length digits in
  if n = 0 then Fp2.one fp
  else begin
    let tbl, tbln, acc = fe_scratch fp in
    (* Easy part into tbl.(0): f1 = conj(f) * f^-1, allocation-free —
       tbln.(0)'s im buffer moonlights as conj(f)'s im, and the product
       reads its operands out before touching the destination. *)
    Fp2.Mut.inv_into fp acc f;
    Fp.Mut.neg_into fp tbln.(0).Fp2.im f.Fp2.im;
    Fp2.Mut.mul_into fp
      tbl.(0)
      (Fp2.make ~re:f.Fp2.re ~im:tbln.(0).Fp2.im)
      acc;
    (* tbl.(j) = f1^(2j+1), built only up to the largest digit the
       recoding actually uses; everything in the table has norm 1,
       products and cyclotomic squares of norm-1 elements stay norm-1. *)
    let maxd = Array.fold_left (fun m d -> Stdlib.max m (abs d)) 1 digits in
    let tsize = (maxd + 1) / 2 in
    if tsize > 1 then begin
      Fp2.Mut.cyclo_sqr_into fp acc tbl.(0);
      for j = 1 to tsize - 1 do
        Fp2.Mut.mul_into fp tbl.(j) tbl.(j - 1) acc
      done
    end;
    for j = 0 to tsize - 1 do
      Fp.Mut.neg_into fp tbln.(j).Fp2.im tbl.(j).Fp2.im
    done;
    Fp2.Mut.set fp acc tbl.((digits.(0) - 1) / 2);
    for i = 1 to n - 1 do
      Fp2.Mut.cyclo_sqr_into fp acc acc;
      let d = digits.(i) in
      if d > 0 then Fp2.Mut.mul_into fp acc acc tbl.((d - 1) / 2)
      else if d < 0 then Fp2.Mut.mul_into fp acc acc tbln.((-d - 1) / 2)
    done;
    let out = Fp2.Mut.alloc fp in
    Fp2.Mut.set fp out acc;
    out
  end

(* [final_exponentiation] reads the kernel's accumulator before it writes
   anything, into its own per-domain scratch, so the raw (aliased)
   product needs no copy here. *)
let pairing prms pt qt =
  final_exponentiation prms (miller_product_raw prms [ (Point pt, qt) ])

let pairing_ref prms pt qt =
  final_exponentiation_ref prms (miller_loop_ref prms pt qt)

let pairing_product prms pairs =
  (* A GT value is wanted (not just a decision), so the full final
     exponentiation runs — but over ONE interleaved Miller loop. *)
  final_exponentiation prms (miller_product prms pairs)

let pairing_equal_check prms ~lhs:(a, b) ~rhs:(c, d) =
  (* e(a,b) = e(c,d)  <=>  e(a,b) * e(c,-d) = 1 — one interleaved Miller
     loop and one membership test instead of two full pairings. The
     inverse is taken by negating the *point* argument (the distortion
     map commutes with negation), so a first argument equal to the
     system generator keeps its construction-time prepared schedule. *)
  check_product_one prms [ (a, b); (c, Curve.neg prms.curve d) ]

(* --- prepared pairing entry points --- *)

let pairing_prepared prms prep qt =
  final_exponentiation prms (miller_product_raw prms [ (Prepared prep, qt) ])

let pairing_equal_check_prepared prms ~lhs:(a, b) ~rhs:(c, d) =
  (* Prepared first arguments cannot be negated, but e(c,d)^-1 = e(c,-d)
     (the distortion map commutes with negation), so negate the point
     argument instead. *)
  check_product_one_mixed prms
    [ (Prepared a, b); (Prepared c, Curve.neg prms.curve d) ]

let mul_g prms k = Curve.Table.mul prms.g_table k

let in_g1 prms point =
  Curve.on_curve prms.curve point && Curve.mul_is_infinity prms.curve prms.q point

let ddh prms base a b c = pairing_equal_check prms ~lhs:(a, b) ~rhs:(base, c)

(* --- H2 --- *)

let h2 prms k n = Hashing.Kdf.mask ("TRE-H2|" ^ Fp2.to_bytes prms.fp k) n
