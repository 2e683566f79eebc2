type family = Y2_x3_x | Y2_x3_1

(* --- prepared pairings: precomputed Miller-loop line functions ---

   The line functions of Miller's algorithm depend only on the first
   pairing argument P (they are the tangent/chord lines of the running
   multiple of P); the second argument merely evaluates them. A [prepared]
   value stores the line coefficients of the whole loop so that pairings
   against a fixed P cost only the evaluations — no point arithmetic, and
   for the {!Y2_x3_1} family no per-step field inversions either. *)

(* One accumulator operation of the x1 (Boneh-Franklin) Miller loop,
   evaluated at phi(Q) = (zeta xq, yq) with xq2 = zeta*xq in GF(p^2):
   - [Num_line]: chord/tangent through (x1, y1) with slope lambda, stored
     as l0 = lambda*x1 - y1 and lmx = -lambda, evaluated as
     (l0 + yq) + lmx * xq2;
   - [Num_vert x] / [Den_vert x]: vertical line x - x_line, evaluated as
     xq2 - x, multiplied into the numerator resp. denominator. *)
type x1_op =
  | Num_line of { l0 : Fp.t; lmx : Fp.t }
  | Num_vert of Fp.t
  | Den_vert of Fp.t

(* A prepared xx-family pairing is the whole Miller schedule flattened
   into two kernel-resident arrays: [ops] lists the accumulator
   operations in order (0 = square f, 1 = multiply f by the next
   recorded line), and [lines] holds the line coefficients as
   consecutive (a0, ax) PAIRS of canonical residues. The recorded
   tangent/chord line (l0 + lx*xq) + (ly*yq) i is divided through by its
   (nonzero, GF(p)) y-coefficient at preparation time — one Montgomery
   batch inversion for the whole schedule — so evaluation at
   phi(Q) = (-xq, i yq) is (a0 + ax*xq) + yq i: one base-field
   multiplication per line instead of two, and the imaginary part is Q's
   own y-coordinate, no multiply at all. The dropped factor ly lies in
   GF(p)*, which the final exponentiation annihilates, so pairing values
   are unchanged. [sqrs] counts the squaring ops — the product kernel
   interleaves schedules only when their squaring chains agree (a
   NAF-recorded schedule and a binary-fallback one may differ in
   length by one). A flat spine with no options and no per-step records:
   evaluation is one cache-friendly pass over two arrays. *)
type prepared =
  | Prep_inf
  | Prep_xx of { ops : int array; lines : Fp.t array; sqrs : int }
  | Prep_x1 of x1_op list array

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
  g_table : Curve.Table.t Lazy.t;
  g_prep : prepared Lazy.t;
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

   The production Miller paths for the x^3 + x family walk a
   left-to-right signed-digit (non-adjacent form) schedule: the NAF of q
   has ~bits/3 nonzero digits against ~bits/2 set bits, and denominator
   elimination makes a negative digit exactly as cheap as a positive one
   — the chord through T and -P, with -P = (xp, -yp), is one more scaled
   line whose vertical cofactor lies in GF(p). The reference loop
   [miller_loop_xx_ref] stays on the plain binary schedule; the two
   chains compute the same Miller function up to GF(p)* factors, so the
   pairing values agree bit-for-bit after the final exponentiation —
   which is what the differential tests and [bench --smoke] pin.

   [wnaf_digits n w]: MSB-first width-w non-adjacent form of n > 0 —
   odd digits in (-2^(w-1), 2^(w-1)), at most one nonzero in any w
   consecutive positions, leading digit positive. w = 2 is the classic
   NAF driving the Miller loops; w = 5 recodes the final-exponentiation
   cofactor, whose negative digits cost nothing because inversion in the
   norm-1 subgroup is conjugation. *)
let wnaf_digits n w =
  let two_w = Bigint.shift_left Bigint.one w in
  let half = Bigint.shift_left Bigint.one (w - 1) in
  let digits = ref [] and x = ref n in
  while Bigint.sign !x > 0 do
    if Bigint.is_odd !x then begin
      let r = Bigint.erem !x two_w in
      let d =
        if Bigint.compare r half >= 0 then Bigint.to_int_exn (Bigint.sub r two_w)
        else Bigint.to_int_exn r
      in
      digits := d :: !digits;
      x := Bigint.sub !x (Bigint.of_int d)
    end
    else digits := 0 :: !digits;
    x := Bigint.shift_right !x 1
  done;
  Array.of_list !digits

(* The binary schedule in the same MSB-first digit form, for the
   degenerate-input fallback (where the walk must mirror the reference
   loop branch for branch). *)
let binary_digits n =
  let bits = Bigint.bit_length n in
  Array.init bits (fun i -> if Bigint.test_bit n (bits - 1 - i) then 1 else 0)

(* Raised by the signed-digit walkers on the one degenerate case they do
   not model: an addition step whose operands coincide (T = dP with
   chord slope 0/0 — a doubling in disguise, reachable only for inputs
   of low order, never for order-q points). The caller falls back to the
   binary schedule, which handles it exactly as the pinned reference
   does. Every other degeneracy (2-torsion tangent, running point at
   infinity, vertical chord) contributes only GF(p) factors and is
   handled in-line on both schedules. *)
exception Degenerate_chain

(* --- building prepared pairings ---

   These walk the same schedules as [miller_loop_xx] / [miller_loop_x1]
   below, recording the line coefficients instead of evaluating them.
   Field values are canonical (normalized Montgomery residues), so
   evaluating a prepared pairing later is bit-identical to running the
   plain pairing. *)

type miller_state = { mx : Fp.t; my : Fp.t; mz : Fp.t }

(* Record the flat (ops, lines) schedule of the xx Miller loop over a
   MSB-first signed digit array (leading digit 1). [legacy_keep] selects
   the reference's keep-T behaviour on the coincident-addition case
   (used with the binary digits, matching [miller_loop_xx_ref]); the NAF
   walk raises [Degenerate_chain] instead. *)
let record_xx prms pt digits ~legacy_keep =
  let fp = prms.fp in
  match pt with
  | Curve.Infinity -> Prep_inf
  | Curve.Affine p' ->
      let xp = p'.x and yp = p'.y in
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
           let m = Fp.add fp (Fp.add fp (Fp.add fp x2 x2) x2) (Fp.sqr fp z2) in
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
              if Fp.is_zero fp r then begin
                if not legacy_keep then raise Degenerate_chain
                (* else keep T, mirroring the reference loop *)
              end
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
      let sqrs = Array.length digits - 1 in
      Prep_xx { ops = ops_arr; lines = scaled; sqrs }

let prepare_xx prms pt =
  try record_xx prms pt prms.q_naf ~legacy_keep:false
  with Degenerate_chain ->
    record_xx prms pt (binary_digits prms.q) ~legacy_keep:true

let prepare_x1 prms pt =
  let fp = prms.fp in
  match pt with
  | Curve.Infinity -> Prep_inf
  | Curve.Affine _ ->
      let curve = prms.curve in
      let three = Fp.of_int fp 3 in
      let bits = Bigint.bit_length prms.q in
      let steps = Array.make (Stdlib.max 0 (bits - 1)) [] in
      let t = ref pt in
      for i = bits - 2 downto 0 do
        let ops = ref [] in
        let emit op = ops := op :: !ops in
        let chord_of ~x1 ~y1 ~lambda =
          Num_line
            { l0 = Fp.sub fp (Fp.mul fp lambda x1) y1; lmx = Fp.neg fp lambda }
        in
        let den_vert_of = function
          | Curve.Infinity -> () (* vertical at infinity is the constant 1 *)
          | Curve.Affine { x; _ } -> emit (Den_vert x)
        in
        (match !t with
        | Curve.Infinity -> ()
        | Curve.Affine { x; y } ->
            if Fp.is_zero fp y then begin
              emit (Num_vert x);
              t := Curve.Infinity
            end
            else begin
              let lambda =
                Fp.div fp
                  (Fp.add fp (Fp.mul fp three (Fp.sqr fp x)) (Curve.coeff_a curve))
                  (Fp.add fp y y)
              in
              let t2 = Curve.double curve !t in
              emit (chord_of ~x1:x ~y1:y ~lambda);
              den_vert_of t2;
              t := t2
            end);
        if Bigint.test_bit prms.q i then begin
          match (!t, pt) with
          | Curve.Infinity, _ -> t := pt
          | Curve.Affine { x; y }, Curve.Affine { x = xp; y = yp } ->
              if Fp.equal x xp then begin
                emit (Num_vert x);
                t := Curve.Infinity
              end
              else begin
                let lambda = Fp.div fp (Fp.sub fp yp y) (Fp.sub fp xp x) in
                let t2 = Curve.add curve !t pt in
                emit (chord_of ~x1:x ~y1:y ~lambda);
                den_vert_of t2;
                t := t2
              end
          | Curve.Affine _, Curve.Infinity -> ()
        end;
        steps.(bits - 2 - i) <- List.rev !ops
      done;
      Prep_x1 steps

let prepare_raw prms pt =
  match prms.family with
  | Y2_x3_x -> prepare_xx prms pt
  | Y2_x3_1 -> prepare_x1 prms pt

let prepare prms pt =
  (* Every long-lived verifier prepares the system generator (it is one
     side of the paper's verification equation); hand back the
     construction-time schedule instead of re-recording it. [g_prep]
     itself is built through [prepare_raw] — and [Lazy.is_val] is true
     WHILE a lazy is being forced, so this test must never be reachable
     from the suspension. *)
  if Curve.equal pt prms.g && Lazy.is_val prms.g_prep then
    Lazy.force prms.g_prep
  else prepare_raw prms pt

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
     both xx-family Miller walks, the wNAF of the cofactor drives the
     cyclotomic final-exponentiation window. The width is chosen by
     costing each candidate recoding of THIS cofactor rather than by a
     bit-length threshold — the threshold form mispicked for cofactors
     whose digit pattern doesn't match their size class (mid128b sat
     below 1.0x against the reference for a full PR). The model charges
     a cyclotomic squaring per chain step at 0.7x the price of a
     multiplication (two base-field squarings vs three multiplications,
     measured), one multiplication per nonzero digit past the first, and
     the odd-power table build (one squaring plus tsize-1 products) when
     any digit exceeds 1. The exponent is fixed per parameter set, so
     the scan costs nothing on any hot path. *)
  let q_naf = wnaf_digits q 2 in
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
    let best = ref (wnaf_digits cofactor 2) in
    for w = 3 to 5 do
      let cand = wnaf_digits cofactor w in
      if cost cand < cost !best then best := cand
    done;
    !best
  in
  let rec prms =
    {
      name; family; p; q; cofactor; fp; curve; g; final_exp; zeta;
      q_naf; cofactor_wnaf;
      g_table = lazy (Curve.Table.create curve ~bits:(Bigint.bit_length q) g);
      g_prep = lazy (prepare_raw prms g);
    }
  in
  (* The generator precomputations are forced HERE, at construction, not
     on first use: [Lazy.force] is not domain-safe (two domains racing on
     an unforced suspension can raise [Lazy.Undefined] or duplicate work),
     and a params value is exactly the thing the batch APIs share across a
     [Pool]. Construction happens once per parameter set, so the eager
     cost is paid where it cannot race. *)
  ignore (Lazy.force prms.g_table);
  ignore (Lazy.force prms.g_prep);
  prms

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
   before final exponentiation. Functional reference path: allocates a
   fresh element per field operation. The production path below
   ([miller_loop_xx]) computes the same schedule through the in-place
   kernels; canonical representatives make the two bit-identical, which
   the equivalence tests and [bench --smoke] assert. *)
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

(* In-place BINARY Miller loop for the x^3 + x family: one register file
   (the Jacobian accumulator T, six temporaries, a reusable line value)
   plus the GF(p^2) accumulator f, all allocated once per call and
   mutated by the {!Fp.Mut} / {!Fp2.Mut} kernels — the ~bits iterations
   allocate nothing. Same field expressions AND the same schedule as
   [miller_loop_xx_ref] above, branch for branch, so the two are
   bit-identical even before the final exponentiation. Kept as the
   fallback for degenerate (low-order) inputs on which the signed-digit
   production loop below bails out. [f]'s buffers are freshly allocated
   here, so returning it is safe; the caller owns an ordinary immutable
   value. *)
let miller_loop_xx_bin prms pt qt =
  let fp = prms.fp in
  match (pt, qt) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one fp
  | Curve.Affine p', Curve.Affine q' ->
      let xp = p'.x and yp = p'.y in
      let xq = q'.x and yq = q'.y in
      let f = Fp2.Mut.alloc fp in
      Fp2.Mut.set_one fp f;
      let mx = Fp.Mut.copy fp xp
      and my = Fp.Mut.copy fp yp
      and mz = Fp.Mut.alloc fp in
      Fp.Mut.set_one fp mz;
      let u0 = Fp.Mut.alloc fp
      and u1 = Fp.Mut.alloc fp
      and u2 = Fp.Mut.alloc fp
      and u3 = Fp.Mut.alloc fp
      and u4 = Fp.Mut.alloc fp
      and u5 = Fp.Mut.alloc fp in
      let lre = Fp.Mut.alloc fp and lim = Fp.Mut.alloc fp in
      let line = Fp2.make ~re:lre ~im:lim in
      let set_torsion () =
        Fp.Mut.set_one fp mx;
        Fp.Mut.set_one fp my;
        Fp.Mut.set_zero fp mz
      in
      let bits = Bigint.bit_length prms.q in
      for i = bits - 2 downto 0 do
        Fp2.Mut.sqr_into fp f f;
        if Fp.is_zero fp mz then ()
        else if Fp.is_zero fp my then set_torsion ()
        else begin
          (* Doubling with scaled tangent line, as in the reference:
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
        if Bigint.test_bit prms.q i then begin
          if Fp.is_zero fp mz then begin
            Fp.Mut.set fp mx xp;
            Fp.Mut.set fp my yp;
            Fp.Mut.set_one fp mz
          end
          else begin
            (* Mixed addition with scaled chord line:
               H = xp Z^2 - X, R = yp Z^3 - Y, Z' = Z H;
               l = [R*(xq + xp) - Z' yp] + (Z' yq) i. *)
            Fp.Mut.sqr_into fp u0 mz; (* u0 = Z^2 *)
            Fp.Mut.mul_into fp u1 xp u0;
            Fp.Mut.sub_into fp u1 u1 mx; (* u1 = H *)
            Fp.Mut.mul_into fp u2 u0 mz;
            Fp.Mut.mul_into fp u2 yp u2;
            Fp.Mut.sub_into fp u2 u2 my; (* u2 = R *)
            if Fp.is_zero fp u1 then begin
              if not (Fp.is_zero fp u2) then set_torsion ()
              (* else T = P mid-loop: unreachable for prime q *)
            end
            else begin
              Fp.Mut.mul_into fp mz mz u1; (* Z' = Z H *)
              Fp.Mut.add_into fp u3 xq xp;
              Fp.Mut.mul_into fp u3 u2 u3;
              Fp.Mut.mul_into fp u4 mz yp;
              Fp.Mut.sub_into fp lre u3 u4; (* re = R(xq + xp) - Z' yp *)
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
      done;
      f

(* --- the shared xx-family NAF walker ---

   The signed-digit Miller step, factored out of the single-pair loop so
   that the product kernel below can drive SEVERAL walkers under one
   shared f^2 squaring chain. A walker owns its Jacobian accumulator
   (mx, my, mz) and the negated y (ypn); the temporaries u0..u5 and the
   line-value buffers are transient within one step and shared across
   all walkers of a product. Each step folds its line values into the
   caller's f through the lazy-reduction product. *)

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
    (* Doubling with scaled tangent line (see the binary loop):
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

(* Production Miller loop for the x^3 + x family: the same in-place
   register discipline as [miller_loop_xx_bin], walking the signed-digit
   NAF schedule of q instead of its bits — ~bits/3 addition steps
   instead of ~bits/2, with a negative digit adding -P = (xp, -yp)
   through the identical mixed-addition kernel. The Miller value differs
   from the binary one only by GF(p)* factors, which the final
   exponentiation annihilates; the differential tests pin the
   post-exponentiation agreement. Raises [Degenerate_chain] on the one
   unmodelled degeneracy (coincident addition operands, low-order inputs
   only); the dispatching wrapper then falls back to the binary loop. *)
let miller_loop_xx_naf prms pt qt =
  let fp = prms.fp in
  match (pt, qt) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one fp
  | Curve.Affine p', Curve.Affine q' ->
      let f = Fp2.Mut.alloc fp in
      Fp2.Mut.set_one fp f;
      let sc = xx_scratch_alloc fp in
      let w = xx_walker_make fp ~xp:p'.x ~yp:p'.y ~xq:q'.x ~yq:q'.y in
      let digits = prms.q_naf in
      for i = 1 to Array.length digits - 1 do
        Fp2.Mut.sqr_into fp f f;
        xx_step fp sc w f digits.(i)
      done;
      f

let miller_loop_xx prms pt qt =
  try miller_loop_xx_naf prms pt qt
  with Degenerate_chain -> miller_loop_xx_bin prms pt qt

(* The Miller function for the y^2 = x^3 + 1 family, evaluated at the
   distorted point phi(Q) = (zeta xq, yq) with zeta in GF(p^2). Because
   the distorted x-coordinate is a full GF(p^2) element, vertical lines do
   NOT collapse into GF(p), so denominator elimination is unavailable:
   this is the textbook affine Miller iteration with separate numerator /
   denominator accumulators (merged by one inversion at the end).
   Correctness-first reference implementation — the paper's constructions
   work over "any" GDH group, and this is the second classic instance
   (the Boneh–Franklin curve); the optimized production path is
   [miller_loop_xx]. *)
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

   Production Miller loop for y^2 = x^3 + 1: the affine reference above
   pays ~1.5 field inversions per bit (one per slope); this walker runs
   the same binary schedule in Jacobian coordinates with every line
   SCALED by its GF(p)* denominator, so the whole loop performs no
   inversion at all (one GF(p^2) inversion merges the num/den
   accumulators at the end). Unlike the xx family the distorted
   x-coordinate zeta*xq is a full GF(p^2) element, so vertical lines do
   not collapse into GF(p) and the denominator chain must be kept — two
   shared squaring chains in a product, still zero inversions.

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

let miller_loop_x1_jac prms pt qt =
  let fp = prms.fp in
  match (pt, qt) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one fp
  | Curve.Affine p', Curve.Affine q' ->
      let fnum = Fp2.Mut.alloc fp and fden = Fp2.Mut.alloc fp in
      Fp2.Mut.set_one fp fnum;
      Fp2.Mut.set_one fp fden;
      let sc = xx_scratch_alloc fp in
      let w = x1_walker_make prms ~xp:p'.x ~yp:p'.y ~xq:q'.x ~yq:q'.y in
      let q = prms.q in
      for i = Bigint.bit_length q - 2 downto 0 do
        Fp2.Mut.sqr_into fp fnum fnum;
        Fp2.Mut.sqr_into fp fden fden;
        x1_step fp sc w ~fnum ~fden (if Bigint.test_bit q i then 1 else 0)
      done;
      Fp2.mul fp fnum (Fp2.inv fp fden)

(* --- evaluating prepared pairings --- *)

(* One pass over the flat schedule: per op either an in-place GF(p^2)
   squaring of f, or a line evaluation — ONE base-field mul and one add,
   the imaginary part being Q's own y-coordinate (the lines are
   pre-scaled by 1/ly at preparation) — folded into f through the
   lazy-reduction product. The only per-call allocations are f itself
   (returned to the caller) and the reusable line value; the recorded
   coefficients are read in storage order. *)
let miller_prepared_xx prms ops lines qt =
  let fp = prms.fp in
  match qt with
  | Curve.Infinity -> Fp2.one fp
  | Curve.Affine q' ->
      let xq = q'.x and yq = q'.y in
      let f = Fp2.Mut.alloc fp in
      Fp2.Mut.set_one fp f;
      let lre = Fp.Mut.alloc fp in
      let line = Fp2.make ~re:lre ~im:yq in
      let li = ref 0 in
      for oi = 0 to Array.length ops - 1 do
        if ops.(oi) = 0 then Fp2.Mut.sqr_into fp f f
        else begin
          let a0 = lines.(!li) and ax = lines.(!li + 1) in
          li := !li + 2;
          Fp.Mut.mul_into fp lre ax xq;
          Fp.Mut.add_into fp lre a0 lre;
          Fp2.Mut.mul_into fp f f line
        end
      done;
      f

let miller_prepared_x1 prms steps qt =
  let fp = prms.fp in
  match qt with
  | Curve.Infinity -> Fp2.one fp
  | Curve.Affine q' ->
      let xq2 = Fp2.mul_fp fp q'.x prms.zeta in
      let yq = q'.y in
      let f_num = ref (Fp2.one fp) and f_den = ref (Fp2.one fp) in
      Array.iter
        (fun ops ->
          f_num := Fp2.sqr fp !f_num;
          f_den := Fp2.sqr fp !f_den;
          List.iter
            (function
              | Num_line { l0; lmx } ->
                  let v =
                    Fp2.add fp
                      (Fp2.of_fp fp (Fp.add fp l0 yq))
                      (Fp2.mul_fp fp lmx xq2)
                  in
                  f_num := Fp2.mul fp !f_num v
              | Num_vert x ->
                  f_num := Fp2.mul fp !f_num (Fp2.sub fp xq2 (Fp2.of_fp fp x))
              | Den_vert x ->
                  f_den := Fp2.mul fp !f_den (Fp2.sub fp xq2 (Fp2.of_fp fp x)))
            ops)
        steps;
      Fp2.mul fp !f_num (Fp2.inv fp !f_den)

let miller_loop_prepared prms prep qt =
  match prep with
  | Prep_inf -> Fp2.one prms.fp
  | Prep_xx { ops; lines; sqrs = _ } -> miller_prepared_xx prms ops lines qt
  | Prep_x1 steps -> miller_prepared_x1 prms steps qt

let miller_loop prms pt qt =
  match prms.family with
  | Y2_x3_x ->
      (* Pairings against the system generator — every verification
         equation and key-agreement has at least one — route through the
         construction-time prepared schedule: the same canonical Miller
         value (the recorded lines are the loop's own, canonical), with
         all the point arithmetic already paid for. *)
      if Curve.equal pt prms.g && Lazy.is_val prms.g_prep then
        miller_loop_prepared prms (Lazy.force prms.g_prep) qt
      else miller_loop_xx prms pt qt
  | Y2_x3_1 -> miller_loop_x1_jac prms pt qt

(* Functional-path dispatch, pinned as the reference the kernel path is
   measured and tested against. (The x^3 + 1 family has a single,
   functional implementation, shared by both dispatches.) *)
let miller_loop_ref prms pt qt =
  match prms.family with
  | Y2_x3_x -> miller_loop_xx_ref prms pt qt
  | Y2_x3_1 -> miller_loop_x1 prms pt qt

(* --- the product-of-pairings kernel ---

   prod_i f_{q,P_i}(phi Q_i) through ONE interleaved Miller loop: all
   walkers share a single f^2 squaring chain — with N pairs the dominant
   GF(p^2) squarings are paid once instead of N times — and every line
   evaluation folds into the same accumulator through the lazy-reduction
   product. Prepared schedules and live points mix freely; an xx-family
   pair whose first argument is the system generator is promoted to the
   construction-time prepared schedule.

   Schedule compatibility: interleaving requires every walker to square
   on the same step, i.e. identical squaring counts. Live xx walkers and
   NAF-recorded schedules all follow the NAF of q; a binary-fallback
   prepared schedule (degenerate recording) may differ in length by one,
   so it is evaluated on its own and multiplied in — as is any live pair
   whose walk hits the unmodelled coincident-addition case (low-order
   inputs; never order-q ones). The x1 family's binary schedule is fixed
   by q for every walker, so everything interleaves, with two shared
   chains (numerator/denominator) and a single merging inversion. *)

type pair_arg = Point of Curve.point | Prepared of prepared

exception Degenerate_pair of int

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
  (* xx-family prepared cursor: [ks_oi] walks [ks_ops] (each step
     consumes the recorded squaring — performed once, shared — then
     folds the step's lines), [ks_li] walks the pre-scaled line pairs.
     The line view's re is the file's shared line scratch; its im is an
     owned buffer the pair's yq is copied into. *)
  mutable ks_ops : int array;
  mutable ks_lines : Fp.t array;
  mutable ks_xq : Fp.t;
  ks_line : Fp2.t;
  mutable ks_oi : int;
  mutable ks_li : int;
  (* x1-family prepared stream: the recorded per-step line lists, the
     pair's zeta-scaled xq (owned buffers, recomputed per call) and yq. *)
  mutable ks_steps : x1_op list array;
  ks_xq2 : Fp2.t;
  mutable ks_yq : Fp.t;
}

type pk_file = {
  k_f : Fp2.t; (* xx accumulator / x1 numerator *)
  k_fden : Fp2.t; (* x1 denominator *)
  k_sc : xx_scratch;
  k_tbl : Fp2.t array; (* membership-test odd-power table *)
  k_acc : Fp2.t; (* membership-test accumulator *)
  mutable k_slots : pk_slot array;
}

let pk_key : (int * pk_file) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let pk_slot_make fp sc =
  let im = Fp.Mut.alloc fp in
  {
    ks_ops = [||];
    ks_lines = [||];
    ks_xq = im (* dummy; rebound before every use *);
    ks_line = Fp2.make ~re:sc.lre ~im;
    ks_oi = 0;
    ks_li = 0;
    ks_steps = [||];
    ks_xq2 = Fp2.Mut.alloc fp;
    ks_yq = im (* dummy; rebound before every use *);
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

let xx_product prms items =
  let fp = prms.fp in
  let n_sqrs = Array.length prms.q_naf - 1 in
  let file = pk_file fp in
  let sc = file.k_sc in
  let slots = pk_slots file fp (List.length items) in
  let extras = ref [] in
  let nprep = ref 0 and lives = ref [] in
  let classify_prep prep qt =
    match (prep, qt) with
    | Prep_inf, _ | _, Curve.Infinity -> ()
    | Prep_xx { ops; lines; sqrs }, Curve.Affine q' when sqrs = n_sqrs ->
        let s = slots.(!nprep) in
        s.ks_ops <- ops;
        s.ks_lines <- lines;
        s.ks_xq <- q'.x;
        Fp.Mut.set fp s.ks_line.Fp2.im q'.y;
        incr nprep
    | _ -> extras := miller_loop_prepared prms prep qt :: !extras
  in
  List.iter
    (fun (a, qt) ->
      match (a, qt) with
      | _, Curve.Infinity -> ()
      | Prepared prep, _ -> classify_prep prep qt
      | Point Curve.Infinity, _ -> ()
      | Point pt, _ when Curve.equal pt prms.g && Lazy.is_val prms.g_prep ->
          classify_prep (Lazy.force prms.g_prep) qt
      | Point (Curve.Affine _ as pt), _ -> lives := (pt, qt) :: !lives)
    items;
  let nprep = !nprep in
  let f = file.k_f in
  let rec attempt lives =
    let lv = Array.of_list lives in
    Fp2.Mut.set_one fp f;
    if nprep = 0 && Array.length lv = 0 then f
    else begin
      for k = 0 to nprep - 1 do
        slots.(k).ks_oi <- 0;
        slots.(k).ks_li <- 0
      done;
      let lws =
        Array.map
          (fun (pt, qt) ->
            match (pt, qt) with
            | Curve.Affine p', Curve.Affine q' ->
                xx_walker_make fp ~xp:p'.x ~yp:p'.y ~xq:q'.x ~yq:q'.y
            | _ -> assert false)
          lv
      in
      let digits = prms.q_naf in
      try
        for i = 1 to Array.length digits - 1 do
          Fp2.Mut.sqr_into fp f f;
          for k = 0 to nprep - 1 do
            let pw = slots.(k) in
            pw.ks_oi <- pw.ks_oi + 1 (* the recorded squaring, shared *);
            let ops = pw.ks_ops and lines = pw.ks_lines in
            while pw.ks_oi < Array.length ops && ops.(pw.ks_oi) = 1 do
              Fp.Mut.mul_into fp sc.lre lines.(pw.ks_li + 1) pw.ks_xq;
              Fp.Mut.add_into fp sc.lre lines.(pw.ks_li) sc.lre;
              pw.ks_li <- pw.ks_li + 2;
              Fp2.Mut.mul_into fp f f pw.ks_line;
              pw.ks_oi <- pw.ks_oi + 1
            done
          done;
          let d = digits.(i) in
          for k = 0 to Array.length lws - 1 do
            try xx_step fp sc lws.(k) f d
            with Degenerate_chain -> raise (Degenerate_pair k)
          done
        done;
        f
      with Degenerate_pair k ->
        (* The k-th live pair hit the coincident-operand degeneracy
           (low-order first argument): evaluate it alone on the binary
           mirror schedule and interleave the rest without it. *)
        let pt, qt = lv.(k) in
        extras := miller_loop_xx_bin prms pt qt :: !extras;
        attempt (List.filteri (fun j _ -> j <> k) lives)
    end
  in
  let f = attempt (List.rev !lives) in
  List.iter (fun m -> Fp2.Mut.mul_into fp f f m) !extras;
  f

(* One doubling step's worth of prepared lines, folded into the shared
   accumulators through the register file's line scratch. Top level on
   purpose: a [List.iter (function ...)] in the bit loop builds a fresh
   closure per slot per iteration — ~26 words/iteration, the last
   allocation the product kernel had left (and one the word-granular
   allocation counter rounds away: only the minor-GC rate exposed it). *)
let rec x1_fold_steps fp sc ~xq2 ~yq ~fnum ~fden steps =
  match steps with
  | [] -> ()
  | op :: tl ->
      (match op with
      | Num_line { l0; lmx } ->
          Fp.Mut.mul_into fp sc.lre lmx xq2.Fp2.re;
          Fp.Mut.add_into fp sc.lre sc.lre l0;
          Fp.Mut.add_into fp sc.lre sc.lre yq;
          Fp.Mut.mul_into fp sc.lim lmx xq2.Fp2.im;
          Fp2.Mut.mul_into fp fnum fnum sc.line
      | Num_vert x ->
          Fp.Mut.sub_into fp sc.lre xq2.Fp2.re x;
          Fp.Mut.set fp sc.lim xq2.Fp2.im;
          Fp2.Mut.mul_into fp fnum fnum sc.line
      | Den_vert x ->
          Fp.Mut.sub_into fp sc.lre xq2.Fp2.re x;
          Fp.Mut.set fp sc.lim xq2.Fp2.im;
          Fp2.Mut.mul_into fp fden fden sc.line);
      x1_fold_steps fp sc ~xq2 ~yq ~fnum ~fden tl

let x1_product prms items =
  let fp = prms.fp in
  let file = pk_file fp in
  let sc = file.k_sc in
  let slots = pk_slots file fp (List.length items) in
  let nprep = ref 0 and lives = ref [] in
  List.iter
    (fun (a, qt) ->
      match (a, qt) with
      | _, Curve.Infinity -> ()
      | Prepared Prep_inf, _ -> ()
      | Prepared (Prep_x1 steps), Curve.Affine q' ->
          let s = slots.(!nprep) in
          s.ks_steps <- steps;
          Fp.Mut.mul_into fp s.ks_xq2.Fp2.re prms.zeta.Fp2.re q'.x;
          Fp.Mut.mul_into fp s.ks_xq2.Fp2.im prms.zeta.Fp2.im q'.x;
          s.ks_yq <- q'.y;
          incr nprep
      | Prepared (Prep_xx _), _ ->
          invalid_arg "Pairing: xx-family prepared argument on an x1 family"
      | Point Curve.Infinity, _ -> ()
      | Point (Curve.Affine p'), Curve.Affine q' ->
          lives := (p'.x, p'.y, q'.x, q'.y) :: !lives)
    items;
  let nprep = !nprep in
  let lv = List.rev !lives in
  let fnum = file.k_f and fden = file.k_fden in
  Fp2.Mut.set_one fp fnum;
  if nprep = 0 && lv = [] then fnum
  else begin
    Fp2.Mut.set_one fp fden;
    let lws =
      Array.of_list
        (List.map (fun (xp, yp, xq, yq) -> x1_walker_make prms ~xp ~yp ~xq ~yq) lv)
    in
    let q = prms.q in
    let bits = Bigint.bit_length q in
    for i = bits - 2 downto 0 do
      Fp2.Mut.sqr_into fp fnum fnum;
      Fp2.Mut.sqr_into fp fden fden;
      let st = bits - 2 - i in
      (* Prepared lines evaluate through the shared line scratch — the
         same two buffers every walker's step uses — instead of building
         a functional GF(p^2) value per line (the per-call kiloword
         blowup this file exists to kill). *)
      for k = 0 to nprep - 1 do
        let s = slots.(k) in
        x1_fold_steps fp sc ~xq2:s.ks_xq2 ~yq:s.ks_yq ~fnum ~fden
          s.ks_steps.(st)
      done;
      let d = if Bigint.test_bit q i then 1 else 0 in
      for k = 0 to Array.length lws - 1 do
        x1_step fp sc lws.(k) ~fnum ~fden d
      done
    done;
    Fp2.Mut.inv_into fp fden fden;
    Fp2.Mut.mul_into fp fnum fnum fden;
    fnum
  end

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
       tbln.(0)'s im buffer moonlights as conj(f)'s im, and the lazy
       product reads its operands out before touching the destination. *)
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

let pairing prms pt qt = final_exponentiation prms (miller_loop prms pt qt)

let pairing_ref prms pt qt =
  final_exponentiation_ref prms (miller_loop_ref prms pt qt)

let pairing_product prms pairs =
  (* A GT value is wanted (not just a decision), so the full final
     exponentiation runs — but over ONE interleaved Miller loop. *)
  final_exponentiation prms (miller_product prms pairs)

let pairing_check prms pairs = check_product_one prms pairs

let pairing_equal_check prms ~lhs:(a, b) ~rhs:(c, d) =
  (* e(a,b) = e(c,d)  <=>  e(a,b) * e(c,-d) = 1 — one interleaved Miller
     loop and one membership test instead of two full pairings. The
     inverse is taken by negating the *point* argument (the distortion
     map commutes with negation), so a first argument equal to the
     system generator keeps its construction-time prepared schedule. *)
  check_product_one prms [ (a, b); (c, Curve.neg prms.curve d) ]

(* --- prepared pairing entry points --- *)

let pairing_prepared prms prep qt =
  final_exponentiation prms (miller_loop_prepared prms prep qt)

let prepared_args pairs = List.map (fun (prep, qt) -> (Prepared prep, qt)) pairs

let pairing_product_prepared prms pairs =
  final_exponentiation prms (miller_product_mixed prms (prepared_args pairs))

let pairing_check_prepared prms pairs =
  check_product_one_mixed prms (prepared_args pairs)

let pairing_equal_check_prepared prms ~lhs:(a, b) ~rhs:(c, d) =
  (* Prepared first arguments cannot be negated, but e(c,d)^-1 = e(c,-d)
     (the distortion map commutes with negation), so negate the point
     argument instead. *)
  check_product_one_mixed prms
    [ (Prepared a, b); (Prepared c, Curve.neg prms.curve d) ]

let mul_g prms k = Curve.Table.mul (Lazy.force prms.g_table) k

let in_g1 prms point =
  Curve.on_curve prms.curve point && Curve.mul_is_infinity prms.curve prms.q point

let ddh prms base a b c = pairing_equal_check prms ~lhs:(a, b) ~rhs:(base, c)

(* --- H2 --- *)

let h2 prms k n = Hashing.Kdf.mask ("TRE-H2|" ^ Fp2.to_bytes prms.fp k) n
