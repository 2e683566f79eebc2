(* Verifiable pairing outsourcing (OMTUP: two untrusted helpers).

   Blinding layout for one delegated e^(A, B), secrets x1 x2 x5 x6
   (main) and x3 x4 (test), V_i = x_i.G:

     helper 1:  alpha0 = e^(A+V1, B+V2)        alpha1 = e^(V3, V4)
     helper 2:  beta0  = e^(-V1,  B+V6)
                beta1  = e^(A+V5, -V2)         beta2  = e^(V3, V4)

   Writing A = a.G, B = b.G and working in exponents of e^(G, G):

     alpha0 = e^(A,B) . g^(a x2 + x1 b + x1 x2)
     beta0  =          g^(-x1 b - x1 x6)
     beta1  =          g^(-a x2 - x5 x2)

   so alpha0.beta0.beta1 = e^(A,B) . g^(x1 x2 - x1 x6 - x5 x2), and
   with w_chi = x1 x6 + x5 x2 - x1 x2 (mod q), chi = g^w_chi:

     e^(A, B) = alpha0 . beta0 . beta1 . chi          -- 3 GT mults.

   No helper sees both halves of a cancelling pair (V1 appears at
   helper 2 only negated and paired against B+V6, whose x6 helper 2
   never sees un-paired), so neither can strip the blinding alone.
   Collusion cancels it — out of model, documented in the .mli. *)

type ctx = { prms : Pairing.params; gt_g : Fp2.t }

let make prms = { prms; gt_g = Pairing.pairing prms prms.Pairing.g prms.Pairing.g }

type blinding = {
  v1 : Curve.point;
  v2 : Curve.point;
  v5 : Curve.point;
  v6 : Curve.point;
  v3 : Curve.point;
  v4 : Curve.point;
  w_chi : Bigint.t;  (* x1 x6 + x5 x2 - x1 x2 (mod q) *)
  w_34 : Bigint.t;   (* x3 x4 (mod q) *)
  chi : Fp2.t;       (* e^(G,G)^w_chi: the unblinding correction *)
  chi34 : Fp2.t;     (* e^(G,G)^w_34: the anchored test-slot value *)
  mutable spent : bool;
}

let random_small_exponent prms drbg =
  let q = prms.Pairing.q in
  let raw =
    String.fold_left
      (fun acc ch -> Bigint.add (Bigint.shift_left acc 8) (Bigint.of_int (Char.code ch)))
      Bigint.zero
      (Hashing.Drbg.generate drbg 16)
  in
  let upper = Bigint.min q (Bigint.shift_left Bigint.one 64) in
  Bigint.succ (Bigint.erem raw (Bigint.pred upper))

let blind ctx drbg =
  let prms = ctx.prms in
  let q = prms.Pairing.q in
  let s () = Pairing.random_scalar prms drbg in
  let x1 = s () and x2 = s () and x3 = s () and x4 = s () and x5 = s () and x6 = s () in
  let w_chi =
    Bigint.erem
      (Bigint.sub (Bigint.add (Bigint.mul x1 x6) (Bigint.mul x5 x2)) (Bigint.mul x1 x2))
      q
  in
  let w_34 = Bigint.erem (Bigint.mul x3 x4) q in
  {
    v1 = Pairing.mul_g prms x1;
    v2 = Pairing.mul_g prms x2;
    v5 = Pairing.mul_g prms x5;
    v6 = Pairing.mul_g prms x6;
    v3 = Pairing.mul_g prms x3;
    v4 = Pairing.mul_g prms x4;
    w_chi;
    w_34;
    chi = Pairing.gt_pow prms ctx.gt_g w_chi;
    chi34 = Pairing.gt_pow prms ctx.gt_g w_34;
    spent = false;
  }

(* One randomized product equation covers the whole tuple: with fresh
   short t1, t2,

     e^(t1.V1, V6) . e^(t1.V5, V2) . e^(-t1.V1, V2) . e^(-t1.w_chi.G, G)
     . e^(t2.V3, V4) . e^(-t2.w_34.G, G)
     = g^( t1 (x1 x6 + x5 x2 - x1 x2 - w_chi) + t2 (x3 x4 - w_34) ) = 1

   iff both stored exponents match the stored points (up to the 2^-64
   slip of a t-collision). One interleaved Miller loop, decision only. *)
let audit ctx drbg bl =
  let prms = ctx.prms in
  let q = prms.Pairing.q in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let t1 = random_small_exponent prms drbg in
  let t2 = random_small_exponent prms drbg in
  let mul k p = Curve.mul curve k p in
  let neg_w t w = Pairing.mul_g prms (Bigint.erem (Bigint.neg (Bigint.mul t w)) q) in
  List.for_all (Pairing.in_g1 prms) [ bl.v1; bl.v2; bl.v3; bl.v4; bl.v5; bl.v6 ]
  && Pairing.gt_equal bl.chi (Pairing.gt_pow prms ctx.gt_g bl.w_chi)
  && Pairing.gt_equal bl.chi34 (Pairing.gt_pow prms ctx.gt_g bl.w_34)
  && Pairing.check_product_one prms
       [
         (mul t1 bl.v1, bl.v6);
         (mul t1 bl.v5, bl.v2);
         (Curve.neg curve (mul t1 bl.v1), bl.v2);
         (neg_w t1 bl.w_chi, g);
         (mul t2 bl.v3, bl.v4);
         (neg_w t2 bl.w_34, g);
       ]

type wrap = {
  wq1 : (Curve.point * Curve.point) array;
  wq2 : (Curve.point * Curve.point) array;
  wchi : Fp2.t;
  wchi34 : Fp2.t;
}

let wrap ctx bl ~a ~b =
  let curve = ctx.prms.Pairing.curve in
  if bl.spent then invalid_arg "Delegate.wrap: blinding tuple already spent";
  if Curve.is_infinity a || Curve.is_infinity b then
    invalid_arg "Delegate.wrap: infinity argument";
  bl.spent <- true;
  let av1, bv2, bv6, av5 =
    match Curve.add_many curve [| (a, bl.v1); (b, bl.v2); (b, bl.v6); (a, bl.v5) |] with
    | [| av1; bv2; bv6; av5 |] -> (av1, bv2, bv6, av5)
    | _ -> assert false
  in
  if
    Curve.is_infinity av1 || Curve.is_infinity bv2 || Curve.is_infinity bv6
    || Curve.is_infinity av5
  then invalid_arg "Delegate.wrap: blinded point collapsed to infinity";
  {
    wq1 = [| (av1, bv2); (bl.v3, bl.v4) |];
    wq2 =
      [|
        (Curve.neg curve bl.v1, bv6);
        (av5, Curve.neg curve bl.v2);
        (bl.v3, bl.v4);
      |];
    wchi = bl.chi;
    wchi34 = bl.chi34;
  }

let queries1 w = w.wq1
let queries2 w = w.wq2

let serve prms queries = Array.map (fun (p, q) -> Pairing.pairing prms p q) queries

let unwrap ctx w ~resp1 ~resp2 =
  let prms = ctx.prms in
  if Array.length resp1 <> 2 || Array.length resp2 <> 3 then
    Error "helper response arity mismatch"
  else if
    not
      (Pairing.gt_equal resp1.(1) w.wchi34 && Pairing.gt_equal resp2.(2) w.wchi34)
  then Error "anchored test slot mismatch"
  else
    Ok
      (Pairing.gt_mul prms
         (Pairing.gt_mul prms (Pairing.gt_mul prms resp1.(0) resp2.(0)) resp2.(1))
         w.wchi)

type transport = (Curve.point * Curve.point) array -> Fp2.t array

type mode = Published | Hardened

let in_gt prms v =
  (not (Fp2.is_zero prms.Pairing.fp v))
  && Fp2.is_one prms.Pairing.fp (Pairing.gt_pow prms v prms.Pairing.q)

(* The hardened acceptance test "R_a, R_b in GT and R_b = R_a^c" needs
   only R_a's membership exponentiation when it holds: R_a^c is in GT
   whenever R_a is. R_b's own test runs only once the equation has
   failed, to report the same error as testing both first would. *)

let degenerate prms v = Fp2.is_zero prms.Pairing.fp v || Fp2.is_one prms.Pairing.fp v

(* Run both blinded delegations and apply [mode]'s acceptance test.
   [target_b] is B for Published and c.B for Hardened; the caller
   decides what relation ties the two recovered values together. *)
let run_two ctx drbg ~helper1 ~helper2 ?blindings ~a ~b_a ~b_b () =
  let bl_a, bl_b =
    match blindings with
    | Some pair -> pair
    | None -> (blind ctx drbg, blind ctx drbg)
  in
  let wa = wrap ctx bl_a ~a ~b:b_a in
  let wb = wrap ctx bl_b ~a ~b:b_b in
  let ra1 = helper1 wa.wq1 in
  let ra2 = helper2 wa.wq2 in
  let rb1 = helper1 wb.wq1 in
  let rb2 = helper2 wb.wq2 in
  match (unwrap ctx wa ~resp1:ra1 ~resp2:ra2, unwrap ctx wb ~resp1:rb1 ~resp2:rb2) with
  | Ok r_a, Ok r_b -> Ok (r_a, r_b, [ ra1; ra2; rb1; rb2 ])
  | (Error _ as e), _ | _, (Error _ as e) ->
      (match e with Ok _ -> assert false | Error m -> Error m)

let pair ctx ~mode ?blindings drbg ~helper1 ~helper2 ~a ~b =
  let prms = ctx.prms in
  match mode with
  | Published -> (
      (* The paper's check: duplicate the run, compare. A helper that
         shifts the main slot of BOTH runs by one factor mu passes —
         the Liu-Cao forgery, mounted in test_delegate.ml. *)
      match run_two ctx drbg ~helper1 ~helper2 ?blindings ~a ~b_a:b ~b_b:b () with
      | Error _ as e -> e
      | Ok (r_a, r_b, _) ->
          if Pairing.gt_equal r_a r_b then Ok r_a
          else Error "cross-run values disagree")
  | Hardened -> (
      let c = random_small_exponent prms drbg in
      let b_c = Curve.mul prms.Pairing.curve c b in
      match run_two ctx drbg ~helper1 ~helper2 ?blindings ~a ~b_a:b ~b_b:b_c () with
      | Error _ as e -> e
      | Ok (r_a, r_b, responses) ->
          if List.exists (fun r -> Array.exists (degenerate prms) r) responses then
            Error "degenerate helper response slot"
          else if not (in_gt prms r_a) then Error "recovered value outside GT"
          else if Pairing.gt_equal r_b (Pairing.gt_pow prms r_a c) then Ok r_a
          else if not (in_gt prms r_b) then Error "recovered value outside GT"
          else Error "secret-exponent cross-run equation failed")

let equal_with ctx ?blindings drbg ~helper1 ~helper2 ~c ~lhs:(l1, l2c) ~rhs:(r1, r2) =
  let prms = ctx.prms in
  let bl1, bl2 =
    match blindings with
    | Some pair -> pair
    | None -> (blind ctx drbg, blind ctx drbg)
  in
  let wl = wrap ctx bl1 ~a:l1 ~b:l2c in
  let wr = wrap ctx bl2 ~a:r1 ~b:r2 in
  let rl1 = helper1 wl.wq1 in
  let rl2 = helper2 wl.wq2 in
  let rr1 = helper1 wr.wq1 in
  let rr2 = helper2 wr.wq2 in
  match (unwrap ctx wl ~resp1:rl1 ~resp2:rl2, unwrap ctx wr ~resp1:rr1 ~resp2:rr2) with
  | (Error _ as e), _ | _, (Error _ as e) ->
      (match e with Ok _ -> assert false | Error m -> Error m)
  | Ok l', Ok r' ->
      if List.exists (fun r -> Array.exists (degenerate prms) r) [ rl1; rl2; rr1; rr2 ]
      then Error "degenerate helper response slot"
      else if not (in_gt prms r') then Error "recovered value outside GT"
      else if Pairing.gt_equal l' (Pairing.gt_pow prms r' c) then Ok true
      else if not (in_gt prms l') then Error "recovered value outside GT"
      else Ok false

let equal ctx ?blindings drbg ~helper1 ~helper2 ~lhs:(l1, l2) ~rhs =
  let c = random_small_exponent ctx.prms drbg in
  let l2c = Curve.mul ctx.prms.Pairing.curve c l2 in
  equal_with ctx ?blindings drbg ~helper1 ~helper2 ~c ~lhs:(l1, l2c) ~rhs
