(* The heart of the reproduction: the modified Tate pairing must be
   bilinear, non-degenerate and consistent across parameter sets, and the
   DDH oracle it induces must decide DDH correctly (the "Gap" property of
   Section 4 of the paper). *)

module B = Bigint

let prms = Pairing.toy64 ()
let curve = prms.Pairing.curve
let g = prms.Pairing.g
let q = prms.Pairing.q
let rng = Hashing.Drbg.create ~seed:"pairing-tests" ()

let gt = Alcotest.testable (Fp2.pp prms.Pairing.fp) Fp2.equal

let gen_scalar = QCheck2.Gen.(map B.of_int (int_range 1 1_000_000))

let test_non_degenerate () =
  let e_gg = Pairing.pairing prms g g in
  Alcotest.(check bool) "e(G,G) <> 1" false (Pairing.gt_equal e_gg (Pairing.gt_one prms));
  (* e(G,G) has order exactly q: killed by q, not by smaller shown via q prime. *)
  Alcotest.check gt "e(G,G)^q = 1" (Pairing.gt_one prms) (Pairing.gt_pow prms e_gg q)

let test_infinity_pairs_to_one () =
  Alcotest.check gt "e(O,G) = 1" (Pairing.gt_one prms)
    (Pairing.pairing prms Curve.infinity g);
  Alcotest.check gt "e(G,O) = 1" (Pairing.gt_one prms)
    (Pairing.pairing prms g Curve.infinity)

let prop_bilinear_left =
  QCheck2.Test.make ~name:"e(aP,Q) = e(P,Q)^a" ~count:25 gen_scalar (fun a ->
      let lhs = Pairing.pairing prms (Curve.mul curve a g) g in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) a in
      Pairing.gt_equal lhs rhs)

let prop_bilinear_right =
  QCheck2.Test.make ~name:"e(P,bQ) = e(P,Q)^b" ~count:25 gen_scalar (fun b ->
      let lhs = Pairing.pairing prms g (Curve.mul curve b g) in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) b in
      Pairing.gt_equal lhs rhs)

let prop_bilinear_full =
  QCheck2.Test.make ~name:"e(aP,bQ) = e(P,Q)^ab" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let lhs = Pairing.pairing prms (Curve.mul curve a g) (Curve.mul curve b g) in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) (B.mul a b) in
      Pairing.gt_equal lhs rhs)

let prop_additive_in_first =
  QCheck2.Test.make ~name:"e(P1+P2,Q) = e(P1,Q).e(P2,Q)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p1 = Curve.mul curve a g and p2 = Curve.mul curve b g in
      let lhs = Pairing.pairing prms (Curve.add curve p1 p2) g in
      let rhs = Pairing.gt_mul prms (Pairing.pairing prms p1 g) (Pairing.pairing prms p2 g) in
      Pairing.gt_equal lhs rhs)

let prop_additive_in_second =
  QCheck2.Test.make ~name:"e(P,Q1+Q2) = e(P,Q1).e(P,Q2)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let q1 = Curve.mul curve a g and q2 = Curve.mul curve b g in
      let lhs = Pairing.pairing prms g (Curve.add curve q1 q2) in
      let rhs = Pairing.gt_mul prms (Pairing.pairing prms g q1) (Pairing.pairing prms g q2) in
      Pairing.gt_equal lhs rhs)

let prop_hashed_points_pair_consistently =
  (* Bilinearity must also hold on hash-derived points (the H1 images the
     schemes actually pair). *)
  QCheck2.Test.make ~name:"e(a.H1(s), G) = e(H1(s), aG)" ~count:10
    QCheck2.Gen.(pair gen_scalar (small_string ~gen:printable))
    (fun (a, s) ->
      let h = Pairing.hash_to_g1 prms s in
      Pairing.gt_equal
        (Pairing.pairing prms (Curve.mul curve a h) g)
        (Pairing.pairing prms h (Curve.mul curve a g)))

let test_pairing_product () =
  (* prod of pairings with shared final exponentiation must equal the
     product of individual pairings. *)
  let pts = List.map (fun k -> Curve.mul curve (B.of_int k) g) [ 3; 5; 7; 11 ] in
  let pairs = List.map (fun p -> (p, Curve.mul curve (B.of_int 13) p)) pts in
  let expected =
    List.fold_left
      (fun acc (a, b) -> Pairing.gt_mul prms acc (Pairing.pairing prms a b))
      (Pairing.gt_one prms) pairs
  in
  Alcotest.check gt "product" expected (Pairing.pairing_product prms pairs);
  Alcotest.check gt "empty product" (Pairing.gt_one prms) (Pairing.pairing_product prms []);
  (* check_product_one: e(aG, bG) * e(-abG, G) = 1. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  Alcotest.(check bool) "check true" true
    (Pairing.check_product_one prms
       [
         (Curve.mul curve a g, Curve.mul curve b g);
         (Curve.neg curve (Curve.mul curve ab g), g);
       ]);
  Alcotest.(check bool) "check false" false
    (Pairing.check_product_one prms
       [ (Curve.mul curve a g, Curve.mul curve b g); (Curve.neg curve g, g) ]);
  (* equal_check agrees with naive comparison. *)
  Alcotest.(check bool) "equal_check true" true
    (Pairing.pairing_equal_check prms
       ~lhs:(Curve.mul curve a g, Curve.mul curve b g)
       ~rhs:(g, Curve.mul curve ab g));
  Alcotest.(check bool) "equal_check false" false
    (Pairing.pairing_equal_check prms
       ~lhs:(Curve.mul curve a g, Curve.mul curve b g)
       ~rhs:(g, g))

let test_ddh_oracle () =
  for _ = 1 to 10 do
    let x = Pairing.random_scalar prms rng and y = Pairing.random_scalar prms rng in
    let a = Curve.mul curve x g and b = Curve.mul curve y g in
    let good = Curve.mul curve (B.erem (B.mul x y) q) g in
    Alcotest.(check bool) "accepts DDH tuple" true (Pairing.ddh prms g a b good);
    let z = Pairing.random_scalar prms rng in
    if not (B.equal z (B.erem (B.mul x y) q)) then begin
      let bad = Curve.mul curve z g in
      Alcotest.(check bool) "rejects non-DDH tuple" false (Pairing.ddh prms g a b bad)
    end
  done

let test_pairing_symmetric () =
  (* With a distortion map, e^(P,Q) = e^(Q,P) on the cyclic subgroup. *)
  let a = Curve.mul curve (B.of_int 123456) g in
  let b = Curve.mul curve (B.of_int 987654) g in
  Alcotest.check gt "symmetric" (Pairing.pairing prms a b) (Pairing.pairing prms b a)

let test_gt_ops () =
  let e = Pairing.pairing prms g g in
  Alcotest.check gt "inv" (Pairing.gt_one prms) (Pairing.gt_mul prms e (Pairing.gt_inv prms e));
  Alcotest.check gt "pow 0" (Pairing.gt_one prms) (Pairing.gt_pow prms e B.zero);
  Alcotest.check gt "pow 1" e (Pairing.gt_pow prms e B.one)

let test_all_parameter_sets_valid () =
  (* Forces validation inside Pairing.make for every named set and checks
     a pairing identity at each size. *)
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("missing params " ^ name)
      | Some prms ->
          let g = prms.Pairing.g in
          let curve = prms.Pairing.curve in
          let a = B.of_int 7 and b = B.of_int 11 in
          let lhs =
            Pairing.pairing prms (Curve.mul curve a g) (Curve.mul curve b g)
          in
          let rhs =
            Pairing.gt_pow prms (Pairing.pairing prms g g) (B.of_int 77)
          in
          Alcotest.(check bool) (name ^ " bilinear") true (Pairing.gt_equal lhs rhs))
    Pairing.all_names

let test_by_name_unknown () =
  Alcotest.(check bool) "unknown" true (Pairing.by_name "nope" = None)

let test_make_validation () =
  (* q does not divide p+1. *)
  let p = B.of_string "0x83b0f2e27d38d3059d8287" in
  Alcotest.check_raises "bad q"
    (Invalid_argument "Pairing.make: q does not divide p+1") (fun () ->
      ignore (Pairing.make ~name:"bad" ~p ~q:(B.of_int 101) ()));
  Alcotest.check_raises "p not prime"
    (Invalid_argument "Pairing.make: p not prime") (fun () ->
      ignore (Pairing.make ~name:"bad" ~p:(B.of_int 100) ~q:(B.of_int 101) ()))

let test_h2_properties () =
  let e = Pairing.pairing prms g g in
  let m1 = Pairing.h2 prms e 32 and m2 = Pairing.h2 prms e 32 in
  Alcotest.(check string) "deterministic" m1 m2;
  Alcotest.(check int) "length" 100 (String.length (Pairing.h2 prms e 100));
  let e' = Pairing.gt_pow prms e B.two in
  Alcotest.(check bool) "different inputs differ" false (Pairing.h2 prms e' 32 = m1)

(* --- the second curve family: y^2 = x^3 + 1, distortion zeta --- *)

let test_family2_bilinear_nondegenerate () =
  let prms = Pairing.toy64b () in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  Alcotest.(check bool) "family recorded" true (prms.Pairing.family = Pairing.Y2_x3_1);
  let e_gg = Pairing.pairing prms g g in
  Alcotest.(check bool) "non-degenerate" false
    (Pairing.gt_equal e_gg (Pairing.gt_one prms));
  Alcotest.(check bool) "order q" true
    (Pairing.gt_equal (Pairing.gt_pow prms e_gg prms.Pairing.q) (Pairing.gt_one prms));
  (* Bilinearity over a grid of scalars. *)
  List.iter
    (fun (a, b) ->
      let lhs =
        Pairing.pairing prms
          (Curve.mul curve (B.of_int a) g)
          (Curve.mul curve (B.of_int b) g)
      in
      let rhs = Pairing.gt_pow prms e_gg (B.of_int (a * b)) in
      Alcotest.(check bool)
        (Printf.sprintf "e(%dG,%dG) = e(G,G)^%d" a b (a * b))
        true (Pairing.gt_equal lhs rhs))
    [ (2, 3); (7, 11); (1, 999); (123, 456); (65537, 2) ];
  (* Symmetry and additivity. *)
  let p1 = Curve.mul curve (B.of_int 1234) g in
  let p2 = Curve.mul curve (B.of_int 98765) g in
  Alcotest.(check bool) "symmetric" true
    (Pairing.gt_equal (Pairing.pairing prms p1 p2) (Pairing.pairing prms p2 p1));
  Alcotest.(check bool) "additive" true
    (Pairing.gt_equal
       (Pairing.pairing prms (Curve.add curve p1 p2) g)
       (Pairing.gt_mul prms (Pairing.pairing prms p1 g) (Pairing.pairing prms p2 g)))

let test_family2_full_tre_roundtrip () =
  (* The whole scheme stack must run unchanged over the second GDH-group
     instantiation — the paper's "any Gap Diffie-Hellman group". *)
  let prms = Pairing.toy64b () in
  let rng = Hashing.Drbg.create ~seed:"family2-tre" () in
  let srv_sec, srv_pub = Tre.Server.keygen prms rng in
  let alice_sec, alice_pub = Tre.User.keygen prms srv_pub rng in
  Alcotest.(check bool) "receiver key validates" true
    (Tre.validate_receiver_key prms srv_pub alice_pub);
  let t = "family2-epoch" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t rng "over x^3 + 1" in
  let upd = Tre.issue_update prms srv_sec t in
  Alcotest.(check bool) "update verifies" true (Tre.verify_update prms srv_pub upd);
  Alcotest.(check string) "roundtrip" "over x^3 + 1" (Tre.decrypt prms alice_sec upd ct);
  (* Wrong update still yields garbage. *)
  let other = Tre.issue_update prms srv_sec "other" in
  let relabeled = { other with Tre.update_time = t } in
  Alcotest.(check bool) "time lock" false
    (Tre.decrypt prms alice_sec relabeled ct = "over x^3 + 1")

let test_family2_ddh_and_products () =
  let prms = Pairing.toy64b () in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:"family2-ddh" () in
  let x = Pairing.random_scalar prms rng and y = Pairing.random_scalar prms rng in
  let xy = B.erem (B.mul x y) prms.Pairing.q in
  Alcotest.(check bool) "ddh accepts" true
    (Pairing.ddh prms g (Curve.mul curve x g) (Curve.mul curve y g)
       (Curve.mul curve xy g));
  Alcotest.(check bool) "ddh rejects" false
    (Pairing.ddh prms g (Curve.mul curve x g) (Curve.mul curve y g) g);
  (* pairing_product consistency (exercises the per-miller inversion). *)
  let pairs = [ (Curve.mul curve x g, g); (g, Curve.mul curve y g) ] in
  let expected =
    Pairing.gt_mul prms
      (Pairing.pairing prms (Curve.mul curve x g) g)
      (Pairing.pairing prms g (Curve.mul curve y g))
  in
  Alcotest.(check bool) "product" true
    (Pairing.gt_equal expected (Pairing.pairing_product prms pairs))

let test_family2_make_validation () =
  (* Family-1 parameters (p = 1 mod 3) must be refused for family 2. *)
  let p = B.of_string "0x83b0f2e27d38d3059d8287" in
  let q = B.of_string "0xa2a8bbf28af65885" in
  if B.equal (B.erem p (B.of_int 3)) (B.of_int 2) then () (* wrong fixture *)
  else
    Alcotest.check_raises "family mismatch"
      (Invalid_argument "Pairing.make: p must be 2 mod 3 for the x^3 + 1 family")
      (fun () -> ignore (Pairing.make ~family:Pairing.Y2_x3_1 ~name:"bad" ~p ~q ()))

(* --- prepared (precomputed Miller-loop) pairings --- *)

(* Bit-identity, not just gt_equal: prepared pairings must return the very
   same canonical field element, so cached values are interchangeable with
   freshly computed ones everywhere in the schemes. *)
let check_prepared_equivalence prms =
  let name = prms.Pairing.name in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let h = Pairing.hash_to_g1 prms ("prep-" ^ name) in
  let pts =
    [ g; h; Curve.mul curve (B.of_int 7) g; Curve.neg curve h;
      Curve.mul curve (B.pred q) g; Curve.infinity ]
  in
  List.iter
    (fun p ->
      let prep = Pairing.prepare prms p in
      List.iter
        (fun q' ->
          let plain = Pairing.pairing prms p q' in
          let fast = Pairing.pairing_prepared prms prep q' in
          Alcotest.(check bool)
            (Printf.sprintf "%s: prepared = plain" name)
            true (Fp2.equal plain fast))
        pts)
    pts;
  (* Product / check / equal_check variants. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  let pa = Curve.mul curve a g and pb = Curve.mul curve b g in
  let prep_pa = Pairing.prepare prms pa in
  Alcotest.(check bool) (name ^ ": product prepared") true
    (Fp2.equal
       (Pairing.pairing_product prms [ (pa, pb); (h, g) ])
       (Pairing.final_exponentiation prms
          (Pairing.miller_product_mixed prms
             [ (Pairing.Prepared prep_pa, pb);
               (Pairing.Prepared (Pairing.prepare prms h), g) ])));
  Alcotest.(check bool) (name ^ ": check prepared true") true
    (Pairing.check_product_one_mixed prms
       [ (Pairing.Prepared prep_pa, pb);
         (Pairing.Prepared
            (Pairing.prepare prms (Curve.neg curve (Curve.mul curve ab g))), g) ]);
  Alcotest.(check bool) (name ^ ": check prepared false") false
    (Pairing.check_product_one_mixed prms
       [ (Pairing.Prepared prep_pa, pb);
         (Pairing.Prepared (Pairing.prepare prms (Curve.neg curve g)), g) ]);
  Alcotest.(check bool) (name ^ ": equal_check prepared true") true
    (Pairing.pairing_equal_check_prepared prms
       ~lhs:(prep_pa, pb)
       ~rhs:(prms.Pairing.g_prep, Curve.mul curve ab g));
  Alcotest.(check bool) (name ^ ": equal_check prepared false") false
    (Pairing.pairing_equal_check_prepared prms
       ~lhs:(prep_pa, pb)
       ~rhs:(prms.Pairing.g_prep, g));
  (* Fixed-base comb multiplication of the generator. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (name ^ ": mul_g = mul") true
        (Curve.equal (Pairing.mul_g prms k) (Curve.mul curve k g)))
    [ B.zero; B.one; B.of_int 2; B.pred q; q; B.succ q ]

let test_prepared_toy_sets () =
  check_prepared_equivalence (Pairing.toy64 ());
  check_prepared_equivalence (Pairing.toy64b ())

let test_prepared_all_sets () =
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("missing params " ^ name)
      | Some prms -> check_prepared_equivalence prms)
    Pairing.all_names

let prop_prepared_random_points =
  QCheck2.Test.make ~name:"prepared pairing = plain pairing (random)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p = Curve.mul curve a g and q' = Curve.mul curve b g in
      Fp2.equal
        (Pairing.pairing prms p q')
        (Pairing.pairing_prepared prms (Pairing.prepare prms p) q'))

(* --- kernel vs pinned reference: the fast pairing stack (NAF Miller
   loop, cyclotomic final exponentiation, generator fast-path) must stay
   bit-identical to the functional reference route --- *)

(* First arguments of small odd order l | h, built as [(p+1)/l]X from
   hashed curve points X (up to three per l; a multiple that lands on
   infinity is skipped). These are the inputs that reach the degenerate
   branch: the NAF walk meets coincident addition operands (T = dP) when
   ord(P) divides k - d for a NAF prefix k of q, and at these orders that
   happens for every such point of toy64 (l in {5, 7, 35, 139}) and
   mid128 (l in {3, 9}). The [q]X points of the older low-order cases
   have a large order dividing h and never degenerate; they stay as the
   off-G1 inputs that do not. std160's cofactor has no odd factor below
   200 (only 2 and 4), and points of order 2, 4 or 8 never reached the
   branch on any set, so std160 contributes no points here. The
   y^2 = x^3 + 1 sets (toy64b: l = 3; mid128b: l in {3, 31, 93}) have no
   degenerate branch; their points pin the kernel's branch-for-branch
   mirror of the reference. *)
let small_order_points prms ~tag = List.map snd (Small_order.odd_order prms ~tag)

let check_kernel_vs_reference prms =
  let name = prms.Pairing.name in
  let fp = prms.Pairing.fp in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let rng = Hashing.Drbg.create ~seed:("kernel-diff-" ^ name) () in
  let rand_pt () = Curve.mul curve (Pairing.random_scalar prms rng) g in
  (* Full pairing: bit-identity on random subgroup points, on the
     generator fast-path (first argument = G hits the prepared
     schedule), and on infinity in either slot. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (name ^ ": pairing = pairing_ref") true
        (Fp2.equal (Pairing.pairing prms a b) (Pairing.pairing_ref prms a b)))
    [ (g, g); (rand_pt (), rand_pt ()); (g, rand_pt ()); (rand_pt (), g);
      (Curve.infinity, g); (g, Curve.infinity);
      (Curve.infinity, Curve.infinity) ];
  (* Miller loops: the raw NAF and binary accumulators differ by GF(p)*
     factors, so their contract is agreement after (the pinned generic)
     final exponentiation. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (name ^ ": miller loops agree post-exp") true
        (Fp2.equal
           (Pairing.final_exponentiation_ref prms (Pairing.miller_loop prms a b))
           (Pairing.final_exponentiation_ref prms
              (Pairing.miller_loop_ref prms a b))))
    [ (rand_pt (), rand_pt ()); (g, rand_pt ()); (rand_pt (), g) ];
  (* Cyclotomic final exponentiation: bit-identical to the generic path
     on EVERY nonzero input, not just Miller values — the easy part
     f^(p-1) lands in the norm-1 subgroup from any starting point. *)
  let rand_fp () =
    Fp.of_bigint fp
      (B.erem
         (B.of_bytes_be (Hashing.Drbg.generate rng (Fp.byte_length fp + 3)))
         prms.Pairing.p)
  in
  for _ = 1 to 8 do
    let f = Fp2.make ~re:(rand_fp ()) ~im:(rand_fp ()) in
    if not (Fp2.is_zero fp f) then
      Alcotest.(check bool) (name ^ ": final exp bit-identical") true
        (Fp2.equal
           (Pairing.final_exponentiation prms f)
           (Pairing.final_exponentiation_ref prms f))
  done;
  let mv = Pairing.miller_loop_ref prms (rand_pt ()) (rand_pt ()) in
  Alcotest.(check bool) (name ^ ": final exp on a miller value") true
    (Fp2.equal
       (Pairing.final_exponentiation prms mv)
       (Pairing.final_exponentiation_ref prms mv));
  Alcotest.(check bool) (name ^ ": final exp of 1 is 1") true
    (Fp2.equal
       (Pairing.final_exponentiation prms (Fp2.one fp))
       (Pairing.final_exponentiation_ref prms (Fp2.one fp)));
  (* Off-G1 first arguments [q]X (order a large divisor of the cofactor,
     even orders included): the NAF walk does not degenerate on these,
     and the kernel must still match the reference bit for bit. *)
  let qpt = rand_pt () in
  List.iter
    (fun i ->
      let l =
        Curve.mul curve q
          (Pairing.hash_to_g1_unclamped prms (Printf.sprintf "low-%s-%d" name i))
      in
      Alcotest.(check bool) (name ^ ": low-order pairing = ref") true
        (Fp2.equal (Pairing.pairing prms l qpt) (Pairing.pairing_ref prms l qpt)))
    [ 1; 2; 3; 4 ];
  (* Small-order first arguments reach the degenerate branch, live and
     through [prepare]; still bit-identical. *)
  List.iter
    (fun l ->
      let expected = Pairing.pairing_ref prms l qpt in
      Alcotest.(check bool) (name ^ ": small-order pairing = ref") true
        (Fp2.equal (Pairing.pairing prms l qpt) expected);
      Alcotest.(check bool) (name ^ ": small-order prepared = ref") true
        (Fp2.equal
           (Pairing.pairing_prepared prms (Pairing.prepare prms l) qpt)
           expected))
    (small_order_points prms ~tag:"small")

let test_kernel_vs_ref_toy () =
  check_kernel_vs_reference (Pairing.toy64 ());
  check_kernel_vs_reference (Pairing.toy64b ())

let test_kernel_vs_ref_all_sets () =
  List.iter
    (fun name -> check_kernel_vs_reference (Option.get (Pairing.by_name name)))
    Pairing.all_names

(* Recorded schedules against second arguments outside G1. On
   y^2 = x^3 + 1 a schedule is evaluated at the trace-zero image of
   phi(Q), which is exact because the pairing is linear in Q on all of
   E(GF(p^2)), not only on G1. Pin that against the reference on points
   of small order: the order-3 points (0, +-1), whose slot the kernel
   drops, and the 2-torsion point (-1, 0). Then on [(p+1)/l]X and [q]X,
   through [prepare], through the promoted generator, and all at once in
   one product beside live walkers (one batched inversion for every
   schedule slot). On y^2 = x^3 + x the same inputs, with the 2-torsion
   point (0, 0), pin the schedule's phi(Q) = (-x, i y). *)
let check_schedules_off_g1 prms =
  let name = prms.Pairing.name in
  let fp = prms.Pairing.fp in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:("sched-off-g1-" ^ name) () in
  let rand_pt () = Curve.mul curve (Pairing.random_scalar prms rng) g in
  let fi n = if n < 0 then Fp.neg fp (Fp.of_int fp (-n)) else Fp.of_int fp n in
  let at x y = Curve.make curve ~x:(fi x) ~y:(fi y) in
  let special =
    match prms.Pairing.family with
    | Pairing.Y2_x3_1 -> [ at 0 1; at 0 (-1); at (-1) 0 ]
    | Pairing.Y2_x3_x -> [ at 0 0 ]
  in
  let off i =
    Curve.mul curve prms.Pairing.q
      (Pairing.hash_to_g1_unclamped prms (Printf.sprintf "soff-%s-%d" name i))
  in
  let qs = special @ [ off 1; off 2 ] @ small_order_points prms ~tag:"soff" in
  let pa = rand_pt () in
  let prep_a = Pairing.prepare prms pa in
  List.iter
    (fun qt ->
      Alcotest.(check bool) (name ^ ": schedule at off-G1 Q = ref") true
        (Fp2.equal
           (Pairing.pairing_prepared prms prep_a qt)
           (Pairing.pairing_ref prms pa qt));
      Alcotest.(check bool) (name ^ ": generator at off-G1 Q = ref") true
        (Fp2.equal (Pairing.pairing prms g qt) (Pairing.pairing_ref prms g qt)))
    qs;
  let pc = rand_pt () and qc = rand_pt () and qg = rand_pt () in
  let pairs =
    List.map (fun qt -> (pa, qt)) qs @ [ (pc, qc); (g, qg) ]
  in
  let expected =
    List.fold_left
      (fun acc (x, y) -> Pairing.gt_mul prms acc (Pairing.pairing_ref prms x y))
      (Pairing.gt_one prms) pairs
  in
  let mixed =
    List.map (fun qt -> (Pairing.Prepared prep_a, qt)) qs
    @ [ (Pairing.Point pc, qc); (Pairing.Point g, qg) ]
  in
  Alcotest.(check bool) (name ^ ": off-G1 Q batch product = ref") true
    (Fp2.equal
       (Pairing.final_exponentiation prms (Pairing.miller_product_mixed prms mixed))
       expected)

let test_schedules_off_g1 () =
  List.iter
    (fun name -> check_schedules_off_g1 (Option.get (Pairing.by_name name)))
    Pairing.all_names

let prop_kernel_pairing_matches_ref =
  QCheck2.Test.make ~name:"pairing = pairing_ref (random scalars)" ~count:20
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p = Curve.mul curve a g and q' = Curve.mul curve b g in
      Fp2.equal (Pairing.pairing prms p q') (Pairing.pairing_ref prms p q'))

(* --- the product-of-pairings kernel vs the pinned reference: one
   interleaved Miller loop + one final exponentiation (or the GF(p)
   membership decision) must stay bit-identical to multiplying separate
   [pairing_ref] results, for every pair count, argument shape and
   degeneracy the verifiers can feed it --- *)

let check_product_vs_reference prms =
  let name = prms.Pairing.name in
  let fp = prms.Pairing.fp in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let rng = Hashing.Drbg.create ~seed:("product-diff-" ^ name) () in
  let rand_pt () = Curve.mul curve (Pairing.random_scalar prms rng) g in
  let ref_product pairs =
    List.fold_left
      (fun acc (a, b) -> Fp2.mul fp acc (Pairing.pairing_ref prms a b))
      (Fp2.one fp) pairs
  in
  let check_pairs label pairs =
    let expected = ref_product pairs in
    (* The raw interleaved Miller product, pushed through the PINNED
       generic final exponentiation, must hit the reference value
       bit-for-bit — and so must the kernel [pairing_product]. *)
    Alcotest.(check bool) (name ^ ": miller_product = ref after exp " ^ label)
      true
      (Fp2.equal
         (Pairing.final_exponentiation_ref prms
            (Pairing.miller_product prms pairs))
         expected);
    Alcotest.(check bool) (name ^ ": pairing_product = ref " ^ label) true
      (Fp2.equal (Pairing.pairing_product prms pairs) expected);
    (* The no-final-exp membership decision must equal the reference
       decision exactly — accept AND reject. *)
    Alcotest.(check bool) (name ^ ": check_product_one = ref decision " ^ label)
      (Fp2.is_one fp expected)
      (Pairing.check_product_one prms pairs)
  in
  (* N = 1..4 random pairs. *)
  for n = 1 to 4 do
    check_pairs
      (Printf.sprintf "N=%d" n)
      (List.init n (fun _ -> (rand_pt (), rand_pt ())))
  done;
  (* A genuinely canceling product (the verification-equation shape) and
     a tampered one: both decisions pinned. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  check_pairs "canceling"
    [ (Curve.mul curve a g, Curve.mul curve b g);
      (Curve.mul curve ab g, Curve.neg curve g) ];
  check_pairs "tampered"
    [ (Curve.mul curve a g, Curve.mul curve b g);
      (Curve.mul curve (B.succ ab) g, Curve.neg curve g) ];
  (* Infinity in either slot drops the pair; the empty product is 1. *)
  check_pairs "infinity slots"
    [ (Curve.infinity, rand_pt ()); (rand_pt (), Curve.infinity);
      (rand_pt (), rand_pt ()) ];
  check_pairs "empty" [];
  check_pairs "all infinity" [ (Curve.infinity, Curve.infinity) ];
  (* Off-G1 first arguments [q]X, which do not degenerate the NAF walk,
     live among healthy pairs. *)
  let low i =
    Curve.mul curve q
      (Pairing.hash_to_g1_unclamped prms (Printf.sprintf "plow-%s-%d" name i))
  in
  check_pairs "low-order first arg" [ (low 1, rand_pt ()); (rand_pt (), rand_pt ()) ];
  check_pairs "two low-order" [ (low 2, rand_pt ()); (low 3, rand_pt ()) ];
  (* Mixed prepared/live products, including an off-G1 prepared slot and
     the generator's construction-time schedule. *)
  let pa = rand_pt () and pb = rand_pt () and qb = rand_pt () in
  let pc = rand_pt () and qc = rand_pt () in
  let pl = low 4 and ql = rand_pt () in
  let mixed =
    [ (Pairing.Prepared (Pairing.prepare prms pa), pb);
      (Pairing.Point g, qb);
      (Pairing.Point pc, qc);
      (Pairing.Prepared (Pairing.prepare prms pl), ql) ]
  in
  let expected = ref_product [ (pa, pb); (g, qb); (pc, qc); (pl, ql) ] in
  Alcotest.(check bool) (name ^ ": mixed product = ref") true
    (Fp2.equal
       (Pairing.final_exponentiation_ref prms
          (Pairing.miller_product_mixed prms mixed))
       expected);
  Alcotest.(check bool) (name ^ ": mixed check = ref decision")
    (Fp2.is_one fp expected)
    (Pairing.check_product_one_mixed prms mixed);
  (* And the mixed decision on a canceling product. *)
  Alcotest.(check bool) (name ^ ": mixed canceling accepts") true
    (Pairing.check_product_one_mixed prms
       [ (Pairing.Prepared prms.Pairing.g_prep,
          Curve.mul curve ab g);
         (Pairing.Point (Curve.mul curve a g),
          Curve.neg curve (Curve.mul curve b g)) ]);
  (* Small-order first arguments reach the degenerate branch: a live one
     among healthy pairs, a canceling pair of them (so the decision is
     pinned on accept as well as reject; a branch that wrongly returned 1
     would pass this one, not the others), and a prepared one beside the
     generator's schedule. *)
  List.iter
    (fun l ->
      check_pairs "small-order live"
        [ (rand_pt (), rand_pt ()); (l, rand_pt ()); (rand_pt (), rand_pt ()) ];
      let qc = rand_pt () in
      check_pairs "small-order canceling" [ (l, qc); (l, Curve.neg curve qc) ];
      let pa = rand_pt () and pb = rand_pt () and qb = rand_pt () in
      let ql = rand_pt () in
      let mixed =
        [ (Pairing.Prepared (Pairing.prepare prms pa), pb);
          (Pairing.Point g, qb);
          (Pairing.Prepared (Pairing.prepare prms l), ql) ]
      in
      let expected = ref_product [ (pa, pb); (g, qb); (l, ql) ] in
      Alcotest.(check bool) (name ^ ": small-order mixed product = ref") true
        (Fp2.equal
           (Pairing.final_exponentiation_ref prms
              (Pairing.miller_product_mixed prms mixed))
           expected);
      Alcotest.(check bool) (name ^ ": small-order mixed check = ref decision")
        (Fp2.is_one fp expected)
        (Pairing.check_product_one_mixed prms mixed))
    (small_order_points prms ~tag:"psmall")

let test_product_vs_ref_toy () =
  check_product_vs_reference (Pairing.toy64 ());
  check_product_vs_reference (Pairing.toy64b ())

let test_product_vs_ref_all_sets () =
  List.iter
    (fun name -> check_product_vs_reference (Option.get (Pairing.by_name name)))
    Pairing.all_names

let prop_product_matches_ref =
  QCheck2.Test.make ~name:"check_product_one = ref decision (random)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let pairs =
        [ (Curve.mul curve a g, Curve.mul curve b g);
          (Curve.mul curve (B.erem (B.mul a b) q) g, Curve.neg curve g) ]
      in
      let expected =
        Fp2.is_one prms.Pairing.fp
          (List.fold_left
             (fun acc (x, y) ->
               Pairing.gt_mul prms acc (Pairing.pairing_ref prms x y))
             (Pairing.gt_one prms) pairs)
      in
      Pairing.check_product_one prms pairs = expected)

(* The product kernel's verify path must stay allocation-lean: every
   accumulator, line scratch and window-table slot lives in the
   per-domain register file, so a steady-state [check_product_one_mixed]
   call touches the minor heap only incidentally. The bound is ~10x the
   measured steady state (2-6 words/call) and far below what any of the
   known regressions cost — the functional prepared-line path was
   ~840-47000 words/call, and even a single per-iteration closure in the
   Miller bit loop shows up at >100 apparent words/call. Measured over a
   batch with a fresh minor arena so a GC boundary (where OCaml 5's
   allocation accounting jumps) cannot land inside the window. *)
let test_product_alloc_bound () =
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      let curve = prms.Pairing.curve in
      let g = prms.Pairing.g in
      let a = B.of_int 1234 and b = B.of_int 5678 in
      let ab = B.erem (B.mul a b) prms.Pairing.q in
      let pairs =
        [ (Pairing.Prepared (Pairing.prepare prms (Curve.mul curve a g)),
           Curve.mul curve b g);
          (Pairing.Prepared (Pairing.prepare prms (Curve.mul curve ab g)),
           Curve.neg curve g) ]
      in
      (* Warm the per-domain register file so growth is behind us. *)
      for _ = 1 to 3 do
        ignore (Pairing.check_product_one_mixed prms pairs)
      done;
      Gc.minor ();
      let rounds = 50 in
      let before = Gc.allocated_bytes () in
      for _ = 1 to rounds do
        ignore (Sys.opaque_identity (Pairing.check_product_one_mixed prms pairs))
      done;
      let words = (Gc.allocated_bytes () -. before) /. 8. in
      let per_op = words /. float_of_int rounds in
      if per_op > 64.0 then
        Alcotest.failf "check_product_one_mixed allocates %.1f words/op at %s"
          per_op name)
    Pairing.all_names

let test_param_search_small () =
  let rng = Hashing.Drbg.create ~seed:"param-search-test" () in
  let p, q = Param_search.generate ~rng ~qbits:32 ~pbits:48 () in
  Alcotest.(check bool) "p prime" true (Prime.is_probably_prime p);
  Alcotest.(check bool) "q prime" true (Prime.is_probably_prime q);
  Alcotest.(check bool) "q | p+1" true (B.is_zero (B.erem (B.succ p) q));
  Alcotest.check (Alcotest.testable B.pp B.equal) "p mod 4 = 3" (B.of_int 3)
    (B.erem p (B.of_int 4));
  (* And the whole pairing machinery works on fresh parameters. *)
  let fresh = Pairing.make ~name:"fresh" ~p ~q () in
  let gg = Pairing.pairing fresh fresh.Pairing.g fresh.Pairing.g in
  Alcotest.(check bool) "non-degenerate" false
    (Pairing.gt_equal gg (Pairing.gt_one fresh))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pairing"
    [
      ( "directed",
        [
          Alcotest.test_case "non-degenerate" `Quick test_non_degenerate;
          Alcotest.test_case "infinity" `Quick test_infinity_pairs_to_one;
          Alcotest.test_case "pairing product" `Quick test_pairing_product;
          Alcotest.test_case "ddh oracle" `Quick test_ddh_oracle;
          Alcotest.test_case "symmetric" `Quick test_pairing_symmetric;
          Alcotest.test_case "gt ops" `Quick test_gt_ops;
          Alcotest.test_case "h2" `Quick test_h2_properties;
        ] );
      ( "bilinearity",
        qc
          [
            prop_bilinear_left; prop_bilinear_right; prop_bilinear_full;
            prop_additive_in_first; prop_additive_in_second;
            prop_hashed_points_pair_consistently;
          ] );
      ( "parameters",
        [
          Alcotest.test_case "all sets valid" `Slow test_all_parameter_sets_valid;
          Alcotest.test_case "by_name unknown" `Quick test_by_name_unknown;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "param search" `Slow test_param_search_small;
        ] );
      ( "prepared",
        Alcotest.test_case "toy sets equivalence" `Quick test_prepared_toy_sets
        :: Alcotest.test_case "all sets equivalence" `Slow test_prepared_all_sets
        :: Alcotest.test_case "schedules at off-G1 second args" `Slow
             test_schedules_off_g1
        :: qc [ prop_prepared_random_points ] );
      ( "kernel-vs-ref",
        Alcotest.test_case "toy sets differential" `Quick test_kernel_vs_ref_toy
        :: Alcotest.test_case "all sets differential" `Slow
             test_kernel_vs_ref_all_sets
        :: qc [ prop_kernel_pairing_matches_ref ] );
      ( "product-vs-ref",
        Alcotest.test_case "toy sets differential" `Quick test_product_vs_ref_toy
        :: Alcotest.test_case "all sets differential" `Slow
             test_product_vs_ref_all_sets
        :: Alcotest.test_case "verify path alloc bound" `Slow
             test_product_alloc_bound
        :: qc [ prop_product_matches_ref ] );
      ( "family2",
        [
          Alcotest.test_case "bilinear+nondegenerate" `Quick test_family2_bilinear_nondegenerate;
          Alcotest.test_case "full TRE roundtrip" `Quick test_family2_full_tre_roundtrip;
          Alcotest.test_case "ddh + products" `Quick test_family2_ddh_and_products;
          Alcotest.test_case "make validation" `Quick test_family2_make_validation;
        ] );
    ]
