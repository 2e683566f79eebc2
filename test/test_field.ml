(* Field-axiom and square-root tests for GF(p) and GF(p^2). *)

module B = Bigint

(* A 256-bit prime congruent to 3 mod 4 (2^256 - 189). *)
let p256 = B.sub (B.pow B.two 256) (B.of_int 189)
let ctx = Fp.create p256

let fp_testable =
  Alcotest.testable (Fp.pp ctx) Fp.equal

let fp2_testable = Alcotest.testable (Fp2.pp ctx) Fp2.equal

let gen_fp =
  QCheck2.Gen.(
    let* bytes = string_size ~gen:char (return 40) in
    return (Fp.of_bigint ctx (B.of_bytes_be bytes)))

let gen_fp2 = QCheck2.Gen.map (fun (re, im) -> Fp2.make ~re ~im) QCheck2.Gen.(pair gen_fp gen_fp)

let test_create_validation () =
  Alcotest.check_raises "even" (Invalid_argument "Fp.create: modulus must be odd and >= 3")
    (fun () -> ignore (Fp.create (B.of_int 8)));
  Alcotest.check_raises "1 mod 4" (Invalid_argument "Fp.create: modulus must be 3 mod 4")
    (fun () -> ignore (Fp.create (B.of_int 13)))

let test_constants () =
  Alcotest.check fp_testable "0+1 = 1" (Fp.one ctx) (Fp.add ctx (Fp.zero ctx) (Fp.one ctx));
  Alcotest.(check bool) "is_zero" true (Fp.is_zero ctx (Fp.zero ctx));
  Alcotest.(check bool) "one not zero" false (Fp.is_zero ctx (Fp.one ctx));
  Alcotest.check fp_testable "p = 0" (Fp.zero ctx) (Fp.of_bigint ctx p256);
  Alcotest.check fp_testable "-1 = p-1" (Fp.of_bigint ctx (B.pred p256)) (Fp.of_int ctx (-1))

let test_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Fp.inv ctx (Fp.zero ctx)))

let test_sqrt_known () =
  (* 4 has roots 2 and p-2; principal root squared gives back 4. *)
  match Fp.sqrt ctx (Fp.of_int ctx 4) with
  | None -> Alcotest.fail "4 must be a square"
  | Some r -> Alcotest.check fp_testable "r^2 = 4" (Fp.of_int ctx 4) (Fp.sqr ctx r)

let test_bytes_reject () =
  Alcotest.(check bool) "wrong width" true (Fp.of_bytes ctx "abc" = None);
  let too_big = B.to_bytes_be ~pad_to:(Fp.byte_length ctx) (B.pred (B.pow B.two 256)) in
  Alcotest.(check bool) "non-canonical" true (Fp.of_bytes ctx too_big = None)

let prop_field_axioms =
  QCheck2.Test.make ~name:"fp field axioms" ~count:200
    QCheck2.Gen.(triple gen_fp gen_fp gen_fp)
    (fun (a, b, c) ->
      Fp.equal (Fp.add ctx a b) (Fp.add ctx b a)
      && Fp.equal (Fp.mul ctx a b) (Fp.mul ctx b a)
      && Fp.equal (Fp.mul ctx a (Fp.mul ctx b c)) (Fp.mul ctx (Fp.mul ctx a b) c)
      && Fp.equal (Fp.mul ctx a (Fp.add ctx b c)) (Fp.add ctx (Fp.mul ctx a b) (Fp.mul ctx a c))
      && Fp.equal (Fp.sub ctx (Fp.add ctx a b) b) a
      && Fp.equal (Fp.add ctx a (Fp.neg ctx a)) (Fp.zero ctx))

let prop_inv =
  QCheck2.Test.make ~name:"fp a * a^-1 = 1" ~count:200 gen_fp (fun a ->
      QCheck2.assume (not (Fp.is_zero ctx a));
      Fp.equal (Fp.mul ctx a (Fp.inv ctx a)) (Fp.one ctx))

let prop_pow_negative =
  QCheck2.Test.make ~name:"fp a^-k = (a^k)^-1" ~count:100
    QCheck2.Gen.(pair gen_fp (int_range 1 50))
    (fun (a, k) ->
      QCheck2.assume (not (Fp.is_zero ctx a));
      Fp.equal
        (Fp.pow ctx a (B.of_int (-k)))
        (Fp.inv ctx (Fp.pow ctx a (B.of_int k))))

let prop_sqrt =
  QCheck2.Test.make ~name:"fp sqrt of squares" ~count:200 gen_fp (fun a ->
      let sq = Fp.sqr ctx a in
      Fp.is_square ctx sq
      &&
      match Fp.sqrt ctx sq with
      | None -> false
      | Some r -> Fp.equal (Fp.sqr ctx r) sq)

let prop_nonsquare_detected =
  (* Exactly one of x, -x is a square for x <> 0, since p = 3 mod 4. *)
  QCheck2.Test.make ~name:"fp x xor -x square (p=3 mod 4)" ~count:200 gen_fp
    (fun a ->
      QCheck2.assume (not (Fp.is_zero ctx a));
      Fp.is_square ctx a <> Fp.is_square ctx (Fp.neg ctx a))

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"fp bytes roundtrip" ~count:200 gen_fp (fun a ->
      match Fp.of_bytes ctx (Fp.to_bytes ctx a) with
      | Some b -> Fp.equal a b
      | None -> false)

(* --- Fp2 --- *)

let test_fp2_i_squared () =
  (* i^2 = -1. *)
  let i = Fp2.make ~re:(Fp.zero ctx) ~im:(Fp.one ctx) in
  Alcotest.check fp2_testable "i^2 = -1"
    (Fp2.neg ctx (Fp2.one ctx))
    (Fp2.sqr ctx i)

let test_fp2_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Fp2.inv ctx (Fp2.zero ctx)))

let prop_fp2_field_axioms =
  QCheck2.Test.make ~name:"fp2 field axioms" ~count:200
    QCheck2.Gen.(triple gen_fp2 gen_fp2 gen_fp2)
    (fun (a, b, c) ->
      Fp2.equal (Fp2.add ctx a b) (Fp2.add ctx b a)
      && Fp2.equal (Fp2.mul ctx a b) (Fp2.mul ctx b a)
      && Fp2.equal (Fp2.mul ctx a (Fp2.mul ctx b c)) (Fp2.mul ctx (Fp2.mul ctx a b) c)
      && Fp2.equal
           (Fp2.mul ctx a (Fp2.add ctx b c))
           (Fp2.add ctx (Fp2.mul ctx a b) (Fp2.mul ctx a c))
      && Fp2.equal (Fp2.sqr ctx a) (Fp2.mul ctx a a))

let prop_fp2_inv =
  QCheck2.Test.make ~name:"fp2 a * a^-1 = 1" ~count:200 gen_fp2 (fun a ->
      QCheck2.assume (not (Fp2.is_zero ctx a));
      Fp2.equal (Fp2.mul ctx a (Fp2.inv ctx a)) (Fp2.one ctx))

let prop_fp2_conj =
  QCheck2.Test.make ~name:"fp2 a * conj a = norm a" ~count:200 gen_fp2 (fun a ->
      Fp2.equal
        (Fp2.mul ctx a (Fp2.conj ctx a))
        (Fp2.of_fp ctx (Fp2.norm ctx a)))

let prop_fp2_frobenius =
  (* Conjugation is the Frobenius: conj a = a^p. *)
  QCheck2.Test.make ~name:"fp2 conj = frobenius" ~count:20 gen_fp2 (fun a ->
      Fp2.equal (Fp2.conj ctx a) (Fp2.pow ctx a p256))

let prop_fp2_pow_homomorphism =
  QCheck2.Test.make ~name:"fp2 (ab)^k = a^k b^k" ~count:50
    QCheck2.Gen.(triple gen_fp2 gen_fp2 (int_range 0 100))
    (fun (a, b, k) ->
      let k = B.of_int k in
      Fp2.equal
        (Fp2.pow ctx (Fp2.mul ctx a b) k)
        (Fp2.mul ctx (Fp2.pow ctx a k) (Fp2.pow ctx b k)))

let prop_fp2_bytes_roundtrip =
  QCheck2.Test.make ~name:"fp2 bytes roundtrip" ~count:200 gen_fp2 (fun a ->
      match Fp2.of_bytes ctx (Fp2.to_bytes ctx a) with
      | Some b -> Fp2.equal a b
      | None -> false)

let gen_exponent =
  QCheck2.Gen.(
    let* bytes = string_size ~gen:char (int_range 0 38) in
    let* negate = bool in
    let v = B.of_bytes_be bytes in
    return (if negate then B.neg v else v))

let prop_fp2_window_pow =
  QCheck2.Test.make ~name:"fp2 pow = pow_binary" ~count:50
    QCheck2.Gen.(pair gen_fp2 gen_exponent)
    (fun (a, e) ->
      QCheck2.assume (B.sign e >= 0 || not (Fp2.is_zero ctx a));
      Fp2.equal (Fp2.pow ctx a e) (Fp2.pow_binary ctx a e))

let test_fp2_window_pow_edges () =
  let a = Fp2.make ~re:(Fp.of_int ctx 7) ~im:(Fp.of_int ctx 11) in
  let check name e =
    if not (Fp2.equal (Fp2.pow ctx a e) (Fp2.pow_binary ctx a e)) then
      Alcotest.fail name
  in
  check "e = 0" B.zero;
  check "e = 1" B.one;
  check "e = p-1" (B.pred p256);
  check "e = p" p256;
  check "e = 2^200" (B.pow B.two 200);
  check "e = 2^200 + 1" (B.succ (B.pow B.two 200));
  (* Negative exponents invert the base in both paths. *)
  check "e = -5" (B.of_int (-5));
  check "e = -(2^150)" (B.neg (B.pow B.two 150))

let prop_fp2_mul_fp =
  QCheck2.Test.make ~name:"fp2 mul_fp = mul by embedded" ~count:200
    QCheck2.Gen.(pair gen_fp gen_fp2)
    (fun (s, a) ->
      Fp2.equal (Fp2.mul_fp ctx s a) (Fp2.mul ctx (Fp2.of_fp ctx s) a))

(* The schoolbook product (ac - bd) + (ad + bc)i on functional [Fp] ops,
   and a grid of elements over edge and random coefficients mod p. *)
let school c x y =
  Fp2.make
    ~re:(Fp.sub c (Fp.mul c x.Fp2.re y.Fp2.re) (Fp.mul c x.Fp2.im y.Fp2.im))
    ~im:(Fp.add c (Fp.mul c x.Fp2.re y.Fp2.im) (Fp.mul c x.Fp2.im y.Fp2.re))

let grid rng c p =
  let coeffs =
    [ B.zero; B.one; B.pred p; B.sub p (B.of_int 2) ]
    @ List.init 6 (fun _ -> B.erem (B.of_bytes_be (Hashing.Drbg.generate rng 40)) p)
  in
  List.concat_map
    (fun re ->
      List.map (fun im -> Fp2.make ~re:(Fp.of_bigint c re) ~im:(Fp.of_bigint c im)) coeffs)
    coeffs

let named_p n = (Option.get (Pairing.by_name n)).Pairing.p

let fp2_copy c x =
  let d = Fp2.Mut.alloc c in
  Fp2.Mut.set c d x;
  d

(* Differential pin for the GF(p^2) products: functional and [Mut]
   mul/sqr, the destination fresh or aliasing a, b or both, against the
   schoolbook product. An identity-only check (commutativity,
   associativity) would pass a consistently wrong product. One modulus
   per kernel shape: mid128's p (9 limbs, straight-line), std160's p
   (18-limb loops), toy64's p (4-limb loops), and 2^260 - 61 and
   2^261 - 61 (straight-line, the latter with its top limb saturated). *)
let test_fp2_products_schoolbook () =
  let rng = Hashing.Drbg.create ~seed:"test-fp2-products" () in
  List.iter
    (fun (label, p) ->
      let c = Fp.create p in
      let elts = grid rng c p in
      let eq = Alcotest.testable (Fp2.pp c) Fp2.equal in
      let check what expect got = Alcotest.check eq (label ^ ": " ^ what) expect got in
      List.iteri
        (fun i x ->
          (* Pair each element with a spread of partners, itself included. *)
          let y = List.nth elts ((i * 37 + 11) mod List.length elts) in
          let xy = school c x y and xx = school c x x in
          check "mul" xy (Fp2.mul c x y);
          check "sqr" xx (Fp2.sqr c x);
          let d = Fp2.Mut.alloc c in
          Fp2.Mut.mul_into c d x y;
          check "Mut.mul" xy d;
          Fp2.Mut.sqr_into c d x;
          check "Mut.sqr" xx d;
          let d = fp2_copy c x in
          Fp2.Mut.mul_into c d d y;
          check "Mut.mul dst = a" xy d;
          let d = fp2_copy c y in
          Fp2.Mut.mul_into c d x d;
          check "Mut.mul dst = b" xy d;
          let d = fp2_copy c x in
          Fp2.Mut.mul_into c d d d;
          check "Mut.mul dst = a = b" xx d;
          let d = fp2_copy c x in
          Fp2.Mut.sqr_into c d d;
          check "Mut.sqr dst = a" xx d)
        elts)
    [
      ("mid128", named_p "mid128");
      ("std160", named_p "std160");
      ("toy64", named_p "toy64");
      ("2^260 - 61", B.sub (B.shift_left B.one 260) (B.of_int 61));
      ("2^261 - 61", B.sub (B.shift_left B.one 261) (B.of_int 61));
    ]

(* The cyclotomic squaring against the schoolbook square on norm-1
   inputs u = conj(x) * x^-1, on every named set's p, with the
   destination fresh and aliasing the operand. The final exponentiation
   is its only caller, so this pins it directly. *)
let test_fp2_cyclo_sqr_schoolbook () =
  let rng = Hashing.Drbg.create ~seed:"test-fp2-cyclo" () in
  List.iter
    (fun name ->
      let p = named_p name in
      let c = Fp.create p in
      let eq = Alcotest.testable (Fp2.pp c) Fp2.equal in
      let check what expect got = Alcotest.check eq (name ^ ": " ^ what) expect got in
      List.iter
        (fun x ->
          if not (Fp2.is_zero c x) then begin
            let u = Fp2.mul c (Fp2.conj c x) (Fp2.inv c x) in
            Alcotest.(check bool) (name ^ ": norm 1") true (Fp.equal (Fp.one c) (Fp2.norm c u));
            let uu = school c u u in
            let d = Fp2.Mut.alloc c in
            Fp2.Mut.cyclo_sqr_into c d u;
            check "cyclo_sqr" uu d;
            let d = fp2_copy c u in
            Fp2.Mut.cyclo_sqr_into c d d;
            check "cyclo_sqr dst = a" uu d
          end)
        (grid rng c p))
    Pairing.all_names

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "field"
    [
      ( "fp-directed",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "inv zero" `Quick test_inv_zero;
          Alcotest.test_case "sqrt known" `Quick test_sqrt_known;
          Alcotest.test_case "bytes reject" `Quick test_bytes_reject;
        ] );
      ( "fp-props",
        q
          [
            prop_field_axioms; prop_inv; prop_pow_negative; prop_sqrt;
            prop_nonsquare_detected; prop_bytes_roundtrip;
          ] );
      ( "fp2-directed",
        [
          Alcotest.test_case "i^2 = -1" `Quick test_fp2_i_squared;
          Alcotest.test_case "inv zero" `Quick test_fp2_inv_zero;
          Alcotest.test_case "window pow edges" `Quick test_fp2_window_pow_edges;
          Alcotest.test_case "products = schoolbook, all paths" `Quick
            test_fp2_products_schoolbook;
          Alcotest.test_case "cyclotomic square = schoolbook, all sets" `Quick
            test_fp2_cyclo_sqr_schoolbook;
        ] );
      ( "fp2-props",
        q
          [
            prop_fp2_field_axioms; prop_fp2_inv; prop_fp2_conj; prop_fp2_frobenius;
            prop_fp2_pow_homomorphism; prop_fp2_window_pow; prop_fp2_bytes_roundtrip;
            prop_fp2_mul_fp;
          ] );
    ]
