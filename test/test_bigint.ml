(* Tests for the arbitrary-precision substrate: ring axioms against a
   native-int oracle, full-width algebraic identities, Knuth division,
   Montgomery arithmetic, primality, codecs. *)

module B = Bigint

let b = Alcotest.testable B.pp B.equal

(* Generator of big integers from a bounded number of random bits, signed. *)
let gen_bigint ?(max_bits = 400) () =
  QCheck2.Gen.(
    let* bits = int_range 0 max_bits in
    let* bytes = string_size ~gen:char (return ((bits + 7) / 8)) in
    let* negate = bool in
    let v = B.of_bytes_be bytes in
    return (if negate then B.neg v else v))

let gen_positive ?(max_bits = 400) () =
  QCheck2.Gen.map B.abs (gen_bigint ~max_bits ())

(* --- oracle tests against native ints --- *)

let signed_int_gen = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let oracle2 name f g =
  QCheck2.Test.make ~name ~count:500 QCheck2.Gen.(pair signed_int_gen signed_int_gen)
    (fun (x, y) -> B.to_int_opt (f (B.of_int x) (B.of_int y)) = Some (g x y))

let prop_add_oracle = oracle2 "add matches int" B.add ( + )
let prop_sub_oracle = oracle2 "sub matches int" B.sub ( - )
let prop_mul_oracle =
  QCheck2.Test.make ~name:"mul matches int" ~count:500
    QCheck2.Gen.(pair (int_range (-2_000_000) 2_000_000) (int_range (-2_000_000) 2_000_000))
    (fun (x, y) -> B.to_int_opt (B.mul (B.of_int x) (B.of_int y)) = Some (x * y))

let prop_divmod_oracle =
  QCheck2.Test.make ~name:"divmod matches int (truncating)" ~count:500
    QCheck2.Gen.(pair signed_int_gen signed_int_gen)
    (fun (x, y) ->
      QCheck2.assume (y <> 0);
      let q, r = B.divmod (B.of_int x) (B.of_int y) in
      B.to_int_opt q = Some (x / y) && B.to_int_opt r = Some (x mod y))

let prop_compare_oracle =
  QCheck2.Test.make ~name:"compare matches int" ~count:500
    QCheck2.Gen.(pair signed_int_gen signed_int_gen)
    (fun (x, y) -> B.compare (B.of_int x) (B.of_int y) = Stdlib.compare x y)

(* --- full-width algebraic identities --- *)

let pair_big = QCheck2.Gen.(pair (gen_bigint ()) (gen_bigint ()))
let triple_big = QCheck2.Gen.(triple (gen_bigint ()) (gen_bigint ()) (gen_bigint ()))

let prop_add_comm =
  QCheck2.Test.make ~name:"a+b = b+a" ~count:300 pair_big (fun (a, b) ->
      B.equal (B.add a b) (B.add b a))

let prop_mul_comm =
  QCheck2.Test.make ~name:"a*b = b*a" ~count:300 pair_big (fun (a, b) ->
      B.equal (B.mul a b) (B.mul b a))

let prop_mul_assoc =
  QCheck2.Test.make ~name:"(a*b)*c = a*(b*c)" ~count:200 triple_big
    (fun (a, b, c) -> B.equal (B.mul (B.mul a b) c) (B.mul a (B.mul b c)))

let prop_distrib =
  QCheck2.Test.make ~name:"a*(b+c) = a*b + a*c" ~count:200 triple_big
    (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_add_sub_inverse =
  QCheck2.Test.make ~name:"(a+b)-b = a" ~count:300 pair_big (fun (a, b) ->
      B.equal (B.sub (B.add a b) b) a)

let prop_divmod_reconstruct =
  QCheck2.Test.make ~name:"a = q*b + r, |r| < |b|, sign(r) = sign(a)" ~count:500
    QCheck2.Gen.(pair (gen_bigint ~max_bits:600 ()) (gen_bigint ~max_bits:300 ()))
    (fun (a, b) ->
      QCheck2.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_erem_range =
  QCheck2.Test.make ~name:"erem in [0, |m|)" ~count:500
    QCheck2.Gen.(pair (gen_bigint ()) (gen_bigint ~max_bits:200 ()))
    (fun (a, m) ->
      QCheck2.assume (not (B.is_zero m));
      let r = B.erem a m in
      B.sign r >= 0 && B.compare r (B.abs m) < 0
      && B.is_zero (B.erem (B.sub a r) m))

let prop_sqr =
  QCheck2.Test.make ~name:"sqr a = a*a" ~count:300 (gen_bigint ())
    (fun a -> B.equal (B.sqr a) (B.mul a a))

(* Nat.sqr has a dedicated implementation (cross products once, doubled
   by one shift); pin it to [mul a a] exactly from a single limb up to
   128 limbs, well past the 17 the system's widest operands take. *)
let test_nat_sqr_limb_widths () =
  let rng = Hashing.Drbg.create ~seed:"nat-sqr-widths" () in
  Alcotest.(check bool) "zero" true (Nat.equal (Nat.sqr Nat.zero) Nat.zero);
  List.iter
    (fun limbs ->
      for rep = 1 to 5 do
        (* Random value with exactly [limbs] limbs: force the top bit. *)
        let bits = limbs * Nat.base_bits in
        let raw = B.abs (B.of_bytes_be (Hashing.Drbg.generate rng ((bits + 7) / 8))) in
        let top = B.shift_left B.one (bits - 1) in
        let v = Bigint.magnitude (B.add top (B.erem raw top)) in
        if not (Nat.equal (Nat.sqr v) (Nat.mul v v)) then
          Alcotest.fail (Printf.sprintf "%d limbs, rep %d" limbs rep)
      done)
    [ 1; 2; 3; 31; 32; 33; 63; 64; 65; 127; 128 ]

let prop_nat_sqr =
  QCheck2.Test.make ~name:"Nat.sqr = Nat.mul a a (wide)" ~count:100
    (gen_positive ~max_bits:4000 ())
    (fun a ->
      let n = Bigint.magnitude a in
      Nat.equal (Nat.sqr n) (Nat.mul n n))

let prop_square_of_sum_wide =
  (* Wide operands (up to 3000 bits) through the identity
     (a+b)^2 = a^2 + 2ab + b^2, which mixes squarings and products. *)
  QCheck2.Test.make ~name:"(a+b)^2 = a^2 + 2ab + b^2 (wide)" ~count:50
    QCheck2.Gen.(pair (gen_positive ~max_bits:3000 ()) (gen_positive ~max_bits:3000 ()))
    (fun (a, b) ->
      let lhs = B.sqr (B.add a b) in
      let rhs = B.add (B.add (B.sqr a) (B.shift_left (B.mul a b) 1)) (B.sqr b) in
      B.equal lhs rhs)

let prop_shift =
  QCheck2.Test.make ~name:"shifts are mul/div by powers of two" ~count:300
    QCheck2.Gen.(pair (gen_positive ()) (int_range 0 200))
    (fun (a, s) ->
      B.equal (B.shift_left a s) (B.mul a (B.pow B.two s))
      && B.equal (B.shift_right a s) (B.div a (B.pow B.two s)))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string a) = a" ~count:300 (gen_bigint ())
    (fun a -> B.equal (B.of_string (B.to_string a)) a)

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string_hex a) = a" ~count:300 (gen_bigint ())
    (fun a -> B.equal (B.of_string (B.to_string_hex a)) a)

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"of_bytes_be (to_bytes_be a) = a" ~count:300 (gen_positive ())
    (fun a -> B.equal (B.of_bytes_be (B.to_bytes_be a)) a)

let prop_bit_length =
  QCheck2.Test.make ~name:"2^(n-1) <= |a| < 2^n for n = bit_length" ~count:300
    (gen_positive ()) (fun a ->
      QCheck2.assume (not (B.is_zero a));
      let n = B.bit_length a in
      B.compare (B.abs a) (B.pow B.two (n - 1)) >= 0
      && B.compare (B.abs a) (B.pow B.two n) < 0)

(* --- modular arithmetic --- *)

let prop_egcd =
  QCheck2.Test.make ~name:"egcd: a*x + b*y = g = gcd" ~count:300 pair_big
    (fun (a, bb) ->
      let g, x, y = Modarith.egcd a bb in
      B.equal g (Modarith.gcd a bb)
      && B.equal (B.add (B.mul a x) (B.mul bb y)) g
      && B.sign g >= 0)

let prop_invmod =
  QCheck2.Test.make ~name:"a * invmod a m = 1 (mod m)" ~count:300
    QCheck2.Gen.(pair (gen_bigint ()) (gen_positive ~max_bits:256 ()))
    (fun (a, m) ->
      QCheck2.assume (B.compare m B.two > 0);
      QCheck2.assume (B.equal (Modarith.gcd a m) B.one);
      let inv = Modarith.invmod a m in
      B.equal (B.erem (B.mul a inv) m) B.one)

let prop_powmod_matches_naive =
  QCheck2.Test.make ~name:"powmod = naive repeated mul" ~count:100
    QCheck2.Gen.(
      triple (gen_positive ~max_bits:64 ()) (int_range 0 40) (gen_positive ~max_bits:64 ()))
    (fun (base, e, m) ->
      QCheck2.assume (B.compare m B.two > 0);
      let naive = B.erem (B.pow base e) m in
      B.equal (Modarith.powmod base (B.of_int e) m) naive)

let prop_powmod_even_modulus =
  QCheck2.Test.make ~name:"powmod handles even moduli" ~count:100
    QCheck2.Gen.(pair (gen_positive ~max_bits:64 ()) (int_range 0 30))
    (fun (base, e) ->
      let m = B.of_int 1024 in
      B.equal (Modarith.powmod base (B.of_int e) m) (B.erem (B.pow base e) m))

let prop_fermat =
  (* Fermat's little theorem on a fixed 128-bit prime exercises Montgomery
     exponentiation at full width. *)
  let p = B.of_string "340282366920938463463374607431768211507" in
  QCheck2.Test.make ~name:"a^(p-1) = 1 mod p (128-bit prime)" ~count:100
    (gen_positive ~max_bits:256 ())
    (fun a ->
      QCheck2.assume (not (B.is_zero (B.erem a p)));
      B.equal (Modarith.powmod a (B.pred p) p) B.one)

let prop_mont_roundtrip =
  QCheck2.Test.make ~name:"Montgomery of/to roundtrip" ~count:200
    QCheck2.Gen.(pair (gen_bigint ()) (gen_positive ~max_bits:256 ()))
    (fun (a, m) ->
      QCheck2.assume (B.is_odd m && B.compare m (B.of_int 3) >= 0);
      let ctx = Modarith.Mont.create m in
      B.equal (Modarith.Mont.to_bigint ctx (Modarith.Mont.of_bigint ctx a)) (B.erem a m))

let prop_mont_mul =
  QCheck2.Test.make ~name:"Montgomery mul = bigint mul mod m" ~count:200
    QCheck2.Gen.(
      triple (gen_positive ~max_bits:300 ()) (gen_positive ~max_bits:300 ())
        (gen_positive ~max_bits:300 ()))
    (fun (a, bb, m) ->
      QCheck2.assume (B.is_odd m && B.compare m (B.of_int 3) >= 0);
      let ctx = Modarith.Mont.create m in
      let open Modarith.Mont in
      B.equal
        (to_bigint ctx (mul ctx (of_bigint ctx a) (of_bigint ctx bb)))
        (B.erem (B.mul a bb) m))

let prop_mont_add_sub =
  QCheck2.Test.make ~name:"Montgomery add/sub/neg" ~count:200
    QCheck2.Gen.(
      triple (gen_bigint ()) (gen_bigint ()) (gen_positive ~max_bits:200 ()))
    (fun (a, bb, m) ->
      QCheck2.assume (B.is_odd m && B.compare m (B.of_int 3) >= 0);
      let ctx = Modarith.Mont.create m in
      let open Modarith.Mont in
      let am = of_bigint ctx a and bm = of_bigint ctx bb in
      B.equal (to_bigint ctx (add ctx am bm)) (B.erem (B.add a bb) m)
      && B.equal (to_bigint ctx (sub ctx am bm)) (B.erem (B.sub a bb) m)
      && B.equal (to_bigint ctx (neg ctx am)) (B.erem (B.neg a) m))

(* --- sliding-window exponentiation vs the binary ladder --- *)

let window_prime =
  B.of_string "57896044618658097711785492504343953926634992332820282019728792003956564820063"

let prop_mont_window_pow =
  QCheck2.Test.make ~name:"Mont.pow = Mont.pow_binary" ~count:100
    QCheck2.Gen.(
      triple (gen_positive ~max_bits:300 ()) (gen_positive ~max_bits:400 ())
        (gen_positive ~max_bits:300 ()))
    (fun (a, e, m) ->
      QCheck2.assume (B.is_odd m && B.compare m (B.of_int 3) >= 0);
      let ctx = Modarith.Mont.create m in
      let am = Modarith.Mont.of_bigint ctx a in
      Modarith.Mont.equal (Modarith.Mont.pow ctx am e)
        (Modarith.Mont.pow_binary ctx am e))

let test_window_pow_edge_exponents () =
  let ctx = Modarith.Mont.create window_prime in
  let open Modarith.Mont in
  let a = of_bigint ctx (B.of_int 0xC0FFEE) in
  let check name e =
    if not (equal (pow ctx a e) (pow_binary ctx a e)) then Alcotest.fail name
  in
  check "e = 0" B.zero;
  Alcotest.(check bool) "a^0 = 1" true (equal (pow ctx a B.zero) (one ctx));
  check "e = 1" B.one;
  check "e = 2" B.two;
  check "e = q-1" (B.pred window_prime);
  check "e = q" window_prime;
  (* Long zero runs between set bits exercise the window-skipping path. *)
  check "e = 2^200" (B.pow B.two 200);
  check "e = 2^200 + 1" (B.succ (B.pow B.two 200));
  check "e = 0xFF << 190" (B.shift_left (B.of_int 0xFF) 190);
  check "e = (1<<250) | (1<<125) | 1"
    (B.add (B.pow B.two 250) (B.add (B.pow B.two 125) B.one));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Mont.pow: negative exponent") (fun () ->
      ignore (pow ctx a (B.of_int (-1))))

let prop_jacobi_squares =
  (* Squares mod an odd prime have Jacobi symbol 1. *)
  let p = B.of_string "57896044618658097711785492504343953926634992332820282019728792003956564820063" in
  QCheck2.Test.make ~name:"jacobi (a^2 / p) = 1" ~count:100 (gen_positive ~max_bits:200 ())
    (fun a ->
      QCheck2.assume (not (B.is_zero (B.erem a p)));
      Modarith.jacobi (B.erem (B.sqr a) p) p = 1)

(* --- primality --- *)

let test_small_primes () =
  let known = [ 2; 3; 5; 7; 11; 101; 997 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (string_of_int p) true
        (Prime.is_probably_prime (B.of_int p)))
    known;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (string_of_int c) false
        (Prime.is_probably_prime (B.of_int c)))
    [ 0; 1; 4; 9; 100; 561 (* Carmichael *); 999 ]

let test_known_large_prime () =
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite (Fermat F7 factor known). *)
  let m127 = B.pred (B.pow B.two 127) in
  Alcotest.(check bool) "2^127-1 prime" true (Prime.is_probably_prime m127);
  let f = B.succ (B.pow B.two 128) in
  Alcotest.(check bool) "2^128+1 composite" false (Prime.is_probably_prime f)

let test_negative_not_prime () =
  Alcotest.(check bool) "-7 not prime" false (Prime.is_probably_prime (B.of_int (-7)))

let test_gen_prime () =
  let rng = Hashing.Drbg.create ~seed:"gen-prime-test" () in
  List.iter
    (fun bits ->
      let p = Prime.gen_prime ~rng ~bits () in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (B.bit_length p);
      Alcotest.(check bool) "prime" true (Prime.is_probably_prime p))
    [ 16; 64; 128; 256 ]

let test_gen_prime_congruent () =
  let rng = Hashing.Drbg.create ~seed:"gen-prime-congruent-test" () in
  let p = Prime.gen_prime_congruent ~rng ~bits:128 ~modulus:4 ~residue:3 () in
  Alcotest.(check bool) "prime" true (Prime.is_probably_prime p);
  Alcotest.check b "p mod 4 = 3" (B.of_int 3) (B.erem p (B.of_int 4))

let test_knuth_division_structured_fuzz () =
  (* The add-back branch of Knuth's Algorithm D fires with probability
     ~2/base on random inputs, far too rare for qcheck to hit. This fuzz
     biases towards it: dividends packed with maximal limbs and divisors
     whose top limb is just above base/2 maximize qhat overestimation.
     Correctness oracle: a = q*b + r with 0 <= r < b. *)
  let rng = Hashing.Drbg.create ~seed:"knuth-addback" () in
  let biased_limbs n ~top_heavy =
    let raw = Hashing.Drbg.generate rng n in
    String.init n (fun i ->
        if top_heavy || Char.code raw.[i] land 3 <> 0 then '\xff' else raw.[i])
  in
  for _ = 1 to 20_000 do
    let alen = 1 + Char.code (Hashing.Drbg.generate rng 1).[0] mod 12 in
    let blen = 1 + Char.code (Hashing.Drbg.generate rng 1).[0] mod 8 in
    let a = B.of_bytes_be (biased_limbs (4 * alen) ~top_heavy:false) in
    let b = B.of_bytes_be (biased_limbs (4 * blen) ~top_heavy:true) in
    if not (B.is_zero b) then begin
      let q, r = B.divmod a b in
      if not (B.equal a (B.add (B.mul q b) r)) then Alcotest.fail "reconstruction";
      if B.sign r < 0 || B.compare r b >= 0 then Alcotest.fail "remainder range"
    end
  done

(* --- directed edge cases --- *)

let test_zero_behaviour () =
  Alcotest.check b "0+0" B.zero (B.add B.zero B.zero);
  Alcotest.check b "0*x" B.zero (B.mul B.zero (B.of_int 123456));
  Alcotest.(check int) "sign 0" 0 (B.sign B.zero);
  Alcotest.(check int) "bit_length 0" 0 (B.bit_length B.zero);
  Alcotest.(check string) "to_string 0" "0" (B.to_string B.zero);
  Alcotest.check b "neg 0" B.zero (B.neg B.zero);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_to_int_bounds () =
  Alcotest.(check (option int)) "big value" None (B.to_int_opt (B.pow B.two 80));
  Alcotest.(check (option int)) "negative" (Some (-42)) (B.to_int_opt (B.of_int (-42)))

let test_decimal_padding () =
  (* A value whose middle decimal chunk has leading zeros. *)
  let v = B.of_string "1000000001000000001" in
  Alcotest.(check string) "zero-padded chunks" "1000000001000000001" (B.to_string v)

let test_bytes_padding () =
  let v = B.of_int 258 in
  Alcotest.(check string) "padded" "\x00\x00\x01\x02" (B.to_bytes_be ~pad_to:4 v);
  Alcotest.check_raises "too small" (Invalid_argument "Nat.to_bytes_be: value too large")
    (fun () -> ignore (B.to_bytes_be ~pad_to:1 v))

let test_random_below_range () =
  let rng = Hashing.Drbg.create ~seed:"random-below" () in
  let bound = B.of_string "1000000000000000000000000" in
  for _ = 1 to 100 do
    let v = B.random_below rng bound in
    if B.sign v < 0 || B.compare v bound >= 0 then Alcotest.fail "out of range"
  done

let test_random_bits_width () =
  let rng = Hashing.Drbg.create ~seed:"random-bits" () in
  for _ = 1 to 50 do
    if B.bit_length (B.random_bits rng 100) > 100 then Alcotest.fail "too wide"
  done

(* --- wNAF recoding ---

   [B.wnaf k w] drives both the Miller loops and final exponentiation
   (read most significant digit first by [Pairing]) and [Curve.msm]. The
   width-w NAF is pinned by its defining properties, which make it
   unique: the digits sum back to k, every nonzero digit is odd and below
   2^(w-1) in magnitude, w-1 zeros follow each nonzero digit, and the
   last digit is the top nonzero one. *)

let check_wnaf ~what k w =
  let d = B.wnaf k w in
  let n = Array.length d in
  let sum = ref B.zero in
  Array.iteri (fun i di -> sum := B.add !sum (B.shift_left (B.of_int di) i)) d;
  Alcotest.check b (what ^ ": sum d_i 2^i = k") k !sum;
  Array.iteri
    (fun i di ->
      if di <> 0 then begin
        if di land 1 = 0 || abs di >= 1 lsl (w - 1) then
          Alcotest.failf "%s: digit %d at %d is not odd below 2^%d" what di i (w - 1);
        for j = i + 1 to Stdlib.min (n - 1) (i + w - 1) do
          if d.(j) <> 0 then Alcotest.failf "%s: nonzero digits at %d and %d" what i j
        done
      end)
    d;
  if n > 0 && d.(n - 1) <= 0 then Alcotest.failf "%s: top digit %d" what d.(n - 1)

let test_wnaf_parameter_sets () =
  let rng = Hashing.Drbg.create ~seed:"wnaf" () in
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      let scalars =
        [ ("q", prms.Pairing.q); ("h", prms.Pairing.cofactor) ]
        @ List.init 40 (fun i -> (Printf.sprintf "random %d" i, B.random_bits rng 192))
      in
      for w = 2 to 5 do
        List.iter
          (fun (what, k) -> check_wnaf ~what:(Printf.sprintf "%s, %s, w = %d" name what w) k w)
          scalars
      done;
      (* the Miller loops' schedule is this recoding, read MSB first *)
      let naf = B.wnaf prms.Pairing.q 2 in
      let l = Array.length naf in
      Alcotest.(check (array int)) (name ^ ": q_naf") (Array.init l (fun i -> naf.(l - 1 - i)))
        prms.Pairing.q_naf)
    Pairing.all_names

let prop_wnaf =
  QCheck2.Test.make ~name:"wnaf canonical form" ~count:300
    QCheck2.Gen.(pair (gen_positive ~max_bits:300 ()) (int_range 2 5))
    (fun (k, w) ->
      check_wnaf ~what:"random" k w;
      true)

let test_wnaf_edges () =
  Alcotest.(check (array int)) "zero" [||] (B.wnaf B.zero 4);
  List.iter
    (fun k ->
      for w = 2 to 5 do
        check_wnaf ~what:(Printf.sprintf "%s, w = %d" (B.to_string k) w) k w
      done)
    (List.map B.of_int [ 1; 2; 3; 7; 8; 15; 16; 31; 255; 256; 0x5555; 0xAAAA ]
    @ List.init 4 (fun i -> B.pred (B.shift_left B.one (64 * (i + 1)))));
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.wnaf") (fun () ->
      ignore (B.wnaf B.minus_one 4))

(* --- sliding-window schedule ---

   [B.sliding_windows e] drives [Mont.pow], [Limbs.pow_into] and
   [Fp2.pow], read first pair first. Pinned by its defining properties:
   the pairs replay to e (acc <- acc * 2^s + d, seeded by the first d),
   the first s is 0, every d is odd and below 2^w except a final 0 (which
   needs s > 0), each later window fits in the squarings before it
   (d < 2^s), every window is maximal (no set bit of e below it within w
   bits of its top), and w follows the exponent's bit length. *)

let check_windows ~what e =
  let w, sched = B.sliding_windows e in
  let n = B.bit_length e in
  let expect_w = if n <= 8 then 1 else if n <= 96 then 3 else if n <= 320 then 4 else 5 in
  Alcotest.(check int) (what ^ ": w") expect_w w;
  let last = List.length sched - 1 in
  let acc = ref B.zero in
  List.iteri
    (fun j (s, d) ->
      if j = 0 && s <> 0 then Alcotest.failf "%s: first pair squares %d times" what s;
      if d = 0 then begin
        if j <> last || j = 0 || s = 0 then Alcotest.failf "%s: zero digit at pair %d" what j
      end
      else if d land 1 = 0 || d >= 1 lsl w then
        Alcotest.failf "%s: digit %d at pair %d is not odd below 2^%d" what d j w
      else if j > 0 && d >= 1 lsl s then
        Alcotest.failf "%s: digit %d at pair %d overlaps its %d squarings" what d j s;
      acc := B.add (B.shift_left !acc s) (B.of_int d))
    sched;
  Alcotest.check b (what ^ ": replay = e") e !acc;
  (* Maximality: pair j's window ends at bit [low], the squarings after it. *)
  let low = ref 0 in
  List.iter
    (fun (s, d) ->
      if d > 0 then begin
        let top = !low + Nat.bit_length (Nat.of_int d) - 1 in
        for i = Stdlib.max 0 (top - w + 1) to !low - 1 do
          if B.test_bit e i then
            Alcotest.failf "%s: window [%d, %d] stops above set bit %d" what !low top i
        done
      end;
      low := !low + s)
    (List.rev sched)

let prop_windows =
  QCheck2.Test.make ~name:"sliding windows canonical form" ~count:300
    (gen_positive ~max_bits:600 ())
    (fun e ->
      QCheck2.assume (B.sign e > 0);
      check_windows ~what:(B.to_string e) e;
      true)

let test_windows_edges () =
  let pow2 k = B.shift_left B.one k in
  List.iter
    (fun e -> check_windows ~what:(B.to_string e) e)
    (List.map B.of_int [ 1; 2; 3; 255; 256 ]
    @ List.concat_map
        (fun k -> [ pow2 k; B.pred (pow2 k) ])
        [ 7; 8; 9; 95; 96; 97; 319; 320; 321 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Bigint.sliding_windows") (fun () ->
      ignore (B.sliding_windows B.zero));
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.sliding_windows") (fun () ->
      ignore (B.sliding_windows B.minus_one))

let test_windows_parameter_sets () =
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      List.iter
        (fun (what, e) -> check_windows ~what:(name ^ ", " ^ what) e)
        [
          ("q", prms.Pairing.q);
          ("h", prms.Pairing.cofactor);
          ("(p+1)/4", B.shift_right (B.succ prms.Pairing.p) 2);
        ])
    Pairing.all_names

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bigint"
    [
      ( "oracle",
        q
          [
            prop_add_oracle; prop_sub_oracle; prop_mul_oracle; prop_divmod_oracle;
            prop_compare_oracle;
          ] );
      ( "algebra",
        q
          [
            prop_add_comm; prop_mul_comm; prop_mul_assoc; prop_distrib;
            prop_add_sub_inverse; prop_divmod_reconstruct; prop_erem_range; prop_sqr;
            prop_nat_sqr; prop_square_of_sum_wide; prop_shift; prop_bit_length;
          ]
        @ [ Alcotest.test_case "Nat.sqr limb widths" `Quick test_nat_sqr_limb_widths ] );
      ( "codecs",
        q [ prop_string_roundtrip; prop_hex_roundtrip; prop_bytes_roundtrip ]
        @ [
            Alcotest.test_case "decimal padding" `Quick test_decimal_padding;
            Alcotest.test_case "bytes padding" `Quick test_bytes_padding;
          ] );
      ( "modular",
        q
          [
            prop_egcd; prop_invmod; prop_powmod_matches_naive; prop_powmod_even_modulus;
            prop_fermat; prop_mont_roundtrip; prop_mont_mul; prop_mont_add_sub;
            prop_mont_window_pow; prop_jacobi_squares;
          ]
        @ [
            Alcotest.test_case "window pow edge exponents" `Quick
              test_window_pow_edge_exponents;
          ] );
      ( "prime",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "large known prime" `Quick test_known_large_prime;
          Alcotest.test_case "negative" `Quick test_negative_not_prime;
          Alcotest.test_case "gen_prime" `Slow test_gen_prime;
          Alcotest.test_case "gen_prime_congruent" `Slow test_gen_prime_congruent;
        ] );
      ( "division-fuzz",
        [ Alcotest.test_case "knuth structured fuzz" `Slow test_knuth_division_structured_fuzz ] );
      ( "wnaf",
        q [ prop_wnaf ]
        @ [
            Alcotest.test_case "edges" `Quick test_wnaf_edges;
            Alcotest.test_case "q, h and random scalars, all sets" `Quick
              test_wnaf_parameter_sets;
          ] );
      ( "windows",
        q [ prop_windows ]
        @ [
            Alcotest.test_case "edges" `Quick test_windows_edges;
            Alcotest.test_case "q, h and (p+1)/4, all sets" `Quick
              test_windows_parameter_sets;
          ] );
      ( "edge-cases",
        [
          Alcotest.test_case "zero" `Quick test_zero_behaviour;
          Alcotest.test_case "to_int bounds" `Quick test_to_int_bounds;
          Alcotest.test_case "random_below" `Quick test_random_below_range;
          Alcotest.test_case "random_bits" `Quick test_random_bits_width;
        ] );
    ]
