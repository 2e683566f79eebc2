(* Differential tests: the fixed-limb in-place kernels ({!Limbs}) against
   the generic variable-length Montgomery reference ({!Modarith.Mont}).

   Both sides keep canonical (fully reduced) representatives, so the
   contract is exact value equality through [to_bigint] on every
   operation, for every modulus shape — including adversarial ones: edge
   values 0, 1, m-1, values forcing full carry chains, and moduli that
   fill their top limb. *)

module B = Bigint
module Mont = Modarith.Mont

let bi = Alcotest.testable B.pp B.equal

(* Deterministic RNG for reproducible failures. *)
let rng = ref (Hashing.Drbg.create ~seed:"test-limbs" ())

let random_bigint bytes =
  B.of_bytes_be (Hashing.Drbg.generate !rng bytes)

(* Synthetic moduli: the 256-bit test prime, a handful of random odd
   moduli of assorted limb counts, maximal moduli and the narrowest ones
   of the straight-line width. Built without [Pairing], so a broken
   kernel fails a differential check that names the operation instead of
   a parameter set's construction. *)
let synthetic_moduli =
  let p256 = B.sub (B.pow B.two 256) (B.of_int 189) in
  let random_odds =
    List.map
      (fun bytes ->
        let v = random_bigint bytes in
        let v = B.add v (B.shift_left B.one ((8 * bytes) - 1)) in
        if B.is_even v then B.succ v else v)
      [ 4; 9; 17; 33; 64 ]
  in
  (* 2^bits - 61. At bits = 29k the top kernel limb is saturated, with
     no headroom above m; k = 31, the widest context, drives the widest
     column sum to just below 2^64. The 26k-bit ones leave the top limb
     part-filled. *)
  let maximal bits = B.sub (B.shift_left B.one bits) (B.of_int 61) in
  let maximal =
    List.map (fun k -> maximal (29 * k)) [ 1; 3; 9; 18; 31 ]
    @ List.map (fun k -> maximal (26 * k)) [ 1; 3; 5; 9; 10; 20 ]
  in
  (* One bit in the top limb: 233 bits is the narrowest 9-limb modulus,
     so with 2^261 - 61 above, both ends of the straight-line width. The
     low limbs are 3^150 mod 2^(bits-1), an odd value with no pattern. *)
  let narrow bits =
    let top = B.shift_left B.one (bits - 1) in
    B.add top (B.erem (B.pow (B.of_int 3) 150) top)
  in
  [ p256 ] @ random_odds @ maximal @ [ narrow 233; narrow 235 ]

(* Every named parameter set's p, read inside the cases that use it:
   [Pairing.by_name] builds the set on the kernels under test. *)
let named_moduli () =
  List.map (fun n -> (Option.get (Pairing.by_name n)).Pairing.p) Pairing.all_names

let edge_values m =
  [ B.zero; B.one; B.of_int 2; B.pred m; B.sub m (B.of_int 2);
    (* All-ones limb patterns force full carry/borrow chains. *)
    B.erem (B.pred (B.shift_left B.one (31 * Nat.num_limbs (B.magnitude m)))) m;
    B.erem (B.shift_left B.one (31 * (Nat.num_limbs (B.magnitude m) - 1))) m ]

let values m n =
  edge_values m
  @ List.init n (fun _ -> B.erem (random_bigint (((B.bit_length m + 7) / 8) + 3)) m)

let check_modulus m =
  let kc = Limbs.create m in
  let mc = Mont.create m in
  let to_k v = Limbs.of_bigint kc v and to_m v = Mont.of_bigint mc v in
  let name op = Format.asprintf "%s mod %a" op B.pp m in
  let vs = values m 12 in
  (* Round trip. *)
  List.iter
    (fun v ->
      Alcotest.check bi (name "roundtrip") v (Limbs.to_bigint kc (to_k v)))
    vs;
  (* Unary ops. *)
  List.iter
    (fun v ->
      let a = to_k v and am = to_m v in
      let d = Limbs.alloc kc in
      Limbs.neg_into kc d a;
      Alcotest.check bi (name "neg") (Mont.to_bigint mc (Mont.neg mc am))
        (Limbs.to_bigint kc d);
      (* neg with dst aliasing the operand. *)
      let a' = Limbs.of_bigint kc v in
      Limbs.neg_into kc a' a';
      Alcotest.check bi (name "neg-aliased")
        (Mont.to_bigint mc (Mont.neg mc am))
        (Limbs.to_bigint kc a');
      Limbs.sqr_into kc d a;
      Alcotest.check bi (name "sqr") (Mont.to_bigint mc (Mont.sqr mc am))
        (Limbs.to_bigint kc d);
      (* sqr with dst aliasing the operand. *)
      let a' = Limbs.of_bigint kc v in
      Limbs.sqr_into kc a' a';
      Alcotest.check bi (name "sqr-aliased")
        (Mont.to_bigint mc (Mont.sqr mc am))
        (Limbs.to_bigint kc a'))
    vs;
  (* Binary ops over all pairs of edge values plus random pairs. *)
  let pairs =
    let edges = edge_values m in
    List.concat_map (fun a -> List.map (fun b -> (a, b)) edges) edges
    @ List.init 20 (fun _ ->
          ( B.erem (random_bigint (((B.bit_length m + 7) / 8) + 1)) m,
            B.erem (random_bigint (((B.bit_length m + 7) / 8) + 1)) m ))
  in
  List.iter
    (fun (x, y) ->
      let a = to_k x and b = to_k y in
      let am = to_m x and bm = to_m y in
      let d = Limbs.alloc kc in
      Limbs.add_into kc d a b;
      Alcotest.check bi (name "add") (Mont.to_bigint mc (Mont.add mc am bm))
        (Limbs.to_bigint kc d);
      Limbs.sub_into kc d a b;
      Alcotest.check bi (name "sub") (Mont.to_bigint mc (Mont.sub mc am bm))
        (Limbs.to_bigint kc d);
      Limbs.mul_into kc d a b;
      Alcotest.check bi (name "mul") (Mont.to_bigint mc (Mont.mul mc am bm))
        (Limbs.to_bigint kc d);
      (* mul with dst aliasing both operand slots. *)
      let a' = Limbs.of_bigint kc x in
      Limbs.mul_into kc a' a' b;
      Alcotest.check bi (name "mul-aliased")
        (Mont.to_bigint mc (Mont.mul mc am bm))
        (Limbs.to_bigint kc a');
      (* add and sub with dst aliasing a, b, and both operand slots. *)
      List.iter
        (fun (op, kernel, reference) ->
          let expect = Mont.to_bigint mc (reference am bm) in
          let a' = Limbs.of_bigint kc x in
          kernel kc a' a' b;
          Alcotest.check bi (name (op ^ "-aliased-a")) expect
            (Limbs.to_bigint kc a');
          let b' = Limbs.of_bigint kc y in
          kernel kc b' a b';
          Alcotest.check bi (name (op ^ "-aliased-b")) expect
            (Limbs.to_bigint kc b');
          let c' = Limbs.of_bigint kc x in
          kernel kc c' c' c';
          Alcotest.check bi (name (op ^ "-aliased-ab"))
            (Mont.to_bigint mc (reference am am))
            (Limbs.to_bigint kc c'))
        [ ("add", Limbs.add_into, Mont.add mc); ("sub", Limbs.sub_into, Mont.sub mc) ])
    pairs;
  (* pow against the generic reference, assorted exponents. *)
  let exps =
    [ B.zero; B.one; B.of_int 2; B.of_int 255; B.pred m; m; B.pow B.two 75 ]
    @ List.init 4 (fun _ -> random_bigint 20)
  in
  List.iter
    (fun v ->
      List.iter
        (fun e ->
          let d = Limbs.alloc kc in
          Limbs.pow_into kc d (to_k v) e;
          Alcotest.check bi (name "pow")
            (Mont.to_bigint mc (Mont.pow mc (to_m v) e))
            (Limbs.to_bigint kc d))
        exps)
    [ B.zero; B.one; B.pred m; B.erem (random_bigint 16) m ];
  (* inv: agreement with the (fixed) generic path, and a*a^-1 = 1 —
     where gcd(a, m) = 1; both sides raise Division_by_zero otherwise. *)
  List.iter
    (fun v ->
      if B.equal (Modarith.gcd v m) B.one && not (B.is_zero v) then begin
        let d = Limbs.alloc kc in
        Limbs.inv_into kc d (to_k v);
        Alcotest.check bi (name "inv")
          (Mont.to_bigint mc (Mont.inv mc (to_m v)))
          (Limbs.to_bigint kc d);
        Limbs.mul_into kc d d (to_k v);
        Alcotest.check bi (name "a * a^-1") B.one (Limbs.to_bigint kc d)
      end
      else if not (B.is_zero (B.erem v m)) then
        Alcotest.check_raises (name "inv non-invertible") Division_by_zero
          (fun () ->
            ignore (Limbs.inv_into kc (Limbs.alloc kc) (to_k v))))
    (values m 6)

let test_differential_synthetic () = List.iter check_modulus synthetic_moduli
let test_differential_named () = List.iter check_modulus (named_moduli ())

let test_mont_inv_roundtrip_equiv () =
  (* The single-conversion [Mont.inv] must agree with the old
     decode-invert-encode path on every modulus. *)
  List.iter
    (fun m ->
      let mc = Mont.create m in
      List.iter
        (fun v ->
          if B.equal (Modarith.gcd v m) B.one && not (B.is_zero v) then begin
            let a = Mont.of_bigint mc v in
            let old_path =
              Mont.of_bigint mc (Modarith.invmod (Mont.to_bigint mc a) m)
            in
            Alcotest.check bi "inv = decode/invert/encode"
              (Mont.to_bigint mc old_path)
              (Mont.to_bigint mc (Mont.inv mc a))
          end)
        (values m 8))
    (synthetic_moduli @ named_moduli ())

(* The hot kernels must stay allocation-free: their scratch is per-domain
   and grow-only, so after a warm-up call the steady state allocates
   nothing. Guards the binary-extgcd inversion (and the mul it ends on)
   against silently regressing to an allocating path. *)
let test_inv_allocation_free () =
  List.iter
    (fun n ->
      match Pairing.by_name n with
      | None -> ()
      | Some prms ->
          let m = prms.Pairing.p in
          let kc = Limbs.create m in
          let a = Limbs.of_bigint kc (B.erem (random_bigint 40) m) in
          let d = Limbs.alloc kc in
          let per_op = Alloc_meter.words_per_call (fun () -> Limbs.inv_into kc d a) in
          if per_op > 1.0 then
            Alcotest.failf "inv_into allocates %.1f words/op at %s" per_op n)
    [ "toy64"; "std160" ]

(* The same guard over the reduced kernels, on every named set: a boxed
   [Int64] in a generated or a loop kernel allocates on every call. *)
let test_reduced_allocation_free () =
  List.iter
    (fun n ->
      let m = (Option.get (Pairing.by_name n)).Pairing.p in
      let kc = Limbs.create m in
      let a = Limbs.of_bigint kc (B.erem (random_bigint 40) m) in
      let b = Limbs.of_bigint kc (B.erem (random_bigint 40) m) in
      let d = Limbs.alloc kc in
      List.iter
        (fun (op, kernel) ->
          let per_op = Alloc_meter.words_per_call kernel in
          if per_op > 1.0 then
            Alcotest.failf "%s allocates %.1f words/op at %s" op per_op n)
        [
          ("mul_into", fun () -> Limbs.mul_into kc d a b);
          ("sqr_into", fun () -> Limbs.sqr_into kc d a);
          ("add_into", fun () -> Limbs.add_into kc d a b);
          ("sub_into", fun () -> Limbs.sub_into kc d a b);
          ("neg_into", fun () -> Limbs.neg_into kc d a);
        ])
    Pairing.all_names

(* The column-sum bound holds up to 31 limbs: one bit more is refused. *)
let test_create_width_limit () =
  let m = B.sub (B.shift_left B.one 900) (B.of_int 61) in
  Alcotest.(check int) "900 bits" 900 (B.bit_length m);
  match Limbs.create m with
  | _ -> Alcotest.fail "a 900-bit modulus was accepted"
  | exception Invalid_argument _ -> ()

(* Concurrent kernel use from multiple domains must be race-free (each
   domain owns its DLS scratch) and bit-identical to the serial run. *)
let test_pool_race_free () =
  let m = B.sub (B.pow B.two 256) (B.of_int 189) in
  let kc = Limbs.create m in
  let items =
    List.init 64 (fun i ->
        (B.erem (random_bigint 33) m, B.erem (random_bigint 33) m, i))
  in
  let work (x, y, i) =
    (* A chain of kernel ops exercising every scratch slot. *)
    let a = Limbs.of_bigint kc x and b = Limbs.of_bigint kc y in
    let d = Limbs.alloc kc in
    Limbs.mul_into kc d a b;
    Limbs.sqr_into kc d d;
    Limbs.add_into kc d d a;
    Limbs.sub_into kc d d b;
    Limbs.pow_into kc d d (B.of_int (97 + i));
    Limbs.inv_into kc d d;
    Limbs.to_bigint kc d
  in
  let serial = List.map work items in
  let pool = Pool.create ~domains:4 () in
  let parallel = Pool.map pool work items in
  Pool.shutdown pool;
  List.iter2
    (fun s p -> Alcotest.check bi "pool = serial" s p)
    serial parallel

let () =
  Alcotest.run "limbs"
    [
      ( "kernel-vs-mont",
        [
          Alcotest.test_case "differential synthetic moduli" `Quick
            test_differential_synthetic;
          Alcotest.test_case "differential named sets" `Quick
            test_differential_named;
          Alcotest.test_case "mont inv single-conversion" `Quick
            test_mont_inv_roundtrip_equiv;
          Alcotest.test_case "inv allocation-free" `Quick
            test_inv_allocation_free;
          Alcotest.test_case "reduced kernels allocation-free" `Quick
            test_reduced_allocation_free;
          Alcotest.test_case "create refuses 32 limbs" `Quick
            test_create_width_limit;
        ] );
      ( "domains",
        [ Alcotest.test_case "pool race-free" `Quick test_pool_race_free ] );
    ]
