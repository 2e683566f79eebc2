(* Group-law tests for the supersingular curve and its codecs, plus
   subgroup structure checks against the toy64 pairing parameters. *)

module B = Bigint

let prms = Pairing.toy64 ()
let curve = prms.Pairing.curve
let fp = prms.Pairing.fp
let g = prms.Pairing.g
let q = prms.Pairing.q

let point = Alcotest.testable (Curve.pp curve) Curve.equal

let rng = Hashing.Drbg.create ~seed:"curve-tests" ()

(* Random point of the order-q subgroup. *)
let gen_subgroup_point =
  QCheck2.Gen.(
    let* k = int_range 1 1_000_000 in
    return (Curve.mul curve (B.of_int k) g))

let gen_scalar =
  QCheck2.Gen.(map B.of_int (int_range (-1000) 1000))

let test_generator_on_curve () =
  Alcotest.(check bool) "on curve" true (Curve.on_curve curve g);
  Alcotest.(check bool) "not infinity" false (Curve.is_infinity g);
  Alcotest.check point "order q" Curve.infinity (Curve.mul curve q g)

let test_make_rejects_off_curve () =
  Alcotest.check_raises "off curve" (Invalid_argument "Curve.make: point not on curve")
    (fun () -> ignore (Curve.make curve ~x:(Fp.of_int fp 1) ~y:(Fp.of_int fp 1)))

let test_identity_laws () =
  Alcotest.check point "O + G = G" g (Curve.add curve Curve.infinity g);
  Alcotest.check point "G + O = G" g (Curve.add curve g Curve.infinity);
  Alcotest.check point "G + (-G) = O" Curve.infinity (Curve.add curve g (Curve.neg curve g));
  Alcotest.check point "0.G = O" Curve.infinity (Curve.mul curve B.zero g);
  Alcotest.check point "1.G = G" g (Curve.mul curve B.one g);
  Alcotest.check point "double O" Curve.infinity (Curve.double curve Curve.infinity)

let test_two_torsion () =
  (* (0, 0) is on the curve and is its own negation: doubling gives O. *)
  let t = Curve.make curve ~x:(Fp.zero fp) ~y:(Fp.zero fp) in
  Alcotest.check point "2-torsion doubles to O" Curve.infinity (Curve.double curve t)

(* [add_many] shares one inversion across its chord sums; each result
   must equal [add] of its pair, including the pairs [add] handles
   without a chord (infinity, a doubling, an inverse pair, the
   2-torsion point) scattered among chords, and the empty batch. *)
let test_add_many () =
  let pt k = Curve.mul curve (B.of_int k) g in
  let t = Curve.make curve ~x:(Fp.zero fp) ~y:(Fp.zero fp) in
  let off = Curve.mul curve q (Pairing.hash_to_g1_unclamped prms "add-many") in
  let pairs =
    [| (pt 3, pt 5); (Curve.infinity, pt 7); (pt 11, pt 11); (pt 2, pt 9);
       (pt 4, Curve.neg curve (pt 4)); (t, t); (t, pt 6); (off, pt 8);
       (pt 12, Curve.infinity); (Curve.infinity, Curve.infinity); (pt 13, off) |]
  in
  let sums = Curve.add_many curve pairs in
  Alcotest.(check int) "length" (Array.length pairs) (Array.length sums);
  Array.iteri
    (fun i (a, b) ->
      Alcotest.check point (Printf.sprintf "pair %d" i) (Curve.add curve a b) sums.(i))
    pairs;
  Alcotest.(check int) "empty" 0 (Array.length (Curve.add_many curve [||]))

let test_group_order () =
  Alcotest.(check bool) "p+1 = h*q" true
    (B.equal (Curve.group_order curve) (B.mul prms.Pairing.cofactor q))

let test_full_order_kills_any_point () =
  (* Any curve point is killed by p + 1 = #E. *)
  for i = 1 to 10 do
    let h = Pairing.hash_to_g1 prms (Printf.sprintf "pt-%d" i) in
    Alcotest.check point "killed" Curve.infinity
      (Curve.mul curve (Curve.group_order curve) h)
  done

let prop_add_commutative =
  QCheck2.Test.make ~name:"P+Q = Q+P" ~count:100
    QCheck2.Gen.(pair gen_subgroup_point gen_subgroup_point)
    (fun (a, b) -> Curve.equal (Curve.add curve a b) (Curve.add curve b a))

let prop_add_associative =
  QCheck2.Test.make ~name:"(P+Q)+R = P+(Q+R)" ~count:100
    QCheck2.Gen.(triple gen_subgroup_point gen_subgroup_point gen_subgroup_point)
    (fun (a, b, c) ->
      Curve.equal
        (Curve.add curve (Curve.add curve a b) c)
        (Curve.add curve a (Curve.add curve b c)))

let prop_double_is_add =
  QCheck2.Test.make ~name:"2P = P+P" ~count:100 gen_subgroup_point (fun a ->
      Curve.equal (Curve.double curve a) (Curve.add curve a a))

let prop_mul_distributes =
  QCheck2.Test.make ~name:"(k+l).P = k.P + l.P" ~count:100
    QCheck2.Gen.(pair (pair gen_scalar gen_scalar) gen_subgroup_point)
    (fun ((k, l), pt) ->
      Curve.equal
        (Curve.mul curve (B.add k l) pt)
        (Curve.add curve (Curve.mul curve k pt) (Curve.mul curve l pt)))

let prop_mul_composes =
  QCheck2.Test.make ~name:"k.(l.P) = (k*l).P" ~count:100
    QCheck2.Gen.(pair (pair gen_scalar gen_scalar) gen_subgroup_point)
    (fun ((k, l), pt) ->
      Curve.equal
        (Curve.mul curve k (Curve.mul curve l pt))
        (Curve.mul curve (B.mul k l) pt))

let prop_scalar_mod_q =
  QCheck2.Test.make ~name:"k.P = (k mod q).P on subgroup" ~count:50
    QCheck2.Gen.(pair gen_scalar gen_subgroup_point)
    (fun (k, pt) ->
      Curve.equal (Curve.mul curve k pt) (Curve.mul curve (B.erem k q) pt))

let prop_on_curve_closed =
  QCheck2.Test.make ~name:"addition stays on curve" ~count:100
    QCheck2.Gen.(pair gen_subgroup_point gen_subgroup_point)
    (fun (a, b) -> Curve.on_curve curve (Curve.add curve a b))

(* --- scalar-multiplication path equivalence ---

   Three independent implementations must agree everywhere: the reference
   Jacobian double-and-add, the Montgomery ladder behind Curve.mul, and
   the fixed-base table. *)

let table_g = Curve.Table.create curve ~bits:(B.bit_length q) g

let check_paths ?(curve = curve) name k pt tbl =
  let reference = Curve.mul_double_add curve k pt in
  if not (Curve.equal (Curve.mul curve k pt) reference) then
    Alcotest.fail (name ^ ": ladder disagrees with double-and-add");
  match tbl with
  | None -> ()
  | Some tbl ->
      if not (Curve.equal (Curve.Table.mul tbl k) reference) then
        Alcotest.fail (name ^ ": table disagrees with double-and-add")

let test_mul_paths_edge_scalars () =
  let cases =
    [
      ("0", B.zero); ("1", B.one); ("2", B.two); ("3", B.of_int 3);
      ("q-1", B.pred q); ("q", q); ("q+1", B.succ q);
      ("2^40", B.pow B.two 40);
      ("2^40+1", B.succ (B.pow B.two 40));
      ("2^63", B.pow B.two 63);
      ("0xFF<<50", B.shift_left (B.of_int 0xFF) 50);
      ("-1", B.of_int (-1)); ("-(q-1)", B.neg (B.pred q));
      ("all-ones 60", B.pred (B.pow B.two 60));
      ("beyond table bits", B.mul q q);
    ]
  in
  List.iter (fun (name, k) -> check_paths name k g (Some table_g)) cases;
  (* A non-generator variable base exercises the ladder without the table. *)
  let h = Pairing.hash_to_g1 prms "mul-paths-var-base" in
  List.iter (fun (name, k) -> check_paths ("h: " ^ name) k h None) cases

let test_mul_paths_two_torsion () =
  (* (0,0) is 2-torsion: the ladder's u = 0 base, handled before the
     ladder runs, and an odd-multiple table that collapses onto the
     fixed-base fallback. *)
  let t = Curve.make curve ~x:(Fp.zero fp) ~y:(Fp.zero fp) in
  let tbl = Curve.Table.create curve ~bits:(B.bit_length q) t in
  List.iter
    (fun (name, k) -> check_paths ("2-torsion " ^ name) k t (Some tbl))
    [ ("2", B.two); ("big even", B.mul q q); ("big odd", B.succ (B.mul q q)) ];
  check_paths "infinity base" (B.of_int 12345) Curve.infinity
    (Some (Curve.Table.create curve ~bits:(B.bit_length q) Curve.infinity))

let prop_mul_paths_agree =
  let gen_wide_scalar =
    QCheck2.Gen.(
      let* bytes = string_size ~gen:char (int_range 0 20) in
      let* negate = bool in
      let v = B.of_bytes_be bytes in
      return (if negate then B.neg v else v))
  in
  QCheck2.Test.make ~name:"mul = mul_double_add = Table.mul" ~count:100
    gen_wide_scalar
    (fun k ->
      let reference = Curve.mul_double_add curve k g in
      Curve.equal (Curve.mul curve k g) reference
      && Curve.equal (Curve.Table.mul table_g k) reference)

let msm_reference pairs =
  List.fold_left
    (fun acc (k, p) -> Curve.add curve acc (Curve.mul curve k p))
    Curve.infinity pairs

let prop_msm_agrees =
  (* Random mixes of wide/negative scalars and subgroup points, plus the
     occasional infinity term. *)
  let gen_term =
    QCheck2.Gen.(
      let* bytes = string_size ~gen:char (int_range 0 12) in
      let* negate = bool in
      let* inf = frequency [ (9, return false); (1, return true) ] in
      let* p = gen_subgroup_point in
      let k = B.of_bytes_be bytes in
      let k = if negate then B.neg k else k in
      return (k, if inf then Curve.infinity else p))
  in
  QCheck2.Test.make ~name:"msm = sum of muls" ~count:50
    QCheck2.Gen.(list_size (int_range 0 10) gen_term)
    (fun pairs -> Curve.equal (Curve.msm curve pairs) (msm_reference pairs))

let test_msm_edges () =
  let check name pairs =
    Alcotest.check point name (msm_reference pairs) (Curve.msm curve pairs)
  in
  check "empty" [];
  check "single" [ (B.of_int 7, g) ];
  check "zero scalars" [ (B.zero, g); (B.zero, Curve.mul curve B.two g) ];
  check "cancellation" [ (B.of_int 5, g); (B.of_int (-5), g) ];
  (* 2-torsion terms take the low-order fallback inside msm. *)
  let t = Curve.make curve ~x:(Fp.zero fp) ~y:(Fp.zero fp) in
  check "2-torsion mix" [ (B.of_int 3, t); (B.of_int 11, g); (q, t) ];
  check "full-order point" [ (B.of_int 9, Curve.mul curve B.two g); (B.of_int 4, t) ];
  check "wide scalars" [ (B.mul q q, g); (B.neg (B.succ q), g) ]

let test_mul_paths_all_param_sets () =
  (* Every named parameter set (both curve families, up to 512-bit p). *)
  let rng = Hashing.Drbg.create ~seed:"mul-paths-params" () in
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("unknown params " ^ name)
      | Some prms ->
          let curve = prms.Pairing.curve in
          let g = prms.Pairing.g in
          let q = prms.Pairing.q in
          let tbl = Curve.Table.create curve ~bits:(B.bit_length q) g in
          let scalars =
            [ B.zero; B.one; B.pred q; q;
              B.pow B.two (B.bit_length q - 1);
              B.succ (B.pow B.two (B.bit_length q - 1)) ]
            @ List.init 3 (fun _ -> Pairing.random_scalar prms rng)
          in
          List.iter
            (fun k ->
              let reference = Curve.mul_double_add curve k g in
              if not (Curve.equal (Curve.mul curve k g) reference) then
                Alcotest.fail (name ^ ": mul");
              if not (Curve.equal (Curve.Table.mul tbl k) reference) then
                Alcotest.fail (name ^ ": table"))
            scalars)
    Pairing.all_names

(* Every point of a tiny curve of each family, against a scalar sweep
   around 0, q, the cofactor h and #E (negatives included): p = 1019 is
   11 mod 12, so both families exist, and #E = 1020 = 2^2 * 3 * 5 * 17
   gives O, the 2-torsion point, points of order 4 (where the group has
   them) and points of every other order dividing 1020. [Pairing.in_g1]
   must agree with its definition, on the curve and killed by q. *)
let test_mul_paths_tiny_curves () =
  let p = B.of_int 1019 and q = B.of_int 17 in
  let order = B.succ p in
  let h = B.div order q in
  let scalars =
    List.concat_map
      (fun c -> List.init 9 (fun i -> B.add c (B.of_int (i - 4))))
      [ B.zero; q; h; order; B.neg q; B.neg h; B.neg order ]
    @ [ B.succ (B.mul order order); B.mul q h ]
  in
  List.iter
    (fun (family, fname) ->
      let prms = Pairing.make ~family ~name:("tiny1019-" ^ fname) ~p ~q () in
      let curve = prms.Pairing.curve in
      let fp = prms.Pairing.fp in
      let points =
        Curve.infinity
        :: List.concat_map
             (fun x ->
               match Curve.lift_x curve (Fp.of_int fp x) with
               | None -> []
               | Some (lo, hi) -> if Curve.equal lo hi then [ lo ] else [ lo; hi ])
             (List.init 1019 Fun.id)
      in
      Alcotest.(check int) (fname ^ ": #E") 1020 (List.length points);
      List.iter
        (fun pt ->
          let name = Format.asprintf "%s %a" fname (Curve.pp curve) pt in
          List.iter
            (fun k -> check_paths ~curve (name ^ " k=" ^ B.to_string k) k pt None)
            scalars;
          let reference =
            Curve.on_curve curve pt
            && Curve.is_infinity (Curve.mul_double_add curve q pt)
          in
          if Pairing.in_g1 prms pt <> reference then
            Alcotest.fail (name ^ ": in_g1 disagrees with [q]P = O"))
        points)
    [ (Pairing.Y2_x3_x, "x^3+x"); (Pairing.Y2_x3_1, "x^3+1") ]

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"point codec roundtrip" ~count:100 gen_subgroup_point
    (fun a -> Curve.of_bytes curve (Curve.to_bytes curve a) = Some a)

let test_infinity_codec () =
  Alcotest.(check string) "encoding" "\x00" (Curve.to_bytes curve Curve.infinity);
  Alcotest.(check bool) "roundtrip" true
    (Curve.of_bytes curve "\x00" = Some Curve.infinity)

let test_of_bytes_rejects () =
  Alcotest.(check bool) "bad tag" true (Curve.of_bytes curve (String.make (Curve.byte_length curve) '\x07') = None);
  Alcotest.(check bool) "bad length" true (Curve.of_bytes curve "\x02\x01" = None);
  (* x with no point on the curve: find one by scanning. *)
  let rec non_residue_x i =
    let x = Fp.of_int fp i in
    match Curve.lift_x curve x with
    | None -> x
    | Some _ -> non_residue_x (i + 1)
  in
  let x = non_residue_x 2 in
  let enc = "\x02" ^ Fp.to_bytes fp x in
  Alcotest.(check bool) "off-curve x" true (Curve.of_bytes curve enc = None)

let test_lift_x_ordering () =
  match Curve.lift_x curve (Fp.of_int fp 5) with
  | None -> () (* nothing to check for this x on these parameters *)
  | Some (lo, hi) -> (
      match (lo, hi) with
      | Curve.Affine a, Curve.Affine b ->
          Alcotest.(check bool) "ordered" true
            (B.compare (Fp.to_bigint fp a.y) (Fp.to_bigint fp b.y) <= 0)
      | _ -> Alcotest.fail "lift_x returned infinity")

let test_hash_to_g1_properties () =
  let seen = Hashtbl.create 16 in
  for i = 1 to 20 do
    let pt = Pairing.hash_to_g1 prms (Printf.sprintf "msg-%d" i) in
    Alcotest.(check bool) "in subgroup" true (Pairing.in_g1 prms pt);
    Alcotest.(check bool) "not infinity" false (Curve.is_infinity pt);
    Hashtbl.replace seen (Curve.to_bytes curve pt) ()
  done;
  Alcotest.(check int) "all distinct" 20 (Hashtbl.length seen);
  (* Determinism. *)
  Alcotest.check point "deterministic" (Pairing.hash_to_g1 prms "msg-1")
    (Pairing.hash_to_g1 prms "msg-1")

let test_random_scalar_range () =
  for _ = 1 to 100 do
    let k = Pairing.random_scalar prms rng in
    if B.sign k <= 0 || B.compare k q >= 0 then Alcotest.fail "scalar out of range"
  done

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "curve"
    [
      ( "structure",
        [
          Alcotest.test_case "generator" `Quick test_generator_on_curve;
          Alcotest.test_case "make rejects" `Quick test_make_rejects_off_curve;
          Alcotest.test_case "identity laws" `Quick test_identity_laws;
          Alcotest.test_case "2-torsion" `Quick test_two_torsion;
          Alcotest.test_case "add_many = add" `Quick test_add_many;
          Alcotest.test_case "group order" `Quick test_group_order;
          Alcotest.test_case "#E kills all" `Quick test_full_order_kills_any_point;
        ] );
      ( "group-laws",
        qc
          [
            prop_add_commutative; prop_add_associative; prop_double_is_add;
            prop_mul_distributes; prop_mul_composes; prop_scalar_mod_q;
            prop_on_curve_closed;
          ] );
      ( "mul-paths",
        qc [ prop_mul_paths_agree; prop_msm_agrees ]
        @ [
            Alcotest.test_case "edge scalars" `Quick test_mul_paths_edge_scalars;
            Alcotest.test_case "2-torsion fallbacks" `Quick test_mul_paths_two_torsion;
            Alcotest.test_case "msm edges" `Quick test_msm_edges;
            Alcotest.test_case "all parameter sets" `Slow test_mul_paths_all_param_sets;
            Alcotest.test_case "every point of p = 1019" `Quick test_mul_paths_tiny_curves;
          ] );
      ( "codec",
        qc [ prop_bytes_roundtrip ]
        @ [
            Alcotest.test_case "infinity" `Quick test_infinity_codec;
            Alcotest.test_case "rejects" `Quick test_of_bytes_rejects;
            Alcotest.test_case "lift_x ordering" `Quick test_lift_x_ordering;
          ] );
      ( "hash-to-g1",
        [
          Alcotest.test_case "properties" `Quick test_hash_to_g1_properties;
          Alcotest.test_case "random scalar" `Quick test_random_scalar_range;
        ] );
    ]
