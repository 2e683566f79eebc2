(* BLS short signatures: correctness, forgery rejection, batching, codecs. *)

module B = Bigint

let prms = Pairing.toy64 ()
let rng = Hashing.Drbg.create ~seed:"bls-tests" ()
let sk, pk = Bls.keygen prms rng

let test_sign_verify () =
  let msgs = [ ""; "a"; "hello world"; String.make 1000 'x' ] in
  List.iter
    (fun m ->
      let s = Bls.sign prms sk m in
      Alcotest.(check bool) ("verify " ^ String.escaped (String.sub m 0 (min 8 (String.length m))))
        true (Bls.verify prms pk m s))
    msgs

let test_wrong_message_rejected () =
  let s = Bls.sign prms sk "message one" in
  Alcotest.(check bool) "wrong msg" false (Bls.verify prms pk "message two" s)

let test_wrong_key_rejected () =
  let _, pk2 = Bls.keygen prms rng in
  let s = Bls.sign prms sk "msg" in
  Alcotest.(check bool) "wrong key" false (Bls.verify prms pk2 "msg" s)

let test_tampered_signature_rejected () =
  let s = Bls.sign prms sk "msg" in
  let tampered = Curve.add prms.Pairing.curve s prms.Pairing.g in
  Alcotest.(check bool) "tampered" false (Bls.verify prms pk "msg" tampered)

let test_infinity_signature_rejected () =
  Alcotest.(check bool) "infinity not valid for random msg" false
    (Bls.verify prms pk "some message" Curve.infinity)

(* Generators a key must refuse: under G = O every public point is O, so
   both sides of the verification equation are 1 and any signature
   verifies; G plus the order-2 point is on the curve but outside G1. *)
let bad_generators =
  [ ("O", Curve.infinity);
    ("G + order-2 point",
     Curve.add prms.Pairing.curve prms.Pairing.g (Small_order.order_two prms)) ]

let bad_generator = Invalid_argument "Bls: generator must be a non-identity G1 point"

let test_custom_generator () =
  let g2 = Curve.mul prms.Pairing.curve (B.of_int 7) prms.Pairing.g in
  let sk2, pk2 = Bls.keygen ~g:g2 prms rng in
  let s = Bls.sign prms sk2 "msg" in
  Alcotest.(check bool) "custom generator verify" true (Bls.verify prms pk2 "msg" s);
  Alcotest.(check bool) "not under default pk" false (Bls.verify prms pk "msg" s);
  let _, pk_g = Bls.keygen ~g:prms.Pairing.g prms rng in
  Alcotest.(check bool) "G accepted" true (Curve.equal pk_g.Bls.g prms.Pairing.g);
  List.iter
    (fun (what, g) ->
      Alcotest.check_raises ("keygen refuses " ^ what) bad_generator (fun () ->
          ignore (Bls.keygen ~g prms rng)))
    bad_generators

let test_secret_of_scalar () =
  let sk1, pk1 = Bls.secret_of_scalar prms (B.of_int 12345) () in
  let sk2, pk2 = Bls.secret_of_scalar prms (B.of_int 12345) () in
  Alcotest.(check bool) "deterministic" true
    (Bls.public_to_bytes prms pk1 = Bls.public_to_bytes prms pk2);
  let s = Bls.sign prms sk1 "m" in
  Alcotest.(check bool) "cross verify" true (Bls.verify prms pk2 "m" (Bls.sign prms sk2 "m"));
  Alcotest.(check bool) "verify" true (Bls.verify prms pk1 "m" s);
  Alcotest.check_raises "zero scalar"
    (Invalid_argument "Bls.secret_of_scalar: scalar out of range") (fun () ->
      ignore (Bls.secret_of_scalar prms B.zero ()));
  let _, pk_g = Bls.secret_of_scalar prms (B.of_int 12345) ~g:prms.Pairing.g () in
  Alcotest.(check bool) "G is the default" true
    (Bls.public_to_bytes prms pk_g = Bls.public_to_bytes prms pk1);
  List.iter
    (fun (what, g) ->
      Alcotest.check_raises ("secret_of_scalar refuses " ^ what) bad_generator (fun () ->
          ignore (Bls.secret_of_scalar prms (B.of_int 12345) ~g ())))
    bad_generators

let test_batch_verify () =
  let pairs = List.init 10 (fun i ->
      let m = Printf.sprintf "update-%d" i in
      (m, Bls.sign prms sk m))
  in
  Alcotest.(check bool) "good batch" true (Bls.verify_batch prms pk pairs);
  Alcotest.(check bool) "empty batch" true (Bls.verify_batch prms pk []);
  (* One bad signature poisons the batch. *)
  let poisoned =
    ("poisoned", Bls.sign prms sk "other") :: List.tl pairs
  in
  Alcotest.(check bool) "poisoned batch" false (Bls.verify_batch prms pk poisoned);
  (* Duplicate messages are sound under random-exponent batching: each
     occurrence gets its own d_i, so a repeated valid pair still verifies
     and a tampered duplicate still poisons. *)
  let dup = List.hd pairs :: pairs in
  Alcotest.(check bool) "duplicates fine" true (Bls.verify_batch prms pk dup);
  let m0, s0 = List.hd pairs in
  let bad_dup = (m0, Curve.add prms.Pairing.curve s0 prms.Pairing.g) :: pairs in
  Alcotest.(check bool) "tampered duplicate" false (Bls.verify_batch prms pk bad_dup)

let test_batch_cancellation_attack () =
  (* The attack random exponents exist to stop: shift one signature by +D
     and another by -D. The unweighted sums are unchanged, so a naive
     aggregate check would accept; with per-item d_i the shifts pick up
     different coefficients and must be caught. *)
  let curve = prms.Pairing.curve in
  let d = Curve.mul curve (B.of_int 424242) prms.Pairing.g in
  let s1 = Bls.sign prms sk "cancel-1" and s2 = Bls.sign prms sk "cancel-2" in
  let forged =
    [ ("cancel-1", Curve.add curve s1 d);
      ("cancel-2", Curve.add curve s2 (Curve.neg curve d)) ]
  in
  Alcotest.(check bool) "sanity: honest pair verifies" true
    (Bls.verify_batch prms pk [ ("cancel-1", s1); ("cancel-2", s2) ]);
  Alcotest.(check bool) "cancellation rejected" false (Bls.verify_batch prms pk forged)

let test_batch_with_matches_batch () =
  let pairs = List.init 6 (fun i ->
      let m = Printf.sprintf "with-%d" i in
      (m, Bls.sign prms sk m))
  in
  let vrf = Bls.make_verifier prms pk in
  Alcotest.(check bool) "prepared batch agrees" true (Bls.verify_batch_with prms vrf pairs);
  let poisoned = ("with-0", prms.Pairing.g) :: List.tl pairs in
  Alcotest.(check bool) "prepared poisoned agrees" false
    (Bls.verify_batch_with prms vrf poisoned)

let test_signature_codec () =
  let s = Bls.sign prms sk "roundtrip" in
  let bytes = Bls.signature_to_bytes prms s in
  Alcotest.(check int) "short signature width" (Bls.signature_bytes prms)
    (String.length bytes);
  (match Bls.signature_of_bytes prms bytes with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (Curve.equal s s')
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error
       (Bls.signature_of_bytes prms (String.make (Bls.signature_bytes prms) '\xff')))

let test_public_codec () =
  let bytes = Bls.public_to_bytes prms pk in
  (match Bls.public_of_bytes prms bytes with
  | Ok pk' ->
      Alcotest.(check bool) "roundtrip" true
        (Curve.equal pk.Bls.g pk'.Bls.g && Curve.equal pk.Bls.pk pk'.Bls.pk)
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  Alcotest.(check bool) "truncated rejected" true
    (Result.is_error (Bls.public_of_bytes prms "xx"))

let prop_sign_verify =
  QCheck2.Test.make ~name:"sign/verify roundtrip" ~count:20
    QCheck2.Gen.(small_string ~gen:printable)
    (fun m -> Bls.verify prms pk m (Bls.sign prms sk m))

let prop_signature_determinism =
  QCheck2.Test.make ~name:"signatures deterministic" ~count:20
    QCheck2.Gen.(small_string ~gen:printable)
    (fun m -> Curve.equal (Bls.sign prms sk m) (Bls.sign prms sk m))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bls"
    [
      ( "sign-verify",
        [
          Alcotest.test_case "roundtrip" `Quick test_sign_verify;
          Alcotest.test_case "wrong message" `Quick test_wrong_message_rejected;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
          Alcotest.test_case "tampered" `Quick test_tampered_signature_rejected;
          Alcotest.test_case "infinity" `Quick test_infinity_signature_rejected;
          Alcotest.test_case "custom generator" `Quick test_custom_generator;
          Alcotest.test_case "secret_of_scalar" `Quick test_secret_of_scalar;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch verify" `Quick test_batch_verify;
          Alcotest.test_case "cancellation attack" `Quick test_batch_cancellation_attack;
          Alcotest.test_case "prepared verifier" `Quick test_batch_with_matches_batch;
        ] );
      ( "codec",
        [
          Alcotest.test_case "signature" `Quick test_signature_codec;
          Alcotest.test_case "public key" `Quick test_public_codec;
        ] );
      ("properties", qc [ prop_sign_verify; prop_signature_determinism ]);
    ]
