(* The paper's core TRE scheme (§5.1): functional correctness, the
   time-lock property (no decryption without the right update), key
   validation, server-change verification, serialization, and the
   anonymity-relevant structural facts. *)

module B = Bigint

let prms = Pairing.toy64 ()
let rng = Hashing.Drbg.create ~seed:"tre-tests" ()
let srv_sec, srv_pub = Tre.Server.keygen prms rng
let alice_sec, alice_pub = Tre.User.keygen prms srv_pub rng
let t_release = "2005-06-01T00:00:00Z"

let roundtrip msg =
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
  let upd = Tre.issue_update prms srv_sec t_release in
  Tre.decrypt prms alice_sec upd ct

let test_roundtrip () =
  List.iter
    (fun msg -> Alcotest.(check string) "roundtrip" msg (roundtrip msg))
    [ ""; "x"; "attack at dawn"; String.make 10_000 'z'; "\x00\xff\x00\xff" ]

let test_encrypt_prevalidated_equivalent () =
  (* The fast path must interoperate: prevalidated ciphertexts decrypt
     normally, and the fast path still refuses nothing (caller's duty). *)
  let msg = "fast path" in
  let ct = Tre.encrypt_prevalidated prms srv_pub alice_pub ~release_time:t_release rng msg in
  let upd = Tre.issue_update prms srv_sec t_release in
  Alcotest.(check string) "roundtrip" msg (Tre.decrypt prms alice_sec upd ct)

(* Every variant's sender must reproduce the paper's formula byte for
   byte: U = r.G and K = e^(r.P, L) for its receiver point P and lock
   point L (§5.1: P = asG, L = H1(T)), here on the reference
   double-and-add and the reference pairing with r drawn from the same
   rng stream. [Tre.encrypt] and its Encryptor compute U on the
   generator's fixed-base table and K as a GT power; so are pinned the
   FO (r = H3) and REACT conversions (§5), ID-TRE (P = sG,
   L = H1(ID) + H1(T), §5.2), N servers (one U per server, P = K_new,
   §5.3.5), policy locks (L = sum H1(C_i), §5.3.2), the resilient
   headers (one per ancestor label, §6) and E2's hybrid baseline. The
   server side is s.H1(m) (§5.3.1): an update, an ID-TRE private key and
   a threshold partial. Each ciphertext also decrypts. *)
let test_encrypt_is_paper_formula () =
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      let curve = prms.Pairing.curve in
      let mul = Curve.mul_double_add curve in
      let h1 s = mul prms.Pairing.cofactor (Pairing.hash_to_g1_unclamped prms s) in
      let pt = Curve.to_bytes curve in
      let xor = Hashing.Kdf.xor in
      let krng = Hashing.Drbg.create ~seed:("paper-formula|" ^ name) () in
      let custom = mul (B.of_int 7) prms.Pairing.g in
      let id = "bob@example.org" in
      (* A threshold partial is s_i.H1(T) for the dealer's i-th share:
         replay the dealer's draws (s, then the shares) to learn s_1. *)
      let trng () = Hashing.Drbg.create ~seed:("paper-formula-threshold|" ^ name) () in
      let _, share_servers = Threshold_server.setup prms (trng ()) ~k:2 ~n:3 in
      let s1 =
        let rng = trng () in
        let secret = Pairing.random_scalar prms rng in
        (List.hd (Shamir.split prms rng ~secret ~k:2 ~n:3)).Shamir.value
      in
      Alcotest.(check string) (name ^ ": threshold partial")
        (pt (mul s1 (h1 t_release)))
        (pt (Threshold_server.issue_partial prms (List.hd share_servers) t_release)
             .Threshold_server.value);
      List.iter
        (fun (label, g) ->
          let ssec, srv = Tre.Server.keygen ?g prms krng in
          let asec, pk = Tre.User.keygen prms srv krng in
          let msg = "paper formula, " ^ label in
          let n = String.length msg in
          let fresh () = Hashing.Drbg.create ~seed:("paper-formula-r|" ^ name ^ label) () in
          let what = Printf.sprintf "%s, %s" name label in
          let check_str w = Alcotest.(check string) (what ^ ": " ^ w) in
          let s = Tre.Server.secret_to_scalar ssec in
          let upd = Tre.issue_update prms ssec t_release in
          check_str "issue_update" (pt (mul s (h1 t_release))) (pt upd.Tre.update_value);
          check_str "Id_tre extract" (pt (mul s (h1 id)))
            (pt (Id_tre.Server.extract prms ssec id));
          let paper =
            let r = Pairing.random_scalar prms (fresh ()) in
            let k = Pairing.pairing_ref prms (mul r pk.Tre.User.asg) (h1 t_release) in
            Tre.ciphertext_to_bytes prms
              { Tre.u = mul r srv.Tre.Server.g;
                v = xor msg (Pairing.h2 prms k n);
                release_time = t_release }
          in
          check_str "encrypt" paper
            (Tre.ciphertext_to_bytes prms
               (Tre.encrypt prms srv pk ~release_time:t_release (fresh ()) msg));
          check_str "Encryptor" paper
            (Tre.ciphertext_to_bytes prms
               (Tre.Encryptor.encrypt (Tre.Encryptor.create prms srv pk)
                  ~release_time:t_release (fresh ()) msg));
          check_str "decrypt" msg
            (Tre.decrypt prms asec upd
               (Result.get_ok (Tre.ciphertext_of_bytes prms paper)));
          (* ID-TRE's sender on the same server key: U = r.G and
             K = e^(r.sG, H1(ID) + H1(T)). *)
          let id_paper =
            let r = Pairing.random_scalar prms (fresh ()) in
            let k =
              Pairing.pairing_ref prms (mul r srv.Tre.Server.sg)
                (Curve.add curve (h1 id) (h1 t_release))
            in
            Id_tre.ciphertext_to_bytes prms
              { Id_tre.u = mul r srv.Tre.Server.g;
                v = xor msg (Pairing.h2 prms k n);
                release_time = t_release }
          in
          check_str "Id_tre.encrypt" id_paper
            (Id_tre.ciphertext_to_bytes prms
               (Id_tre.encrypt prms srv id ~release_time:t_release (fresh ()) msg));
          check_str "Id_tre.Encryptor" id_paper
            (Id_tre.ciphertext_to_bytes prms
               (Id_tre.Encryptor.encrypt (Id_tre.Encryptor.create prms srv) id
                  ~release_time:t_release (fresh ()) msg));
          (* FO: the seed is drawn first and r = H3(seed, M, T). *)
          let fo_paper =
            let seed = Hashing.Drbg.generate (fresh ()) 32 in
            let r = Tre_fo.h3 prms ~seed ~msg ~release_time:t_release in
            let k = Pairing.pairing_ref prms (mul r pk.Tre.User.asg) (h1 t_release) in
            Tre_fo.ciphertext_to_bytes prms
              { Tre_fo.u = mul r srv.Tre.Server.g;
                v = xor seed (Pairing.h2 prms k 32);
                w = xor msg (Hashing.Kdf.mask ("TRE-FO-H4|" ^ seed) n);
                release_time = t_release }
          in
          check_str "Tre_fo.encrypt" fo_paper
            (Tre_fo.ciphertext_to_bytes prms
               (Tre_fo.encrypt prms srv pk ~release_time:t_release (fresh ()) msg));
          check_str "Tre_fo.decrypt" msg
            (Tre_fo.decrypt prms srv pk asec upd
               (Result.get_ok (Tre_fo.ciphertext_of_bytes prms fo_paper)));
          (* REACT: the seed, then r. *)
          let react_paper =
            let rng = fresh () in
            let seed = Hashing.Drbg.generate rng 32 in
            let r = Pairing.random_scalar prms rng in
            let u = mul r srv.Tre.Server.g in
            let k = Pairing.pairing_ref prms (mul r pk.Tre.User.asg) (h1 t_release) in
            let c1 = xor seed (Pairing.h2 prms k 32) in
            let c2 = xor msg (Hashing.Kdf.mask ("TRE-REACT-G|" ^ seed) n) in
            Tre_react.ciphertext_to_bytes prms
              { Tre_react.u; c1; c2;
                tag = Tre_react.tag ~r:seed ~msg ~u_bytes:(pt u) ~c1 ~c2;
                release_time = t_release }
          in
          check_str "Tre_react.encrypt" react_paper
            (Tre_react.ciphertext_to_bytes prms
               (Tre_react.encrypt prms srv pk ~release_time:t_release (fresh ()) msg));
          check_str "Tre_react.decrypt" msg
            (Tre_react.decrypt prms asec upd
               (Result.get_ok (Tre_react.ciphertext_of_bytes prms react_paper)));
          (* Three servers: U_i = r.G_i and K = e^(r.K_new, H1(T)). *)
          let others = List.init 2 (fun _ -> Tre.Server.keygen ?g prms krng) in
          let servers = srv :: List.map snd others in
          let msec, mpk = Multi_server.receiver_keygen prms servers krng in
          let multi_paper =
            let r = Pairing.random_scalar prms (fresh ()) in
            let k = Pairing.pairing_ref prms (mul r mpk.Multi_server.k_new) (h1 t_release) in
            Multi_server.ciphertext_to_bytes prms
              { Multi_server.us =
                  Array.of_list
                    (List.map (fun (sv : Tre.Server.public) -> mul r sv.Tre.Server.g) servers);
                v = xor msg (Pairing.h2 prms k n);
                release_time = t_release }
          in
          check_str "Multi_server.encrypt" multi_paper
            (Multi_server.ciphertext_to_bytes prms
               (Multi_server.encrypt prms servers mpk ~release_time:t_release (fresh ()) msg));
          check_str "Multi_server.decrypt" msg
            (Multi_server.decrypt prms msec
               (upd :: List.map (fun (sec, _) -> Tre.issue_update prms sec t_release) others)
               (Result.get_ok (Multi_server.ciphertext_of_bytes prms multi_paper)));
          (* Two conditions: K = e^(r.asG, H1(C_1) + H1(C_2)). *)
          let conditions = [ t_release; "audit passed" ] in
          let policy = Policy_lock.encrypt prms srv pk ~conditions (fresh ()) msg in
          let r = Pairing.random_scalar prms (fresh ()) in
          let lock =
            List.fold_left
              (fun acc c -> Curve.add curve acc (h1 c))
              Curve.infinity (List.sort_uniq String.compare conditions)
          in
          let k = Pairing.pairing_ref prms (mul r pk.Tre.User.asg) lock in
          check_str "Policy_lock U" (pt (mul r srv.Tre.Server.g)) (pt policy.Policy_lock.u);
          check_str "Policy_lock V" (xor msg (Pairing.h2 prms k n)) policy.Policy_lock.v;
          check_str "Policy_lock.decrypt" msg
            (Policy_lock.decrypt prms asec
               (List.map (Policy_lock.issue_witness prms ssec) conditions)
               policy);
          (* Depth 4: r, then the message key; one header per ancestor,
             K = e^(r.asG, H1(label)). *)
          let tree = Time_tree.create ~depth:4 in
          let release_epoch = 5 in
          let resilient =
            Resilient_tre.encrypt prms tree srv pk ~release_epoch (fresh ()) msg
          in
          let rng = fresh () in
          let r = Pairing.random_scalar prms rng in
          let msg_key = Hashing.Drbg.generate rng 32 in
          check_str "Resilient_tre U" (pt (mul r srv.Tre.Server.g))
            (pt resilient.Resilient_tre.u);
          List.iter2
            (fun node (h : Resilient_tre.header) ->
              let l = Time_tree.node_label tree node in
              let k = Pairing.pairing_ref prms (mul r pk.Tre.User.asg) (h1 l) in
              check_str ("Resilient_tre header " ^ l)
                (l ^ xor msg_key (Pairing.h2 prms k 32))
                (h.Resilient_tre.node_label ^ h.Resilient_tre.blob))
            (Time_tree.ancestors tree release_epoch)
            resilient.Resilient_tre.headers;
          check_str "Resilient_tre body"
            (xor msg (Hashing.Kdf.mask ("TRE-RESILIENT-DEM|" ^ msg_key) n))
            resilient.Resilient_tre.body;
          check_str "Resilient_tre.decrypt" msg
            (Option.get
               (Resilient_tre.decrypt prms tree asec
                  ~cover:(Resilient_tre.issue_cover prms tree ssec ~epoch:release_epoch)
                  resilient));
          (* E2's hybrid: k1, k2, then ElGamal r1 on the system generator
             and Boneh-Franklin r2 on the server's, K = e^(r2.sG, H1(T)). *)
          let x, hpk = Hybrid_baseline.receiver_keygen prms krng in
          let hybrid =
            Hybrid_baseline.encrypt prms srv hpk ~release_time:t_release (fresh ()) msg
          in
          let rng = fresh () in
          let k1 = Hashing.Drbg.generate rng 32 in
          let k2 = Hashing.Drbg.generate rng 32 in
          let r1 = Pairing.random_scalar prms rng in
          let r2 = Pairing.random_scalar prms rng in
          let gid = Pairing.pairing_ref prms (mul r2 srv.Tre.Server.sg) (h1 t_release) in
          let dem =
            Hashing.Kdf.mask
              ("HYB-DEM|" ^ Hashing.Hkdf.derive ~info:"HYB-combine" (k1 ^ k2) n)
              n
          in
          check_str "Hybrid_baseline"
            (String.concat "|"
               [ pt (mul r1 prms.Pairing.g);
                 xor k1 (Hashing.Kdf.mask ("HYB-PKE|" ^ pt (mul r1 hpk)) 32);
                 pt (mul r2 srv.Tre.Server.g);
                 xor k2 (Pairing.h2 prms gid 32);
                 xor msg dem ])
            (String.concat "|"
               [ pt hybrid.Hybrid_baseline.u1; hybrid.Hybrid_baseline.c1;
                 pt hybrid.Hybrid_baseline.u2; hybrid.Hybrid_baseline.c2;
                 hybrid.Hybrid_baseline.body ]);
          check_str "Hybrid_baseline.decrypt" msg
            (Hybrid_baseline.decrypt prms x upd hybrid))
        [ ("generator", None); ("custom generator", Some custom) ])
    Pairing.all_names

let test_update_is_bls_signature () =
  (* §5.3.1: the update is exactly a BLS signature under the server key. *)
  let upd = Tre.issue_update prms srv_sec t_release in
  Alcotest.(check bool) "verifies" true (Tre.verify_update prms srv_pub upd);
  let bls_pub = { Bls.g = srv_pub.Tre.Server.g; pk = srv_pub.Tre.Server.sg } in
  Alcotest.(check bool) "is a BLS signature" true
    (Bls.verify prms bls_pub t_release upd.Tre.update_value)

let test_update_identical_for_all_users () =
  (* The scalability property: the update does not depend on any user. *)
  let u1 = Tre.issue_update prms srv_sec t_release in
  let u2 = Tre.issue_update prms srv_sec t_release in
  Alcotest.(check bool) "deterministic" true
    (Curve.equal u1.Tre.update_value u2.Tre.update_value)

let test_forged_update_rejected () =
  let fake = { Tre.update_time = t_release; update_value = prms.Pairing.g } in
  Alcotest.(check bool) "forged" false (Tre.verify_update prms srv_pub fake);
  (* An update for T' does not verify as an update for T. *)
  let other = Tre.issue_update prms srv_sec "some other time" in
  let relabeled = { other with Tre.update_time = t_release } in
  Alcotest.(check bool) "relabeled" false (Tre.verify_update prms srv_pub relabeled)

let test_decrypt_with_wrong_update_garbage () =
  (* The time-lock property, operationally: an update for a different time
     yields garbage, not the plaintext. *)
  let msg = "top secret bid: $1,000,000" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
  let wrong = Tre.issue_update prms srv_sec "1999-01-01T00:00:00Z" in
  let wrong = { wrong with Tre.update_time = t_release } (* force past the label check *) in
  let out = Tre.decrypt prms alice_sec wrong ct in
  Alcotest.(check bool) "garbage" false (out = msg)

let test_decrypt_update_mismatch_raises () =
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng "m" in
  let upd = Tre.issue_update prms srv_sec "another time" in
  Alcotest.check_raises "mismatch" Tre.Update_mismatch (fun () ->
      ignore (Tre.decrypt prms alice_sec upd ct))

let test_decrypt_with_wrong_secret_garbage () =
  let msg = "for alice only" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
  let upd = Tre.issue_update prms srv_sec t_release in
  let eve_sec, _ = Tre.User.keygen prms srv_pub rng in
  Alcotest.(check bool) "eve fails" false (Tre.decrypt prms eve_sec upd ct = msg)

let test_server_cannot_decrypt () =
  (* The no-escrow property that distinguishes TRE from ID-TRE: the server,
     knowing s and the update, still lacks the receiver exponent a. The
     best server attack with its own material is K'' = e^(U, sigma)^s,
     which must not match. *)
  let msg = "server must not read this" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
  let upd = Tre.issue_update prms srv_sec t_release in
  let s = Tre.Server.secret_to_scalar srv_sec in
  let k_guess = Pairing.gt_pow prms (Pairing.pairing prms ct.Tre.u upd.Tre.update_value) s in
  let attempt = Hashing.Kdf.xor ct.Tre.v (Pairing.h2 prms k_guess (String.length ct.Tre.v)) in
  Alcotest.(check bool) "server attempt fails" false (attempt = msg)

let test_invalid_receiver_key_rejected () =
  (* A key not of the form (aG, asG) must be refused at encryption time. *)
  let bogus = { Tre.User.ag = alice_pub.Tre.User.ag; asg = prms.Pairing.g } in
  Alcotest.(check bool) "validate" false (Tre.validate_receiver_key prms srv_pub bogus);
  Alcotest.check_raises "encrypt" Tre.Invalid_receiver_key (fun () ->
      ignore (Tre.encrypt prms srv_pub bogus ~release_time:t_release rng "m"));
  (* And the honest key passes. *)
  Alcotest.(check bool) "honest ok" true
    (Tre.validate_receiver_key prms srv_pub alice_pub)

let test_receiver_key_other_server_rejected () =
  (* A key bound to server S' fails validation against S. *)
  let _, srv2_pub = Tre.Server.keygen prms rng in
  let _, pk2 = Tre.User.keygen prms srv2_pub rng in
  Alcotest.(check bool) "cross-server key" false
    (Tre.validate_receiver_key prms srv_pub pk2)

let test_password_keygen () =
  let s1, p1 = Tre.User.keygen_from_password prms srv_pub ~password:"correct horse" in
  let s2, p2 = Tre.User.keygen_from_password prms srv_pub ~password:"correct horse" in
  Alcotest.(check bool) "deterministic" true
    (B.equal (Tre.User.secret_to_scalar s1) (Tre.User.secret_to_scalar s2)
    && Curve.equal p1.Tre.User.ag p2.Tre.User.ag);
  let _, p3 = Tre.User.keygen_from_password prms srv_pub ~password:"Correct horse" in
  Alcotest.(check bool) "different password" false (Curve.equal p1.Tre.User.ag p3.Tre.User.ag);
  (* Password-derived keys work end to end. *)
  let ct = Tre.encrypt prms srv_pub p1 ~release_time:t_release rng "pw msg" in
  let upd = Tre.issue_update prms srv_sec t_release in
  Alcotest.(check string) "roundtrip" "pw msg" (Tre.decrypt prms s1 upd ct)

let test_server_change () =
  (* §5.3.4: Alice rebinds to a new server S'; anyone holding her old
     certified key can check the new key without a CA. *)
  let _, srv2_pub = Tre.Server.keygen prms rng in
  let rebound = Tre.User.rebind prms alice_sec srv2_pub in
  Alcotest.(check bool) "accepts genuine rebind" true
    (Tre.verify_server_change prms ~certified:alice_pub ~new_server:srv2_pub
       ~candidate:rebound);
  (* An attacker cannot claim Alice's identity under the new server. *)
  let mallory_sec, _ = Tre.User.keygen prms srv2_pub rng in
  let forged =
    { (Tre.User.rebind prms mallory_sec srv2_pub) with Tre.User.ag = alice_pub.Tre.User.ag }
  in
  Alcotest.(check bool) "rejects forged rebind" false
    (Tre.verify_server_change prms ~certified:alice_pub ~new_server:srv2_pub
       ~candidate:forged);
  (* A candidate with a fresh aG is also rejected (not the certified key). *)
  let fresh = Tre.User.rebind prms mallory_sec srv2_pub in
  Alcotest.(check bool) "rejects different identity" false
    (Tre.verify_server_change prms ~certified:alice_pub ~new_server:srv2_pub
       ~candidate:fresh)

let test_server_custom_generator () =
  let g2 = Curve.mul prms.Pairing.curve (B.of_int 42) prms.Pairing.g in
  let sec2, pub2 = Tre.Server.keygen ~g:g2 prms rng in
  Alcotest.(check bool) "generator kept" true (Curve.equal pub2.Tre.Server.g g2);
  let bob_sec, bob_pub = Tre.User.keygen prms pub2 rng in
  let ct = Tre.encrypt prms pub2 bob_pub ~release_time:t_release rng "custom-g" in
  let upd = Tre.issue_update prms sec2 t_release in
  Alcotest.(check bool) "update verifies" true (Tre.verify_update prms pub2 upd);
  Alcotest.(check string) "roundtrip" "custom-g" (Tre.decrypt prms bob_sec upd ct)

let test_scalar_validation () =
  Alcotest.check_raises "zero" (Invalid_argument "Tre: scalar out of range [1, q-1]")
    (fun () -> ignore (Tre.User.secret_of_scalar prms B.zero));
  Alcotest.check_raises "q" (Invalid_argument "Tre: scalar out of range [1, q-1]")
    (fun () -> ignore (Tre.Server.secret_of_scalar prms prms.Pairing.q))

let test_ciphertext_codec () =
  let msg = "serialize me" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
  let bytes = Tre.ciphertext_to_bytes prms ct in
  (match Tre.ciphertext_of_bytes prms bytes with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok ct' ->
      Alcotest.(check bool) "roundtrip" true
        (Curve.equal ct.Tre.u ct'.Tre.u && ct.Tre.v = ct'.Tre.v
        && ct.Tre.release_time = ct'.Tre.release_time);
      let upd = Tre.issue_update prms srv_sec t_release in
      Alcotest.(check string) "decrypts after roundtrip" msg
        (Tre.decrypt prms alice_sec upd ct'));
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Tre.ciphertext_of_bytes prms "ab"));
  Alcotest.(check int) "overhead accounting" (Tre.ciphertext_overhead prms)
    (String.length bytes - String.length msg - String.length t_release)

let test_update_codec () =
  let upd = Tre.issue_update prms srv_sec t_release in
  (match Tre.update_of_bytes prms (Tre.update_to_bytes prms upd) with
  | Ok u ->
      Alcotest.(check bool) "roundtrip" true
        (u.Tre.update_time = upd.Tre.update_time
        && Curve.equal u.Tre.update_value upd.Tre.update_value)
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  Alcotest.(check bool) "garbage" true
    (Result.is_error (Tre.update_of_bytes prms "zz"))

let test_key_codecs () =
  (match Tre.user_public_of_bytes prms (Tre.user_public_to_bytes prms alice_pub) with
  | Ok pk ->
      Alcotest.(check bool) "user roundtrip" true
        (Curve.equal pk.Tre.User.ag alice_pub.Tre.User.ag
        && Curve.equal pk.Tre.User.asg alice_pub.Tre.User.asg)
  | Error e -> Alcotest.fail ("user decode failed: " ^ e));
  match Tre.server_public_of_bytes prms (Tre.server_public_to_bytes prms srv_pub) with
  | Ok pk ->
      Alcotest.(check bool) "server roundtrip" true
        (Curve.equal pk.Tre.Server.g srv_pub.Tre.Server.g
        && Curve.equal pk.Tre.Server.sg srv_pub.Tre.Server.sg)
  | Error e -> Alcotest.fail ("server decode failed: " ^ e)

let test_serialization_edge_cases () =
  (* Degenerate but legal values must round-trip, and absurd framing must
     be rejected — on every parameter set (the envelope fingerprint and
     point widths differ per set). *)
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("unknown parameter set " ^ name)
      | Some p ->
          let lrng = Hashing.Drbg.create ~seed:("edge|" ^ name) () in
          let ssec, spub = Tre.Server.keygen p lrng in
          let asec, apub = Tre.User.keygen p spub lrng in
          (* Empty message AND empty time label. *)
          let ct = Tre.encrypt p spub apub ~release_time:"" lrng "" in
          let wire = Tre.ciphertext_to_bytes p ct in
          (match Tre.ciphertext_of_bytes p wire with
          | Error e -> Alcotest.fail (name ^ ": empty-value decode failed: " ^ e)
          | Ok ct' ->
              let upd = Tre.issue_update p ssec "" in
              Alcotest.(check string) (name ^ " empty roundtrip") ""
                (Tre.decrypt p asec upd ct'));
          (* A label length far beyond the bound dies on the length field,
             not by attempting a giant allocation. *)
          let oversized =
            Codec.encode p Codec.Ciphertext (fun buf ->
                Codec.add_u32 buf 0x0FFF_FFFF;
                Codec.add_fixed buf "nowhere near that long")
          in
          Alcotest.(check bool) (name ^ " oversized tlen") true
            (Result.is_error (Tre.ciphertext_of_bytes p oversized));
          (* A longer-than-bound label is refused at encode time too. *)
          (match
             Codec.encode p Codec.Ciphertext (fun buf ->
                 Codec.add_label buf (String.make (Codec.max_label_bytes + 1) 't'))
           with
          | _ -> Alcotest.fail (name ^ ": oversized label encoded")
          | exception Invalid_argument _ -> ()))
    [ "toy64"; "toy64b"; "mid128"; "mid128b"; "std160" ]

let test_missed_update_still_works () =
  (* §3/§6: updates are not consumed; a late receiver decrypts with the
     archived update long after the release time. *)
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:"epoch-5" rng "late" in
  (* Server has long moved on to epoch-9; archive still has epoch-5. *)
  let archived = Tre.issue_update prms srv_sec "epoch-5" in
  Alcotest.(check string) "late decrypt" "late" (Tre.decrypt prms alice_sec archived ct)

let test_far_future_release_time () =
  (* The sender can pick any T without the server pre-publishing anything
     (contrast with Rivest's offline list): encryption succeeds for a time
     the server has never heard of. *)
  let t = "2525-01-01T00:00:00Z" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t rng "future" in
  let upd = Tre.issue_update prms srv_sec t in
  Alcotest.(check string) "decrypts when the update finally comes" "future"
    (Tre.decrypt prms alice_sec upd ct)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"roundtrip random msg/time" ~count:15
    QCheck2.Gen.(pair (small_string ~gen:char) (small_string ~gen:printable))
    (fun (msg, t) ->
      let t = "t|" ^ t in
      let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t rng msg in
      let upd = Tre.issue_update prms srv_sec t in
      Tre.decrypt prms alice_sec upd ct = msg)

let prop_ciphertexts_randomized =
  QCheck2.Test.make ~name:"ciphertexts are randomized" ~count:10
    QCheck2.Gen.(small_string ~gen:printable)
    (fun msg ->
      let c1 = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
      let c2 = Tre.encrypt prms srv_pub alice_pub ~release_time:t_release rng msg in
      not (Curve.equal c1.Tre.u c2.Tre.u))

(* Key updates, ID-TRE private keys, threshold partials and BLS
   signatures are all BLS signatures, and each single-verification entry
   point must reject one shifted off G1 by a point of small order. The
   shift is on the curve and invisible to the pairing, so the verdict
   rests on the membership test alone. *)
let test_single_verifiers_reject_shifted () =
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      let curve = prms.Pairing.curve in
      let rng = Hashing.Drbg.create ~seed:("membership|" ^ name) () in
      let id = "bob@example.org" in
      let ssec, spub = Tre.Server.keygen prms rng in
      let vrf = Tre.make_verifier prms spub in
      let upd = Tre.issue_update prms ssec t_release in
      let isec, ipub = Id_tre.Server.keygen prms rng in
      let iupd = Id_tre.Server.issue_update prms isec t_release in
      let system, shares = Threshold_server.setup prms rng ~k:2 ~n:3 in
      let partial = Threshold_server.issue_partial prms (List.hd shares) t_release in
      let bsec, bpub = Bls.keygen prms rng in
      let bvrf = Bls.make_verifier prms bpub in
      let sigma = Bls.sign prms bsec "message" in
      let at u v = { u with Tre.update_value = v } in
      let table =
        [ ("Tre.verify_update", upd.Tre.update_value,
           fun v -> Tre.verify_update prms spub (at upd v));
          ("Tre.verify_update_with", upd.Tre.update_value,
           fun v -> Tre.verify_update_with prms vrf (at upd v));
          ("Tre.Verifier.verify_update", upd.Tre.update_value,
           fun v -> Tre.Verifier.verify_update prms vrf (at upd v));
          ("Id_tre.verify_update", iupd.Tre.update_value,
           fun v -> Id_tre.verify_update prms ipub (at iupd v));
          ("Id_tre.verify_private_key", Id_tre.Server.extract prms isec id,
           fun v -> Id_tre.verify_private_key prms ipub id v);
          ("Threshold_server.verify_partial", partial.Threshold_server.value,
           fun v ->
             Threshold_server.verify_partial prms system t_release
               { partial with Threshold_server.value = v });
          ("Bls.verify", sigma, fun v -> Bls.verify prms bpub "message" v);
          ("Bls.verify_with", sigma, fun v -> Bls.verify_with prms bvrf "message" v) ]
      in
      let shifts = Small_order.shifts prms ~tag:"membership" in
      List.iter
        (fun (what, genuine, verify) ->
          let what = Printf.sprintf "%s, %s" name what in
          Alcotest.(check bool) (what ^ ": accepts the genuine object") true
            (verify genuine);
          List.iter
            (fun (l, t) ->
              let shifted = Curve.add curve genuine t in
              let what = Printf.sprintf "%s, shifted off G1 (l = %d)" what l in
              Alcotest.(check bool) (what ^ ": on the curve, outside G1") true
                (Curve.on_curve curve shifted && not (Pairing.in_g1 prms shifted));
              Alcotest.(check bool) (what ^ ": the pairing cannot see it") true
                (Fp2.equal
                   (Pairing.pairing prms prms.Pairing.g shifted)
                   (Pairing.pairing prms prms.Pairing.g genuine));
              Alcotest.(check bool) (what ^ ": rejected") false (verify shifted))
            shifts)
        table)
    Pairing.all_names

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tre"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "basic" `Quick test_roundtrip;
          Alcotest.test_case "missed update" `Quick test_missed_update_still_works;
          Alcotest.test_case "far-future time" `Quick test_far_future_release_time;
          Alcotest.test_case "custom generator" `Quick test_server_custom_generator;
          Alcotest.test_case "password keygen" `Quick test_password_keygen;
          Alcotest.test_case "prevalidated fast path" `Quick test_encrypt_prevalidated_equivalent;
          Alcotest.test_case "paper formula, all params" `Quick test_encrypt_is_paper_formula;
        ] );
      ( "updates",
        [
          Alcotest.test_case "is BLS signature" `Quick test_update_is_bls_signature;
          Alcotest.test_case "identical for all" `Quick test_update_identical_for_all_users;
          Alcotest.test_case "forged rejected" `Quick test_forged_update_rejected;
        ] );
      ( "membership",
        [
          Alcotest.test_case "shifted objects rejected, all params" `Quick
            test_single_verifiers_reject_shifted;
        ] );
      ( "time-lock",
        [
          Alcotest.test_case "wrong update garbage" `Quick test_decrypt_with_wrong_update_garbage;
          Alcotest.test_case "mismatch raises" `Quick test_decrypt_update_mismatch_raises;
          Alcotest.test_case "wrong secret garbage" `Quick test_decrypt_with_wrong_secret_garbage;
          Alcotest.test_case "server cannot decrypt" `Quick test_server_cannot_decrypt;
        ] );
      ( "key-management",
        [
          Alcotest.test_case "invalid receiver key" `Quick test_invalid_receiver_key_rejected;
          Alcotest.test_case "cross-server key" `Quick test_receiver_key_other_server_rejected;
          Alcotest.test_case "server change" `Quick test_server_change;
          Alcotest.test_case "scalar validation" `Quick test_scalar_validation;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "ciphertext" `Quick test_ciphertext_codec;
          Alcotest.test_case "update" `Quick test_update_codec;
          Alcotest.test_case "keys" `Quick test_key_codecs;
          Alcotest.test_case "edge cases, all params" `Quick test_serialization_edge_cases;
        ] );
      ("properties", qc [ prop_roundtrip_random; prop_ciphertexts_randomized ]);
    ]
