(* tre-cli: command-line timed release encryption over armored files.

     dune exec bin/tre_cli.exe -- server-keygen --out srv
     dune exec bin/tre_cli.exe -- user-keygen --server srv.pub --out alice
     dune exec bin/tre_cli.exe -- encrypt --server srv.pub --to alice.pub \
         --time "2026-01-01T00:00:00Z" --in msg.txt --out msg.tre
     dune exec bin/tre_cli.exe -- issue-update --server-key srv.key \
         --time "2026-01-01T00:00:00Z" --out upd.tre
     dune exec bin/tre_cli.exe -- decrypt --key alice.key --update upd.tre \
         --in msg.tre --out msg.out

   All objects are ASCII-armored with the parameter set in the header. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tre-cli: " ^ s); exit 1) fmt

let params_of_name name =
  match Pairing.by_name name with
  | Some prms -> prms
  | None ->
      die "unknown parameter set %S (available: %s)" name
        (String.concat ", " Pairing.all_names)

(* Typed armor loading: the armor header and the payload's binary
   envelope must agree on kind and parameter set (Armor.unwrap_object
   cross-checks them), so relabeled or cross-parameter files die here. *)

let load_object ~kind path =
  match Armor.unwrap_object ~expect:kind (read_file path) with
  | Ok (_, prms, payload) -> (prms, payload)
  | Error e -> die "%s: %s" path e

let load_with ~kind ~decode path =
  let prms, payload = load_object ~kind path in
  match decode prms payload with
  | Ok v -> (prms, v)
  | Error e -> die "%s: malformed %s payload: %s" path (Codec.kind_label kind) e

(* Secret-key payloads: server = scalar, generator point; user = scalar. *)

let server_secret_to_bytes prms sec =
  let pub = Tre.Server.public_of_secret sec in
  Codec.encode prms Codec.Server_secret (fun buf ->
      Codec.add_scalar prms buf (Tre.Server.secret_to_scalar sec);
      Codec.add_point prms buf pub.Tre.Server.g)

let server_secret_of_bytes prms payload =
  Codec.decode prms Codec.Server_secret payload (fun r ->
      let scalar = Codec.read_scalar ~what:"server scalar" prms r in
      let g = Codec.read_g1 ~what:"generator" prms r in
      match Tre.Server.secret_of_scalar prms ~g scalar with
      | sec -> sec
      | exception Invalid_argument m -> Codec.fail "%s" m)

let user_secret_to_bytes prms sec =
  Codec.encode prms Codec.User_secret (fun buf ->
      Codec.add_scalar prms buf (Tre.User.secret_to_scalar sec))

let user_secret_of_bytes prms payload =
  Codec.decode prms Codec.User_secret payload (fun r ->
      let scalar = Codec.read_scalar ~what:"user scalar" prms r in
      match Tre.User.secret_of_scalar prms scalar with
      | sec -> sec
      | exception Invalid_argument m -> Codec.fail "%s" m)

let fresh_rng () = Hashing.Drbg.create ~seed:(Hashing.Drbg.system_entropy ()) ()

(* --- commands --- *)

let do_server_keygen params_name out =
  let prms = params_of_name params_name in
  let sec, pub = Tre.Server.keygen prms (fresh_rng ()) in
  write_file (out ^ ".key")
    (Armor.wrap_object prms ~kind:Codec.Server_secret (server_secret_to_bytes prms sec));
  write_file (out ^ ".pub")
    (Armor.wrap_object prms ~kind:Codec.Server_public
       (Tre.server_public_to_bytes prms pub));
  Printf.printf "wrote %s.key (keep offline!) and %s.pub\n" out out

let do_user_keygen server_pub_path out password =
  let prms, srv =
    load_with ~kind:Codec.Server_public ~decode:Tre.server_public_of_bytes
      server_pub_path
  in
  let sec, pub =
    match password with
    | Some pw -> Tre.User.keygen_from_password prms srv ~password:pw
    | None -> Tre.User.keygen prms srv (fresh_rng ())
  in
  write_file (out ^ ".key")
    (Armor.wrap_object prms ~kind:Codec.User_secret (user_secret_to_bytes prms sec));
  write_file (out ^ ".pub")
    (Armor.wrap_object prms ~kind:Codec.User_public (Tre.user_public_to_bytes prms pub));
  Printf.printf "wrote %s.key and %s.pub (bound to this time server)\n" out out

let do_validate_key server_pub_path user_pub_path =
  let prms, srv =
    load_with ~kind:Codec.Server_public ~decode:Tre.server_public_of_bytes
      server_pub_path
  in
  let prms2, usr =
    load_with ~kind:Codec.User_public ~decode:Tre.user_public_of_bytes user_pub_path
  in
  if prms.Pairing.name <> prms2.Pairing.name then die "parameter sets differ";
  if Tre.validate_receiver_key prms srv usr then
    print_endline "valid: key is bound to this server"
  else begin
    print_endline "INVALID: e(aG, sG) <> e(G, asG) - do not encrypt to this key";
    exit 1
  end

let do_encrypt server_pub_path user_pub_path time input output cca =
  let prms, srv =
    load_with ~kind:Codec.Server_public ~decode:Tre.server_public_of_bytes
      server_pub_path
  in
  let prms2, usr =
    load_with ~kind:Codec.User_public ~decode:Tre.user_public_of_bytes user_pub_path
  in
  if prms.Pairing.name <> prms2.Pairing.name then die "parameter sets differ";
  let msg = read_file input in
  let rng = fresh_rng () in
  let kind, payload =
    if cca then
      ( Codec.Ciphertext_fo,
        Tre_fo.ciphertext_to_bytes prms
          (Tre_fo.encrypt prms srv usr ~release_time:time rng msg) )
    else
      ( Codec.Ciphertext,
        Tre.ciphertext_to_bytes prms (Tre.encrypt prms srv usr ~release_time:time rng msg)
      )
  in
  write_file output (Armor.wrap_object prms ~kind payload);
  Printf.printf "encrypted %d bytes for release at %S -> %s\n" (String.length msg) time
    output

let do_issue_update server_key_path time output =
  let prms, sec =
    load_with ~kind:Codec.Server_secret ~decode:server_secret_of_bytes server_key_path
  in
  let upd = Tre.issue_update prms sec time in
  write_file output
    (Armor.wrap_object prms ~kind:Codec.Key_update (Tre.update_to_bytes prms upd));
  Printf.printf "issued time-bound key update for %S -> %s\n" time output

let do_verify_update server_pub_path update_path =
  let prms, srv =
    load_with ~kind:Codec.Server_public ~decode:Tre.server_public_of_bytes
      server_pub_path
  in
  let prms2, upd =
    load_with ~kind:Codec.Key_update ~decode:Tre.update_of_bytes update_path
  in
  if prms.Pairing.name <> prms2.Pairing.name then die "parameter sets differ";
  if Tre.verify_update prms srv upd then
    Printf.printf "valid update for time %S (self-authenticated BLS signature)\n"
      upd.Tre.update_time
  else begin
    print_endline "INVALID update: signature check failed";
    exit 1
  end

let do_decrypt user_key_path update_path input output cca server_pub user_pub =
  let prms, sec =
    load_with ~kind:Codec.User_secret ~decode:user_secret_of_bytes user_key_path
  in
  let prms2, upd =
    load_with ~kind:Codec.Key_update ~decode:Tre.update_of_bytes update_path
  in
  if prms.Pairing.name <> prms2.Pairing.name then die "parameter sets differ";
  let msg =
    if cca then begin
      let srv_path =
        match server_pub with Some p -> p | None -> die "--cca needs --server"
      in
      let usr_path = match user_pub with Some p -> p | None -> die "--cca needs --to" in
      let _, srv =
        load_with ~kind:Codec.Server_public ~decode:Tre.server_public_of_bytes srv_path
      in
      let _, usr =
        load_with ~kind:Codec.User_public ~decode:Tre.user_public_of_bytes usr_path
      in
      let _, ct =
        load_with ~kind:Codec.Ciphertext_fo ~decode:Tre_fo.ciphertext_of_bytes input
      in
      match Tre_fo.decrypt prms srv usr sec upd ct with
      | msg -> msg
      | exception Tre_fo.Decryption_failed -> die "decryption failed: ciphertext tampered"
      | exception Tre.Update_mismatch ->
          die "update is for a different time than the ciphertext"
    end
    else begin
      let _, ct =
        load_with ~kind:Codec.Ciphertext ~decode:Tre.ciphertext_of_bytes input
      in
      match Tre.decrypt prms sec upd ct with
      | msg -> msg
      | exception Tre.Update_mismatch ->
          die "update is for a different time than the ciphertext (need %S)"
            ct.Tre.release_time
    end
  in
  write_file output msg;
  Printf.printf "decrypted %d bytes -> %s\n" (String.length msg) output

let do_info path =
  match Armor.unwrap_object (read_file path) with
  | Error e -> die "%s: %s" path e
  | Ok (kind, prms, payload) -> (
      Printf.printf "kind:       %s\nparameters: %s\npayload:    %d bytes\n"
        (Codec.kind_label kind) prms.Pairing.name (String.length payload);
      match kind with
      | Codec.Ciphertext -> (
          match Tre.ciphertext_of_bytes prms payload with
          | Ok ct -> Printf.printf "release at: %S\n" ct.Tre.release_time
          | Error _ -> ())
      | Codec.Ciphertext_fo -> (
          match Tre_fo.ciphertext_of_bytes prms payload with
          | Ok ct -> Printf.printf "release at: %S (CCA-secure)\n" ct.Tre_fo.release_time
          | Error _ -> ())
      | Codec.Key_update -> (
          match Tre.update_of_bytes prms payload with
          | Ok u -> Printf.printf "update for: %S\n" u.Tre.update_time
          | Error _ -> ())
      | _ -> ())

(* --- cmdliner wiring --- *)

let params_arg =
  Arg.(
    value & opt string "mid128"
    & info [ "params" ] ~docv:"SET" ~doc:"Parameter set (toy64, mid128, std160).")

let out_arg =
  Arg.(
    required & opt (some string) None
    & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Output path (or prefix for keygen).")

let in_arg =
  Arg.(required & opt (some string) None & info [ "in"; "i" ] ~docv:"PATH" ~doc:"Input file.")

let server_pub_arg =
  Arg.(
    required & opt (some file) None
    & info [ "server" ] ~docv:"PUB" ~doc:"Server public key file.")

let server_key_arg =
  Arg.(
    required & opt (some file) None
    & info [ "server-key" ] ~docv:"KEY" ~doc:"Server secret key file.")

let user_pub_arg =
  Arg.(
    required & opt (some file) None
    & info [ "to" ] ~docv:"PUB" ~doc:"Receiver public key file.")

let user_key_arg =
  Arg.(
    required & opt (some file) None
    & info [ "key" ] ~docv:"KEY" ~doc:"Receiver secret key file.")

let update_arg =
  Arg.(
    required & opt (some file) None
    & info [ "update" ] ~docv:"UPD" ~doc:"Time-bound key update file.")

let time_arg =
  Arg.(
    required & opt (some string) None
    & info [ "time"; "t" ] ~docv:"TIME" ~doc:"Release-time label (any string).")

let cca_arg =
  Arg.(value & flag & info [ "cca" ] ~doc:"Use the CCA-secure Fujisaki-Okamoto variant.")

let password_arg =
  Arg.(
    value & opt (some string) None
    & info [ "password" ] ~docv:"PW" ~doc:"Derive the secret key from a password.")

let cmd_server_keygen =
  Cmd.v
    (Cmd.info "server-keygen" ~doc:"Generate a time-server key pair.")
    Term.(const do_server_keygen $ params_arg $ out_arg)

let cmd_user_keygen =
  Cmd.v
    (Cmd.info "user-keygen" ~doc:"Generate a receiver key pair bound to a server.")
    Term.(const do_user_keygen $ server_pub_arg $ out_arg $ password_arg)

let cmd_validate_key =
  Cmd.v
    (Cmd.info "validate-key"
       ~doc:"Check a receiver key against a server (the pairing check of section 5.1).")
    Term.(const do_validate_key $ server_pub_arg $ user_pub_arg)

let cmd_encrypt =
  Cmd.v
    (Cmd.info "encrypt" ~doc:"Encrypt a file for a future release time.")
    Term.(const do_encrypt $ server_pub_arg $ user_pub_arg $ time_arg $ in_arg $ out_arg $ cca_arg)

let cmd_issue_update =
  Cmd.v
    (Cmd.info "issue-update" ~doc:"(time server) Issue the key update for a time label.")
    Term.(const do_issue_update $ server_key_arg $ time_arg $ out_arg)

let cmd_verify_update =
  Cmd.v
    (Cmd.info "verify-update" ~doc:"Verify a key update's self-authentication.")
    Term.(const do_verify_update $ server_pub_arg $ update_arg)

let cmd_decrypt =
  let server_opt =
    Arg.(
      value & opt (some file) None
      & info [ "server" ] ~docv:"PUB" ~doc:"Server public key (for --cca).")
  in
  let user_opt =
    Arg.(
      value & opt (some file) None
      & info [ "to" ] ~docv:"PUB" ~doc:"Receiver public key (for --cca).")
  in
  Cmd.v
    (Cmd.info "decrypt" ~doc:"Decrypt a ciphertext whose release time has passed.")
    Term.(
      const do_decrypt $ user_key_arg $ update_arg $ in_arg $ out_arg $ cca_arg
      $ server_opt $ user_opt)

let cmd_info =
  Cmd.v
    (Cmd.info "info" ~doc:"Describe an armored TRE object.")
    Term.(const do_info $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"))

let () =
  let info =
    Cmd.info "tre-cli" ~version:"1.0.0"
      ~doc:
        "Server-passive, user-anonymous timed release encryption (Chan-Blake, ICDCS 2005)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_server_keygen; cmd_user_keygen; cmd_validate_key; cmd_encrypt;
            cmd_issue_update; cmd_verify_update; cmd_decrypt; cmd_info;
          ]))
