(** Uniform cost/privacy accounting for the schemes compared in §2 of the
    paper. Experiment E3 prints one row per scheme from this record. *)

type leak =
  | Sender_identity
  | Receiver_identity
  | Message_content
  | Release_time

type t = {
  scheme : string;
  server_messages : int;  (** total messages originated by the server *)
  server_bytes : int;
  server_state_bytes : int;  (** peak state the server must persist *)
  sender_server_interactions : int;  (** messages sender <-> server *)
  receiver_server_interactions : int;  (** messages receiver <-> server *)
  leaks : leak list;  (** what the server learns *)
}

val leaks_to_string : leak list -> string
