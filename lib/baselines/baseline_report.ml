type leak =
  | Sender_identity
  | Receiver_identity
  | Message_content
  | Release_time

type t = {
  scheme : string;
  server_messages : int;
  server_bytes : int;
  server_state_bytes : int;
  sender_server_interactions : int;
  receiver_server_interactions : int;
  leaks : leak list;
}

let leak_to_string = function
  | Sender_identity -> "sender-id"
  | Receiver_identity -> "receiver-id"
  | Message_content -> "message"
  | Release_time -> "release-time"

let leaks_to_string = function
  | [] -> "none"
  | leaks -> String.concat "," (List.map leak_to_string leaks)
