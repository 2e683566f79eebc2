(** Strict versioned wire codec — the single framing layer under every
    serializer in the library.

    In the paper's server-passive model every object a party consumes
    (key updates, receiver keys, ciphertexts) arrives as untrusted bytes
    from a public channel, so the wire layer is where malformed-value
    filtering happens. Every object starts with a self-describing
    envelope

    {v magic "TRE1" | version (1) | kind tag (1) | params fingerprint (8) v}

    and its body is built from strict fields only. Two guarantees:

    - {b Canonicality}: a decoder accepts {e exactly} the canonical
      encoding of each value — every accepted byte string re-encodes
      bit-identically. No non-canonical points, no mis-padded infinity,
      no trailing garbage, no out-of-range lengths or scalars.
    - {b Early cross-domain rejection}: an object of the wrong kind or
      from a different parameter set is rejected on the envelope (kind
      tag, params fingerprint) before any curve arithmetic runs.

    Decoders return [result] with a diagnostic message; they never raise
    on any input (the decode-fuzzing harness asserts this). *)

(** {1 Envelope} *)

val header_bytes : int
(** Size of the envelope: 4 magic + 1 version + 1 kind + 8 fingerprint. *)

val max_label_bytes : int
(** Upper bound on time labels / identities (4096 bytes). *)

(** Wire object kinds; one tag per serialized type so that feeding an
    object to the wrong decoder dies on the envelope. *)
type kind =
  | Ciphertext          (** {!Tre.ciphertext} *)
  | Ciphertext_fo       (** {!Tre_fo.ciphertext} *)
  | Ciphertext_react    (** {!Tre_react.ciphertext} *)
  | Ciphertext_id       (** [Id_tre.ciphertext] *)
  | Ciphertext_multi    (** [Multi_server.ciphertext] *)
  | Key_update          (** {!Tre.update} *)
  | User_public         (** {!Tre.User.public} *)
  | Server_public       (** {!Tre.Server.public} *)
  | User_secret         (** CLI: the receiver scalar *)
  | Server_secret       (** CLI: the server scalar + generator *)
  | Bls_public
  | Bls_signature
  | Epoch_key           (** [Key_insulation.epoch_key] *)
  | Threshold_partial   (** [Threshold_server.partial] *)
  | Multi_receiver      (** [Multi_server.receiver_public] *)
  | Net_hello           (** daemon: server key + timeline + current epoch *)
  | Net_subscribe       (** daemon: join the broadcast fan-out *)
  | Net_archive_query   (** daemon: missed-update lookup by label (§6) *)
  | Net_archive_miss    (** daemon: negative archive answer + reason *)
  | Net_tick            (** daemon: broadcast preamble (label, send stamp) *)
  | Net_stats_query     (** daemon: operational counters request *)
  | Net_stats           (** daemon: operational counters *)
  | Delegate_query      (** helper: blinded pairing query vector *)
  | Delegate_response   (** helper: pairing values for a query vector *)

val kind_label : kind -> string
(** The armor header label, e.g. ["CIPHERTEXT FO"]. *)

val kind_of_label : string -> kind option

(** {1 Length-prefixed hash inputs}

    Hashing variable-length fields by bare concatenation is ambiguous —
    [(T="A", m="Bx")] and [(T="AB", m="x")] concatenate identically. These
    helpers prefix every field with its 4-byte big-endian length, making
    the encoding injective. *)

val length_prefixed : domain:string -> string list -> string list
(** [domain :: concat_map (fun f -> [u32 (len f); f]) fields] — feed to
    {!Hashing.Sha256.digest_concat} without building the concatenation. *)

val hash_input : domain:string -> string list -> string
(** [String.concat "" (length_prefixed ~domain fields)]. *)

(** {1 Encoding} *)

val encode : Pairing.params -> kind -> (Buffer.t -> unit) -> string
(** [encode prms kind body] writes the envelope, runs [body] on the
    buffer, and returns the bytes. *)

val add_u32 : Buffer.t -> int -> unit

val add_u64 : Buffer.t -> int -> unit
(** 8-byte big-endian; canonical range [0, 2^62) (OCaml ints are 63-bit —
    the decoder rejects the top two bits to keep ranges equal). *)

val add_fixed : Buffer.t -> string -> unit
val add_var : Buffer.t -> string -> unit
(** 4-byte big-endian length prefix, then the bytes. *)

val add_label : Buffer.t -> string -> unit
(** Like {!add_var} but enforces {!max_label_bytes} (the decoder enforces
    the same bound, keeping encode/decode ranges equal). *)

val add_point : Pairing.params -> Buffer.t -> Curve.point -> unit
(** Fixed-width compressed point: [point_bytes] wide; infinity is the
    0x00 tag followed by all-zero padding. Raises [Invalid_argument] if
    the raw encoding is neither 1 nor [point_bytes] wide. *)

val add_scalar : Pairing.params -> Buffer.t -> Bigint.t -> unit
(** Fixed-width big-endian scalar; raises [Invalid_argument] outside
    [1, q-1]. *)

val add_gt : Pairing.params -> Buffer.t -> Fp2.t -> unit
(** Fixed-width ([gt_bytes]) canonical GF(p^2) element; raises
    [Invalid_argument] on zero or a width mismatch. *)

(** {1 Strict decoding}

    Readers advance a cursor and raise an internal parse exception on any
    violation; {!decode} catches it and returns [Error diagnostic]. The
    exception never escapes {!decode}. *)

type reader

val decode :
  Pairing.params -> kind -> string -> (reader -> 'a) -> ('a, string) result
(** [decode prms kind s body] checks the envelope (magic, version, kind
    tag, params fingerprint — in that order, so confusion is caught
    before any curve arithmetic), runs [body], and requires the input to
    be fully consumed. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Abort the current decode with a diagnostic (for scheme-level checks
    inside a [decode] body). Must only be called inside [decode]. *)

val read_u8 : ?what:string -> reader -> int
val read_u32 : ?what:string -> ?max:int -> reader -> int
val read_u64 : ?what:string -> reader -> int
val read_fixed : ?what:string -> reader -> int -> string
val read_var : ?what:string -> ?max:int -> reader -> string
val read_label : ?what:string -> reader -> string
(** {!read_var} bounded by {!max_label_bytes}. *)

val read_point : ?what:string -> Pairing.params -> reader -> Curve.point
(** Canonical fixed-width point in the order-q subgroup; accepts the
    canonical infinity encoding (0x00 + all-zero padding) only. *)

val read_g1 : ?what:string -> Pairing.params -> reader -> Curve.point
(** {!read_point} that additionally rejects infinity. *)

val read_scalar : ?what:string -> Pairing.params -> reader -> Bigint.t
(** Fixed-width scalar in [1, q-1]. *)

val read_gt : ?what:string -> Pairing.params -> reader -> Fp2.t
(** Canonical nonzero GF(p^2) element. Deliberately NOT restricted to
    the order-q subgroup: delegation responses from untrusted helpers
    must reach the protocol layer's hardened check un-filtered, so the
    check (and the tests mounting the Liu-Cao forgery) see exactly what
    the helper sent. *)

(** {1 Envelope peeking} — for armor and [info] tooling. *)

val peek_kind : string -> (kind, string) result
(** Kind tag of an envelope without decoding the body. *)

val matches_params : Pairing.params -> string -> bool
(** Whether the envelope fingerprint matches the parameter set. *)
