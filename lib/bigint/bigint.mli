(** Arbitrary-precision signed integers, pure OCaml.

    The public integer type of the whole library: field elements, curve
    scalars, RSA moduli and time-lock puzzles are all built on it. Values
    are immutable. Internally a sign and a {!Nat} magnitude. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t
val to_int_opt : t -> int option
val to_int_exn : t -> int
(** Raises [Failure] if out of native range. *)

(** {1 Comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val is_zero : t -> bool
val is_even : t -> bool
val is_odd : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val sqr : t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division (like [Stdlib.(/)] and [mod]): quotient rounds
    toward zero, remainder has the dividend's sign.
    Raises [Division_by_zero]. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: always in [0, |m|). This is "mod p" as used in
    all the field arithmetic. Raises [Division_by_zero]. *)

val pow : t -> int -> t
(** Natural power. Raises [Invalid_argument] on negative exponent. *)

(** {1 Bits} *)

val bit_length : t -> int
(** Bits of the magnitude; 0 for zero. *)

val test_bit : t -> int -> bool
(** Bit [i] of the magnitude. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (sign preserved). *)

val wnaf : t -> int -> int array
(** [wnaf k w]: the width-[w] non-adjacent form of [k >= 0], least
    significant digit first — [k = sum d.(i) * 2^i], every nonzero digit
    odd with [|d| < 2^(w-1)], at least [w - 1] zeros after each nonzero
    digit, and the last digit nonzero (positive); [[||]] for zero. It is
    the canonical recoding, so there is exactly one such array.
    Raises [Invalid_argument] if [k < 0] or [w < 2]. *)

val sliding_windows : t -> int * (int * int) list
(** [sliding_windows e], for [e > 0]: the window width [w] and the
    left-to-right sliding-window schedule of [e] as pairs [(s, d)] —
    square [s] times, then multiply by [base^d]. The first pair has
    [s = 0] and seeds the accumulator with [base^d]; every [d] is odd and
    below [2^w], except a final [d = 0] that marks trailing zero bits. So
    an exponentiation needs the odd powers [base^1 .. base^(2^w - 1)]
    and one multiplication per pair after the first. [w] is 1 (plain
    square-and-multiply) below 9 bits, 3 up to 96, 4 up to 320 and 5
    above. Raises [Invalid_argument] if [e <= 0]. *)

(** {1 Conversions} *)

val of_string : string -> t
(** Decimal, with optional sign, or hex with a ["0x"]/["-0x"] prefix.
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Decimal. *)

val to_string_hex : t -> string
(** Lowercase hex with ["0x"] prefix and sign. *)

val of_bytes_be : string -> t
(** Non-negative value from big-endian bytes. *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Big-endian magnitude bytes. Raises [Invalid_argument] on negative
    values or if [pad_to] is too small. *)

val pp : Format.formatter -> t -> unit

(** {1 Randomness}

    All randomness is drawn from a caller-supplied {!Hashing.Drbg.t} so
    that tests and benchmarks are reproducible. *)

val random_bits : Hashing.Drbg.t -> int -> t
(** Uniform in [0, 2^bits). *)

val random_below : Hashing.Drbg.t -> t -> t
(** Uniform in [0, bound) by rejection sampling.
    Raises [Invalid_argument] if [bound <= 0]. *)

val random_in_range : Hashing.Drbg.t -> lo:t -> hi:t -> t
(** Uniform in [lo, hi] inclusive. Raises [Invalid_argument] if [lo > hi]. *)

(**/**)

val magnitude : t -> Nat.t
(** Internal: magnitude limbs (for {!Modarith}). *)

val of_nat : Nat.t -> t
