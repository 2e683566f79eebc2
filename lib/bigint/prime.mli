(** Primality testing and prime generation (Miller–Rabin).

    Used by {!Pairing}'s parameter generator (subgroup order q, field prime
    p = h*q - 1) and by the RSA modulus of the time-lock-puzzle baseline. *)

val is_probably_prime : ?rounds:int -> ?rng:Hashing.Drbg.t -> Bigint.t -> bool
(** Trial division by small primes followed by [rounds] (default 40)
    Miller–Rabin rounds. Deterministic small-prime answers for tiny inputs.
    Negative inputs are never prime. If [rng] is absent a fixed-seed DRBG
    is used, making the test deterministic. *)

val gen_prime : ?rng:Hashing.Drbg.t -> bits:int -> unit -> Bigint.t
(** A random probable prime with exactly [bits] bits (top bit set).
    Requires [bits >= 2]. *)

val gen_prime_congruent :
  ?rng:Hashing.Drbg.t -> bits:int -> modulus:int -> residue:int -> unit -> Bigint.t
(** A [bits]-bit probable prime p with [p mod modulus = residue].
    Raises [Invalid_argument] if no residue class can contain primes
    (i.e. [gcd residue modulus > 1] and [residue <> modulus] is not prime). *)
