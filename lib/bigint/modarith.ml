let gcd a b =
  let rec go a b = if Bigint.is_zero b then a else go b (Bigint.rem a b) in
  go (Bigint.abs a) (Bigint.abs b)

let egcd a b =
  (* Iterative extended Euclid on the magnitudes, signs fixed up at the end. *)
  let rec go r0 r1 x0 x1 y0 y1 =
    if Bigint.is_zero r1 then (r0, x0, y0)
    else begin
      let q, r2 = Bigint.divmod r0 r1 in
      go r1 r2 x1 (Bigint.sub x0 (Bigint.mul q x1)) y1 (Bigint.sub y0 (Bigint.mul q y1))
    end
  in
  let g, x, y = go (Bigint.abs a) (Bigint.abs b) Bigint.one Bigint.zero Bigint.zero Bigint.one in
  let x = if Bigint.sign a < 0 then Bigint.neg x else x in
  let y = if Bigint.sign b < 0 then Bigint.neg y else y in
  (g, x, y)

let invmod a m =
  let m = Bigint.abs m in
  let g, x, _ = egcd (Bigint.erem a m) m in
  if not (Bigint.equal g Bigint.one) then raise Division_by_zero;
  Bigint.erem x m

let jacobi a n =
  if Bigint.sign n <= 0 || Bigint.is_even n then
    invalid_arg "Modarith.jacobi: n must be odd positive";
  let rec go a n acc =
    let a = Bigint.erem a n in
    if Bigint.is_zero a then if Bigint.equal n Bigint.one then acc else 0
    else begin
      (* Pull out factors of two: (2/n) = -1 iff n ≡ 3,5 (mod 8). *)
      let rec strip a flips =
        if Bigint.is_even a then strip (Bigint.shift_right a 1) (flips + 1)
        else (a, flips)
      in
      let a, flips = strip a 0 in
      let n_mod8 = Bigint.to_int_exn (Bigint.erem n (Bigint.of_int 8)) in
      let acc = if flips land 1 = 1 && (n_mod8 = 3 || n_mod8 = 5) then -acc else acc in
      (* Quadratic reciprocity. *)
      let a_mod4 = Bigint.to_int_exn (Bigint.erem a (Bigint.of_int 4)) in
      let acc = if a_mod4 = 3 && n_mod8 land 3 = 3 then -acc else acc in
      go n a acc
    end
  in
  go a n 1

(* Generic left-to-right sliding-window exponentiation over the schedule
   of {!Bigint.sliding_windows}. It backs {!Mont.pow}, the reference that
   pins the in-place [Limbs.pow_into]. For a t-bit exponent and window w
   it costs ~t squarings + t/(w+1) multiplications + 2^(w-1) table
   entries, against t + t/2 multiplications for the binary ladder. *)
let window_pow ~one ~mul ~sqr base e =
  if Bigint.sign e < 0 then invalid_arg "Modarith.window_pow: negative exponent";
  if Bigint.is_zero e then one
  else begin
    let w, sched = Bigint.sliding_windows e in
    (* tbl.(i) = base^(2i+1). *)
    let tbl = Array.make (1 lsl (w - 1)) base in
    if w > 1 then begin
      let b2 = sqr base in
      for i = 1 to Array.length tbl - 1 do
        tbl.(i) <- mul tbl.(i - 1) b2
      done
    end;
    let acc = ref one in
    List.iteri
      (fun j (s, d) ->
        if j = 0 then acc := tbl.(d lsr 1)
        else begin
          for _ = 1 to s do
            acc := sqr !acc
          done;
          if d > 0 then acc := mul !acc tbl.(d lsr 1)
        end)
      sched;
    !acc
  end

module Mont = struct
  type ctx = {
    m : Bigint.t;
    m_limbs : Nat.t;
    k : int; (* limb count of m *)
    m0_inv_neg : int; (* -m^{-1} mod 2^31 *)
    r_mod_m : Nat.t; (* R mod m, the Montgomery one *)
    r2_mod_m : Nat.t; (* R^2 mod m, for of_bigint *)
    r3_mod_m : Nat.t; (* R^3 mod m, for single-conversion inversion *)
  }

  type elt = Nat.t (* value * R mod m, k limbs semantically, normalized *)

  let limb_mask = Nat.base - 1

  (* Inverse of odd [v] mod 2^31 by Newton iteration; 5 steps suffice. *)
  let inv_limb v =
    let x = ref v in
    for _ = 1 to 5 do
      x := !x * (2 - (v * !x)) land limb_mask
    done;
    !x land limb_mask

  let create m =
    if Bigint.sign m <= 0 || Bigint.is_even m || Bigint.compare m (Bigint.of_int 3) < 0
    then invalid_arg "Mont.create: modulus must be odd and >= 3";
    let m_limbs = Bigint.magnitude m in
    let k = Nat.num_limbs m_limbs in
    let m0_inv_neg = Nat.base - inv_limb m_limbs.(0) land limb_mask in
    let r = Nat.shift_left Nat.one (k * Nat.base_bits) in
    let r_mod_m = snd (Nat.divmod r m_limbs) in
    let r2_mod_m = snd (Nat.divmod (Nat.sqr r_mod_m) m_limbs) in
    let r3_mod_m = snd (Nat.divmod (Nat.mul r2_mod_m r_mod_m) m_limbs) in
    { m; m_limbs; k; m0_inv_neg = m0_inv_neg land limb_mask; r_mod_m; r2_mod_m; r3_mod_m }

  let modulus ctx = ctx.m

  (* CIOS Montgomery multiplication: returns a*b*R^{-1} mod m. *)
  let mont_mul ctx (a : Nat.t) (b : Nat.t) : Nat.t =
    let k = ctx.k in
    let m = ctx.m_limbs in
    let t = Array.make (k + 2) 0 in
    let la = Array.length a and lb = Array.length b in
    for i = 0 to k - 1 do
      let ai = if i < la then a.(i) else 0 in
      (* t += ai * b *)
      let carry = ref 0 in
      for j = 0 to k - 1 do
        let bj = if j < lb then b.(j) else 0 in
        let s = t.(j) + (ai * bj) + !carry in
        t.(j) <- s land limb_mask;
        carry := s lsr Nat.base_bits
      done;
      let s = t.(k) + !carry in
      t.(k) <- s land limb_mask;
      t.(k + 1) <- t.(k + 1) + (s lsr Nat.base_bits);
      (* u makes t divisible by the base; shift down one limb. *)
      let u = t.(0) * ctx.m0_inv_neg land limb_mask in
      let carry = ref ((t.(0) + (u * m.(0))) lsr Nat.base_bits) in
      for j = 1 to k - 1 do
        let s = t.(j) + (u * m.(j)) + !carry in
        t.(j - 1) <- s land limb_mask;
        carry := s lsr Nat.base_bits
      done;
      let s = t.(k) + !carry in
      t.(k - 1) <- s land limb_mask;
      let s2 = t.(k + 1) + (s lsr Nat.base_bits) in
      t.(k) <- s2 land limb_mask;
      t.(k + 1) <- s2 lsr Nat.base_bits
    done;
    let result = Array.sub t 0 (k + 1) in
    let result =
      let r = result in
      let rec norm i = if i > 0 && r.(i - 1) = 0 then norm (i - 1) else i in
      Array.sub r 0 (norm (k + 1))
    in
    if Nat.compare result m >= 0 then Nat.sub result m else result

  let of_bigint ctx v =
    let v = Bigint.erem v ctx.m in
    mont_mul ctx (Bigint.magnitude v) ctx.r2_mod_m

  let to_bigint ctx (e : elt) = Bigint.of_nat (mont_mul ctx e Nat.one)
  let zero _ctx : elt = Nat.zero
  let one ctx : elt = ctx.r_mod_m
  let equal (a : elt) (b : elt) = Nat.equal a b

  let add ctx a b =
    let s = Nat.add a b in
    if Nat.compare s ctx.m_limbs >= 0 then Nat.sub s ctx.m_limbs else s

  let sub ctx a b =
    if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a ctx.m_limbs) b

  let neg ctx a = if Nat.is_zero a then a else Nat.sub ctx.m_limbs a
  let mul ctx a b = mont_mul ctx a b
  let sqr ctx a = mont_mul ctx a a

  let pow_binary ctx base e =
    if Bigint.sign e < 0 then invalid_arg "Mont.pow: negative exponent";
    let n = Bigint.bit_length e in
    let acc = ref (one ctx) in
    for i = n - 1 downto 0 do
      acc := sqr ctx !acc;
      if Bigint.test_bit e i then acc := mul ctx !acc base
    done;
    !acc

  let pow ctx base e =
    if Bigint.sign e < 0 then invalid_arg "Mont.pow: negative exponent";
    window_pow ~one:(one ctx) ~mul:(mul ctx) ~sqr:(sqr ctx) base e

  (* Single-conversion inversion: for a = x*R, [invmod] of the plain
     integer value of the limbs gives (x*R)^{-1} = x^{-1} R^{-1} mod m;
     one Montgomery multiplication by R^3 lands on x^{-1} R directly —
     no decode/encode round trip (which cost two extra Montgomery
     multiplications and two erem passes per inversion). *)
  let inv ctx a =
    let v = invmod (Bigint.of_nat a) ctx.m in
    mont_mul ctx (Bigint.magnitude v) ctx.r3_mod_m
end

let powmod b e m =
  if Bigint.is_zero m then raise Division_by_zero;
  let m = Bigint.abs m in
  if Bigint.equal m Bigint.one then Bigint.zero
  else begin
    let b = if Bigint.sign e < 0 then invmod b m else Bigint.erem b m in
    let e = Bigint.abs e in
    if Bigint.is_odd m && Bigint.compare m (Bigint.of_int 3) >= 0 then begin
      let ctx = Mont.create m in
      Mont.to_bigint ctx (Mont.pow ctx (Mont.of_bigint ctx b) e)
    end
    else begin
      (* Even modulus: plain square-and-multiply with division. *)
      let n = Bigint.bit_length e in
      let acc = ref Bigint.one in
      for i = n - 1 downto 0 do
        acc := Bigint.erem (Bigint.sqr !acc) m;
        if Bigint.test_bit e i then acc := Bigint.erem (Bigint.mul !acc b) m
      done;
      !acc
    end
  end
