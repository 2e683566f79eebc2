(* Base-2^31 magnitude arithmetic.

   With 31-bit limbs every intermediate value in schoolbook multiplication
   and in Knuth division fits a 63-bit native [int]:
   (2^31-1)^2 + 2*(2^31-1) < 2^62 <= max_int. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]

(* Strip trailing zero limbs; reuses the argument when already normal. *)
let normalize (a : t) : t =
  let n = Array.length a in
  let top = ref n in
  while !top > 0 && a.(!top - 1) = 0 do
    decr top
  done;
  if !top = n then a else Array.sub a 0 !top

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs acc n = if n = 0 then List.rev acc else limbs ((n land limb_mask) :: acc) (n lsr base_bits) in
    Array.of_list (limbs [] n)
  end

let is_zero a = Array.length a = 0
let num_limbs = Array.length
let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * base_bits) + width 0 top
  end

let test_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let to_int_opt a =
  if bit_length a > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  out.(n) <- !carry;
  normalize out

let add_small (a : t) v =
  assert (v >= 0 && v < base);
  if v = 0 then a else add a [| v |]

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = (ai * b.(j)) + out.(i + j) + !carry in
          out.(i + j) <- s land limb_mask;
          carry := s lsr base_bits
        done;
        (* Propagate the final carry; it can ripple at most to the top. *)
        let p = ref (i + lb) in
        while !carry <> 0 do
          let s = out.(!p) + !carry in
          out.(!p) <- s land limb_mask;
          carry := s lsr base_bits;
          incr p
        done
      end
    done;
    normalize out
  end

let mul_small (a : t) v =
  assert (v >= 0 && v < base);
  if v = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let out = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * v) + !carry in
      out.(i) <- s land limb_mask;
      carry := s lsr base_bits
    done;
    out.(la) <- !carry;
    normalize out
  end

(* Dedicated squaring: compute each cross product a_i * a_j (i < j) once,
   double the whole accumulator with a single 1-bit shift, then add the
   diagonal squares a_i^2. Roughly halves the partial products of
   [mul a a]. Doubling cannot be fused into the inner loop:
   2 * (2^31-1)^2 overflows 63 bits, so the shift happens on reduced
   limbs only. *)
let sqr (a : t) : t =
  let n = Array.length a in
  if n = 0 then zero
  else begin
    let out = Array.make (2 * n) 0 in
    (* Cross products, each taken once. Same overflow analysis as
       [mul]: product + limb + carry < 2^62. *)
    for i = 0 to n - 2 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = i + 1 to n - 1 do
          let s = (ai * a.(j)) + out.(i + j) + !carry in
          out.(i + j) <- s land limb_mask;
          carry := s lsr base_bits
        done;
        let p = ref (i + n) in
        while !carry <> 0 do
          let s = out.(!p) + !carry in
          out.(!p) <- s land limb_mask;
          carry := s lsr base_bits;
          incr p
        done
      end
    done;
    (* out := 2 * out. *)
    let carry = ref 0 in
    for i = 0 to (2 * n) - 1 do
      let v = (out.(i) lsl 1) lor !carry in
      out.(i) <- v land limb_mask;
      carry := v lsr base_bits
    done;
    (* Add the diagonal a_i^2 at limb 2i. *)
    for i = 0 to n - 1 do
      let p = a.(i) * a.(i) in
      let s = out.(2 * i) + (p land limb_mask) in
      out.(2 * i) <- s land limb_mask;
      let carry = ref ((p lsr base_bits) + (s lsr base_bits)) in
      let j = ref ((2 * i) + 1) in
      while !carry <> 0 do
        let s = out.(!j) + !carry in
        out.(!j) <- s land limb_mask;
        carry := s lsr base_bits;
        incr j
      done
    done;
    normalize out
  end

let divmod_small (a : t) d =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_small";
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

let shift_left (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_left";
  if s = 0 || is_zero a then a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let n = Array.length a in
    let out = Array.make (n + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 out limb_shift n
    else begin
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        out.(i + limb_shift) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      out.(n + limb_shift) <- !carry
    end;
    normalize out
  end

let shift_right (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_right";
  if s = 0 || is_zero a then a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let n = Array.length a in
    if limb_shift >= n then zero
    else begin
      let m = n - limb_shift in
      let out = Array.make m 0 in
      if bit_shift = 0 then Array.blit a limb_shift out 0 m
      else
        for i = 0 to m - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < n then
              (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land limb_mask
            else 0
          in
          out.(i) <- lo lor hi
        done;
      normalize out
    end
  end

(* Knuth TAOCP vol.2 Algorithm D, adapted to 31-bit limbs. *)
let divmod_knuth (u0 : t) (v0 : t) : t * t =
  let n = Array.length v0 in
  (* Normalize so the divisor's top limb has its high bit set. *)
  let rec top_width w v = if v = 0 then w else top_width (w + 1) (v lsr 1) in
  let s = base_bits - top_width 0 v0.(n - 1) in
  let v = shift_left v0 s in
  let u_shifted = shift_left u0 s in
  let m = Array.length u_shifted - n in
  if m < 0 then (zero, u0)
  else begin
    (* Working copy of the dividend with one extra top limb. *)
    let u = Array.make (Array.length u_shifted + 1) 0 in
    Array.blit u_shifted 0 u 0 (Array.length u_shifted);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsecond = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let fixing = ref true in
      while !fixing do
        if
          !qhat >= base
          || !qhat * vsecond
             > (!rhat lsl base_bits) lor (if n >= 2 then u.(j + n - 2) else 0)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then fixing := false
        end
        else fixing := false
      done;
      (* Multiply-subtract qhat * v from u[j .. j+n]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land limb_mask;
          carry := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shift_right (normalize (Array.sub u 0 n)) s in
    (normalize q, r)
  end

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else if compare a b < 0 then (zero, a)
  else divmod_knuth a b

let of_bytes_be s =
  let n = String.length s in
  let acc = ref zero in
  (* Consume 3 bytes (24 bits) at a time to limit shifting work. *)
  let i = ref 0 in
  while !i < n do
    let take = min 3 (n - !i) in
    let chunk = ref 0 in
    for j = 0 to take - 1 do
      chunk := (!chunk lsl 8) lor Char.code s.[!i + j]
    done;
    acc := add_small (shift_left !acc (8 * take)) !chunk;
    i := !i + take
  done;
  !acc

let to_bytes_be ?pad_to a =
  let byte_len = (bit_length a + 7) / 8 in
  let out_len =
    match pad_to with
    | None -> max byte_len 1
    | Some p ->
        if p < byte_len then invalid_arg "Nat.to_bytes_be: value too large";
        p
  in
  let out = Bytes.make out_len '\x00' in
  (* Write bytes least-significant first from the limb array. *)
  for i = 0 to byte_len - 1 do
    let bit = 8 * i in
    let limb = bit / base_bits and off = bit mod base_bits in
    let lo = a.(limb) lsr off in
    let hi =
      if off > base_bits - 8 && limb + 1 < Array.length a then
        a.(limb + 1) lsl (base_bits - off)
      else 0
    in
    Bytes.set out (out_len - 1 - i) (Char.chr ((lo lor hi) land 0xFF))
  done;
  Bytes.unsafe_to_string out
