(* Signed integers over Nat magnitudes. Invariant: [sign] is 0 iff the
   magnitude is zero, else -1 or 1. *)

type t = { sign : int; mag : Nat.t }

let make sign mag = if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }
let two = { sign = 1; mag = Nat.of_int 2 }
let minus_one = { sign = -1; mag = Nat.one }

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = Nat.of_int n }
  else if n = min_int then invalid_arg "Bigint.of_int: min_int unsupported"
  else { sign = -1; mag = Nat.of_int (-n) }

let to_int_opt a =
  match Nat.to_int_opt a.mag with
  | Some v -> Some (a.sign * v)
  | None -> None

let to_int_exn a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: out of native range"

let sign a = a.sign
let is_zero a = a.sign = 0
let is_even a = a.sign = 0 || not (Nat.test_bit a.mag 0)
let is_odd a = not (is_even a)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b

let neg a = make (-a.sign) a.mag
let abs a = make (Stdlib.abs a.sign) a.mag

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (Nat.add a.mag b.mag)
  else begin
    match Nat.compare a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> make a.sign (Nat.sub a.mag b.mag)
    | _ -> make b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (Nat.mul a.mag b.mag)

let sqr a = make (if a.sign = 0 then 0 else 1) (Nat.sqr a.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a m =
  let r = rem a m in
  if r.sign < 0 then add r (abs m) else r

let pow a n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (sqr base) (n lsr 1)
    end
  in
  go one a n

let bit_length a = Nat.bit_length a.mag
let test_bit a i = Nat.test_bit a.mag i
let shift_left a s = make a.sign (Nat.shift_left a.mag s)
let shift_right a s = make a.sign (Nat.shift_right a.mag s)

(* Classic carry-based recoding over an explicit bit array: at each set
   bit take the w-bit window above it as a signed odd digit, and when the
   digit is negative carry the borrowed 2^w back in at bit i+w. *)
let wnaf k w =
  if k.sign < 0 || w < 2 then invalid_arg "Bigint.wnaf";
  let n = bit_length k in
  (* The represented value never exceeds 2^n (negative digits round it up
     to the next multiple of 2^(i+w), never past a power-of-two boundary),
     so bit n is the highest ever set; the slack covers the carry index
     i + w itself. *)
  let len = n + w + 2 in
  let bits = Array.make len 0 in
  for i = 0 to n - 1 do
    if test_bit k i then bits.(i) <- 1
  done;
  let digits = Array.make len 0 in
  let top = ref (-1) in
  let i = ref 0 in
  while !i < len do
    if bits.(!i) = 0 then incr i
    else begin
      let hi = Stdlib.min (len - 1) (!i + w - 1) in
      let v = ref 0 in
      for j = hi downto !i do
        v := (!v lsl 1) lor bits.(j);
        bits.(j) <- 0
      done;
      let d = if !v >= 1 lsl (w - 1) then !v - (1 lsl w) else !v in
      digits.(!i) <- d;
      top := !i;
      if d < 0 then begin
        let j = ref (!i + w) in
        while bits.(!j) = 1 do
          bits.(!j) <- 0;
          incr j
        done;
        bits.(!j) <- 1
      end;
      i := !i + w
    end
  done;
  Array.sub digits 0 (!top + 1)

(* Left-to-right scan: each window [l, i] starts at a set bit i and ends
   at the lowest set bit l within w bits of it, so its value is odd; the
   squarings before it are the zeros skipped since the previous window
   plus its own length. *)
let sliding_windows e =
  if e.sign <= 0 then invalid_arg "Bigint.sliding_windows";
  let n = bit_length e in
  let w = if n <= 8 then 1 else if n <= 96 then 3 else if n <= 320 then 4 else 5 in
  let rec scan i zeros acc =
    if i < 0 then List.rev (if zeros > 0 then (zeros, 0) :: acc else acc)
    else if not (test_bit e i) then scan (i - 1) (zeros + 1) acc
    else begin
      let l = ref (Stdlib.max 0 (i - w + 1)) in
      while not (test_bit e !l) do
        incr l
      done;
      let d = ref 0 in
      for j = i downto !l do
        d := (!d lsl 1) lor (if test_bit e j then 1 else 0)
      done;
      let s = if acc = [] then 0 else zeros + i - !l + 1 in
      scan (!l - 1) 0 ((s, !d) :: acc)
    end
  in
  (w, scan (n - 1) 0 [])

(* Decimal via 9-digit (10^9 < 2^31) chunks. *)
let chunk = 1_000_000_000

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Nat.is_zero mag then acc
      else begin
        let q, r = Nat.divmod_small mag chunk in
        go q (r :: acc)
      end
    in
    (match go a.mag [] with
    | [] -> assert false
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    (if a.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let to_string_hex a =
  if a.sign = 0 then "0x0"
  else begin
    let hex = Hashing.Hex.encode (Nat.to_bytes_be a.mag) in
    (* Strip leading zero nibbles. *)
    let i = ref 0 in
    while !i < String.length hex - 1 && hex.[!i] = '0' do
      incr i
    done;
    let body = String.sub hex !i (String.length hex - !i) in
    (if a.sign < 0 then "-0x" else "0x") ^ body
  end

let parse_digits ~radix s =
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let digit c =
    let v =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | '_' -> -1
      | _ -> invalid_arg "Bigint.of_string: bad digit"
    in
    if v >= radix then invalid_arg "Bigint.of_string: bad digit";
    v
  in
  let acc = ref Nat.zero in
  String.iter
    (fun c ->
      let d = digit c in
      if d >= 0 then acc := Nat.add_small (Nat.mul_small !acc radix) d)
    s;
  !acc

let of_string s =
  let negative, body =
    if String.length s > 0 && s.[0] = '-' then (true, String.sub s 1 (String.length s - 1))
    else if String.length s > 0 && s.[0] = '+' then (false, String.sub s 1 (String.length s - 1))
    else (false, s)
  in
  let mag =
    if String.length body > 2 && body.[0] = '0' && (body.[1] = 'x' || body.[1] = 'X')
    then parse_digits ~radix:16 (String.sub body 2 (String.length body - 2))
    else parse_digits ~radix:10 body
  in
  make (if negative then -1 else 1) mag

let of_bytes_be s = make 1 (Nat.of_bytes_be s)

let to_bytes_be ?pad_to a =
  if a.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative";
  Nat.to_bytes_be ?pad_to a.mag

let pp fmt a = Format.pp_print_string fmt (to_string a)

let random_bits rng bits =
  if bits < 0 then invalid_arg "Bigint.random_bits";
  if bits = 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let raw = Bytes.of_string (Hashing.Drbg.generate rng nbytes) in
    let excess = (8 * nbytes) - bits in
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xFF lsr excess)));
    of_bytes_be (Bytes.unsafe_to_string raw)
  end

let random_below rng bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound <= 0";
  let bits = bit_length bound in
  let rec try_once () =
    let candidate = random_bits rng bits in
    if compare candidate bound < 0 then candidate else try_once ()
  in
  try_once ()

let random_in_range rng ~lo ~hi =
  if compare lo hi > 0 then invalid_arg "Bigint.random_in_range: lo > hi";
  add lo (random_below rng (succ (sub hi lo)))

let magnitude a = a.mag
let of_nat mag = make 1 mag
