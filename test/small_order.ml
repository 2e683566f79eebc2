(* Points of small order on E(GF(p)), #E = p + 1 = h.q. Adding one to a
   G1 point X keeps it on the curve and leaves every pairing with it
   unchanged (e^(P, T) = 1 for T of order prime to q), but moves it out
   of G1: only a subgroup-membership test can tell X + T from X. *)

(* The one point of order 2 over GF(p): (0, 0) on y^2 = x^3 + x and
   (-1, 0) on y^2 = x^3 + 1. *)
let order_two prms =
  let fp = prms.Pairing.fp in
  let x = match prms.Pairing.family with Pairing.Y2_x3_x -> 0 | Pairing.Y2_x3_1 -> -1 in
  Curve.make prms.Pairing.curve ~x:(Fp.of_int fp x) ~y:(Fp.zero fp)

(* [(p+1)/l] X for every odd l < 200 dividing h and three raw curve
   lifts X of tagged strings: points of order dividing l, each paired
   with its l (any that come out as infinity are skipped). Empty when h
   has no such factor. *)
let odd_order prms ~tag =
  let name = prms.Pairing.name in
  let curve = prms.Pairing.curve in
  let order = Bigint.succ prms.Pairing.p in
  List.concat_map
    (fun l ->
      if not (Bigint.is_zero (Bigint.erem prms.Pairing.cofactor (Bigint.of_int l)))
      then []
      else
        List.filter_map
          (fun i ->
            let x =
              Pairing.hash_to_g1_unclamped prms
                (Printf.sprintf "%s-%s-%d-%d" tag name l i)
            in
            let pt = Curve.mul curve (Bigint.div order (Bigint.of_int l)) x in
            if Curve.is_infinity pt then None else Some (l, pt))
          [ 1; 2; 3 ])
    (List.init 99 (fun i -> (2 * i) + 3))

(* The order-2 point and the odd-order ones, each with its order. *)
let shifts prms ~tag = (2, order_two prms) :: odd_order prms ~tag
