type t = { origin : string; granularity : float }

let create ?(origin = "utc") ~granularity () =
  if granularity <= 0.0 then invalid_arg "Timeline.create: granularity <= 0";
  { origin; granularity }

let granularity t = t.granularity
let origin t = t.origin
let epoch_at t instant = int_of_float (Float.floor (instant /. t.granularity))
let label t epoch = Printf.sprintf "%s#%d" t.origin epoch

(* Only what [label] prints for an epoch >= 0: [int_of_string_opt] alone
   would also take a sign, leading zeros, a radix prefix or underscores
   ("utc#02", "utc#0x2", "utc#2_" all read as epoch 2) and negative
   epochs, so the digits must read back unchanged. *)
let epoch_of_label t lbl =
  match String.index_opt lbl '#' with
  | Some i when String.sub lbl 0 i = t.origin -> (
      let d = String.sub lbl (i + 1) (String.length lbl - i - 1) in
      match int_of_string_opt d with
      | Some n when n >= 0 && string_of_int n = d -> Some n
      | Some _ | None -> None)
  | Some _ | None -> None

let start_of t epoch = float_of_int epoch *. t.granularity
