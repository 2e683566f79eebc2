(* Words allocated per call of [f] over 50 calls, after one warm-up
   call that grows any per-domain scratch. [Gc.minor_words], not
   [Gc.allocated_bytes]: on OCaml 5.1 the latter counts the words
   allocated since the last minor collection at one eighth, so dividing
   it by 8 reads anything from an eighth of the true count to more than
   it. Blocks over 256 words go straight to the major heap and are not
   counted. *)
let words_per_call f =
  f ();
  let rounds = 50 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds
