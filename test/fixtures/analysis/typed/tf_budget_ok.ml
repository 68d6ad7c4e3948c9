(* Positive budget-threading fixture: the budget enters at [verify],
   is spent there, and is passed down through [refine] to the kernel.
   Budget_threading.analyze on entry "Tf_budget_ok.verify" must report
   nothing. *)

let refine ?budget ~f x =
  let x' = Interval_reach.step ?budget ~f x in
  x' +. 1.0

let verify ?budget x =
  (match budget with
  | Some b -> ( match Budget.spend_steps b 1 with Ok () -> () | Error _ -> ())
  | None -> ());
  refine ?budget ~f:(fun v -> v *. 2.0) x
