(* Negative budget-threading fixture, two distinct failures:

   - [verify] consults the budget itself but then calls [helper], which
     cannot take a budget at all, and [helper] reaches the kernel
     unbudgeted -> unbudgeted-target error.
   - [verify] also calls [middle], which *does* accept ?budget and
     consumes it, but the call omits the argument -> budget-drop error. *)

let helper ~f x = Interval_reach.step ~f x

let middle ?budget ~f x = Interval_reach.step ?budget ~f x

let verify ?budget x =
  (match budget with
  | Some b -> ( match Budget.check b with Ok () -> () | Error _ -> ())
  | None -> ());
  let a = helper ~f:(fun v -> v +. 1.0) x in
  let b = middle ~f:(fun v -> v -. 1.0) x in
  a +. b
