(* Fixture kernel: the budget-consuming target every verified path must
   reach with a budget in scope. *)

let step ?budget ~f x =
  match budget with
  | Some b -> ( match Budget.check b with Ok () -> f x | Error _ -> x)
  | None -> f x
