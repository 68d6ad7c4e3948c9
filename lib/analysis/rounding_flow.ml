(* Layer-5 rounding-discipline analysis. See the .mli for the model.

   The walk is a context-sensitive traversal of each top-level typed
   body. Three contexts:

   - [Neutral]: ordinary code; raw float arithmetic is fine here because
     its result never becomes an enclosure bound (midpoints, metrics,
     step-size heuristics all live in Neutral).
   - [Bound]: the expression's value flows into an enclosure bound — a
     field of a bound-typed record literal, or an argument of a bound
     constructor ([Interval.make], [Box.make], [Cert_ival.make]). Raw
     round-to-nearest arithmetic here loses up to 1/2 ulp in the unsound
     direction and is flagged.
   - [Safe]: the subtree is an argument of an audited outward primitive
     ([Interval.widen], the [Cert_ival] ulp steppers): whatever rounding
     happens inside, the primitive's outward step dominates it, so the
     whole subtree is discharged and the walk prunes.

   Local [let]s add flow sensitivity within a function: raw sites inside
   a binding's definition are collected (not flagged) and only surface
   if the bound variable is later *used* in [Bound] context — so
   [let m = mid t in ...debug output...] is silent while
   [let m = mid t in make lo m] flags the [mid].

   Scalar arguments of interval operators ([Interval.scale],
   [Interval.shift]) are deliberately out of scope: the widened interval
   op encloses the product with the scalar *as computed*, so a rounded
   scalar changes which design value is used, not the soundness of the
   enclosure around it. DESIGN.md §15 records this boundary. *)

module D = Diagnostics
module CI = Cmt_index

type allow = { a_fn : string; a_reason : string }

type config = {
  bound_types : string list;
  constructors : string list;
  outward : string list;
  raw : string list;
  heuristics : string list;
  allow : allow list;
}

let default_allow =
  [
    {
      a_fn = "Interval.widen";
      a_reason =
        "root of trust: the eps-scale outward slack dominates the 1/2-ulp \
         round-to-nearest error of every operation it covers (see the \
         interval.ml header)";
    };
    {
      a_fn = "Box.bloat";
      a_reason =
        "additive outward padding: rounding lo -. eps to nearest can never \
         land above lo, so the result still contains the input box";
    };
    {
      a_fn = "Box.bloat_vec";
      a_reason = "per-axis variant of Box.bloat; same outward-padding argument";
    };
    {
      a_fn = "Box.scale_about_center";
      a_reason =
        "inflation heuristic seeding Picard iteration; the downstream subset \
         test certifies the candidate, not this inflation";
    };
    {
      a_fn = "Linear_reach.bloat";
      a_reason =
        "Box.bloat on the flat LTI kernel's Picard box; same outward-padding \
         argument";
    };
    {
      a_fn = "Linear_reach.inflate";
      a_reason =
        "Box.scale_about_center on the flat LTI kernel's Picard box: an \
         inflation heuristic seeding Picard iteration; the downstream subset \
         test certifies the candidate, not this inflation";
    };
    {
      a_fn = "Box.bisect";
      a_reason =
        "the split point need not be the exact midpoint: both halves are \
         built from the same computed value, so their union is the input box";
    };
    {
      a_fn = "Box.partition";
      a_reason =
        "grid construction for coverage accounting; every cell is separately \
         certified by the downstream subset tests";
    };
    {
      a_fn = "Scenario.far_box";
      a_reason =
        "constant placeholder obstacle built from literals; no computed bound \
         flows in";
    };
    {
      a_fn = "Scn_fuzz.generate";
      a_reason =
        "fuzzer case generation: the boxes produced are verification inputs, \
         not claimed enclosures — any box is a legitimate test case and the \
         differential oracle re-checks every verdict";
    };
    {
      a_fn = "Scn_fuzz.shrink_candidates";
      a_reason =
        "shrinking heuristic: candidate boxes are only reported after the \
         oracle re-confirms the failure on them";
    };
    {
      a_fn = "Nn_reach_bernstein.control_models";
      a_reason =
        "output_scale *. net(x) is the function being approximated: the \
         Bernstein remainder is computed against the same floating-point \
         evaluation, so its rounding is part of the modeled function, not an \
         enclosure step (the Lipschitz/curvature scalings are ulp-stepped)";
    };
  ]

let default_config =
  {
    bound_types = [ "Interval.t"; "Cert_ival.t" ];
    constructors =
      [ "Interval.make"; "Interval.check"; "Interval.of_point"; "Box.make"; "Cert_ival.make" ];
    outward =
      [
        "Interval.widen"; "Interval.checked_slack"; "Cert_ival.widen"; "Cert_ival.down"; "Cert_ival.up";
        "Cert_ival.down2"; "Cert_ival.up2"; "Cert_ival.mono"; "Float.pred";
        "Float.succ";
      ];
    raw =
      [
        "+."; "-."; "*."; "/."; "**";
        "exp"; "log"; "log10"; "log1p"; "expm1"; "sqrt"; "sin"; "cos"; "tan";
        "atan"; "atan2"; "asin"; "acos"; "tanh"; "sinh"; "cosh"; "hypot";
        "Float.add"; "Float.sub"; "Float.mul"; "Float.div"; "Float.pow";
        "Float.exp"; "Float.log"; "Float.sqrt"; "Float.fma";
        "Floatx.sigmoid"; "Floatx.lerp"; "Interval.mono_incr";
      ];
    heuristics =
      [
        "Interval.mid"; "Interval.rad"; "Interval.width"; "Interval.sample";
        "Interval.distance"; "Interval.overlap_length"; "Box.center";
      ];
    allow = default_allow;
  }

type kind = Raw | Heuristic

type site = { s_what : string; s_kind : kind; s_loc : Location.t }

type ctx = Neutral | Bound | Safe | Collect of site list ref

let classify cfg name =
  if List.mem name cfg.raw then Some Raw
  else if List.mem name cfg.heuristics then Some Heuristic
  else None

(* Raw sites flagged inside one function body. *)
let sites_of_fn idx cfg u (fn : CI.tfn) =
  let found = ref [] in
  (* local let-bound variables whose definitions contain undischarged raw
     sites; keyed by source name, latest binding wins *)
  let pending : (string, site list) Hashtbl.t = Hashtbl.create 8 in
  let hit ctx s =
    match ctx with
    | Bound -> found := s :: !found
    | Collect r -> r := s :: !r
    | Neutral | Safe -> ()
  in
  let local_name p = match p with Path.Pident id -> Some (Ident.name id) | _ -> None in
  let rec walk ctx (e : Typedtree.expression) =
    if ctx = Safe then ()
    else
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, { loc; _ }, _) -> (
        let name, _ = CI.resolve_callee idx u p in
        (match classify cfg name with
        | Some k -> hit ctx { s_what = name; s_kind = k; s_loc = loc }
        | None -> ());
        match local_name p with
        | Some n -> (
          match Hashtbl.find_opt pending n with
          | Some sites -> List.iter (hit ctx) sites
          | None -> ())
        | None -> ())
      | Typedtree.Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let collected = ref [] in
            walk (Collect collected) vb.Typedtree.vb_expr;
            match (CI.binding_name vb.Typedtree.vb_pat, !collected) with
            | Some n, (_ :: _ as sites) -> Hashtbl.replace pending n (List.rev sites)
            | _ -> ())
          vbs;
        walk ctx body
      | Typedtree.Texp_apply (head, args) ->
        let head_name =
          match head.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, { loc; _ }, _) ->
            (* a local function used as the head still feeds its
               definition's raw sites into the result *)
            (match local_name p with
            | Some n -> (
              match Hashtbl.find_opt pending n with
              | Some sites -> List.iter (hit ctx) sites
              | None -> ())
            | None -> ());
            Some (CI.resolve_callee idx u p, loc)
          | _ ->
            walk ctx head;
            None
        in
        let arg_ctx =
          match head_name with
          | Some ((name, _), _) when List.mem name cfg.outward -> Safe
          | Some ((name, _), loc) ->
            (match classify cfg name with
            | Some k -> hit ctx { s_what = name; s_kind = k; s_loc = loc }
            | None -> ());
            if List.mem name cfg.constructors then Bound else ctx
          | None -> ctx
        in
        List.iter (function _, Some a -> walk arg_ctx a | _, None -> ()) args
      | Typedtree.Texp_record { fields; extended_expression; _ } ->
        let field_ctx =
          if List.mem (CI.type_head idx u e.Typedtree.exp_type) cfg.bound_types then
            Bound
          else ctx
        in
        Array.iter
          (function
            | _, Typedtree.Overridden (_, fe) -> walk field_ctx fe
            | _, Typedtree.Kept _ -> ())
          fields;
        (match extended_expression with Some base -> walk ctx base | None -> ())
      | _ ->
        (* every other construct propagates its context to its children *)
        let it =
          let open Tast_iterator in
          { default_iterator with expr = (fun _ child -> walk ctx child) }
        in
        Tast_iterator.default_iterator.expr it e
  in
  walk Neutral fn.CI.t_body;
  (* one report per site: a pending let used n times would otherwise
     surface its collected sites n times *)
  List.sort_uniq compare !found

let kind_label = function Raw -> "raw float arithmetic" | Heuristic -> "midpoint/heuristic computation"

let analyze ?(config = default_config) idx =
  let used = Hashtbl.create 8 in
  let diags = ref [] in
  List.iter
    (fun (u : CI.unit_info) ->
      List.iter
        (fun (fn : CI.tfn) ->
          let sites = sites_of_fn idx config u fn in
          if sites <> [] then
            let key = CI.fn_key u fn in
            match List.find_opt (fun a -> a.a_fn = key) config.allow with
            | Some _ -> Hashtbl.replace used key ()
            | None ->
              List.iter
                (fun s ->
                  diags :=
                    D.error ~check:Registry.rounding_flow
                      ~loc:(CI.file_loc u s.s_loc)
                      (Fmt.str "%s %S on bound dataflow in %s" (kind_label s.s_kind)
                         s.s_what key)
                      ~hint:
                        "route the bound through Interval.widen or the Cert_ival \
                         ulp steppers, or add a justified Rounding_flow allow \
                         entry for this function"
                    :: !diags)
                sites)
        u.CI.u_fns)
    (CI.units idx);
  let stale =
    List.filter_map
      (fun a ->
        if Hashtbl.mem used a.a_fn then None
        else
          Some
            (D.error ~check:Registry.sound_allow
               ~loc:(D.Model ("sound/rounding-flow/allow/" ^ a.a_fn))
               (Fmt.str
                  "stale allow entry %s: no undischarged rounding site in that \
                   function (or the function no longer exists)"
                  a.a_fn)
               ~hint:"delete the entry or fix its spelling"))
      config.allow
  in
  D.sort (!diags @ stale)
