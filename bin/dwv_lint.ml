(* dwv_lint: static soundness analyzer and lint driver.

     dwv_lint models                        Layer-1 checks on built-in systems
     dwv_lint source [PATH...]              Layer-2/3/4/5 lint over OCaml sources
                                            (--engine ast|typed|sound, default ast)
     dwv_lint system -f "x1; -x0/(x1+2)" -n 2 -m 1 --x0="-1,1;-1,1"
                                            Layer-1 checks on a text-defined system
     dwv_lint all [PATH...]                 every layer (what `dune build @lint` runs)
     dwv_lint checks                        list every check the analyzer knows

   The typed engine (--engine typed) reads the .cmt files under _build
   (run `dune build @check` first) and adds the layer-4 analyses:
   budget-threading, pool-capture (a Pool task reading a captured local
   ref/Hashtbl.t) and the type-aware phys-equality exemption. Allocation
   is not checked statically: `bench hotpath` ratchets each workload's
   exact minor words instead. The sound engine (--engine sound) reads
   the same .cmt files and runs only the layer-5 analyses
   (rounding-flow, cache-purity).

   JSON output is one envelope document (see Diagnostics.report_to_json);
   --format sarif emits SARIF 2.1.0; --plain renders one diagnostic per
   line without hint lines.

   Exit codes: 0 clean (warnings allowed), 1 diagnostics with Error
   severity, 2 usage/parse errors. *)

module D = Dwv_analysis.Diagnostics
module Model_check = Dwv_analysis.Model_check
module Ast_lint = Dwv_analysis.Ast_lint
module Typed_lint = Dwv_analysis.Typed_lint
module Sound_lint = Dwv_analysis.Sound_lint
module Registry = Dwv_analysis.Registry
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Rng = Dwv_util.Rng

type format = Text | Json | Sarif

let render ~plain fmt ds =
  match fmt with
  | Json -> print_endline (D.report_to_json ds)
  | Sarif -> print_endline (D.report_to_sarif ds)
  | Text ->
    if plain then List.iter (fun d -> Fmt.pr "@[<h>%a@]@." D.pp_plain d) ds
    else List.iter (fun d -> Fmt.pr "@[<v>%a@]@." D.pp d) ds;
    Fmt.pr "%a@." D.pp_summary ds

let exit_of ds = if D.has_errors ds then 1 else 0

let usage_die msg =
  Fmt.epr "dwv_lint: %s@." msg;
  exit 2

(* ---------- built-in model inputs ---------- *)

let builtin_inputs () =
  let rng = Rng.create 7 in
  let module A = Dwv_systems.Acc in
  let module O = Dwv_systems.Oscillator in
  let module T = Dwv_systems.Threed in
  let module P = Dwv_systems.Pendulum in
  [
    Model_check.make_input ~name:"acc" ~sys:A.sampled ~spec:A.spec
      ~controller:A.initial_controller ();
    Model_check.make_input ~name:"oscillator" ~sys:O.sampled ~spec:O.spec
      ~controller:(O.initial_controller rng) ~domain:O.pretrain_region ();
    Model_check.make_input ~name:"threed" ~sys:T.sampled ~spec:T.spec
      ~controller:(T.initial_controller rng) ~domain:T.pretrain_region ();
    Model_check.make_input ~name:"pendulum" ~sys:P.sampled ~spec:P.spec
      ~controller:(P.initial_controller rng) ~domain:P.pretrain_region ();
  ]

let check_models names =
  let inputs = builtin_inputs () in
  let known = List.map (fun (i : Model_check.input) -> i.Model_check.name) inputs in
  List.iter
    (fun name ->
      if not (List.mem name known) then
        usage_die
          (Fmt.str "unknown system %S (known: %s)" name (String.concat ", " known)))
    names;
  let inputs =
    match names with
    | [] -> inputs
    | names ->
      List.filter (fun (i : Model_check.input) -> List.mem i.Model_check.name names) inputs
  in
  List.concat_map Model_check.check inputs

(* ---------- text-defined systems ---------- *)

let parse_box text =
  let component ctext =
    match String.split_on_char ',' (String.trim ctext) with
    | [ lo; hi ] -> (
      match (float_of_string_opt (String.trim lo), float_of_string_opt (String.trim hi)) with
      | Some lo, Some hi -> Ok (lo, hi)
      | _ -> Error (Fmt.str "invalid bounds %S" ctext))
    | _ -> Error (Fmt.str "expected \"lo,hi\", got %S" ctext)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> ( match component c with Ok b -> go (b :: acc) rest | Error e -> Error e)
  in
  match go [] (String.split_on_char ';' text) with
  | Error e -> Error e
  | Ok bounds -> (
    let lo = Array.of_list (List.map fst bounds) in
    let hi = Array.of_list (List.map snd bounds) in
    match Box.make ~lo ~hi with
    | box -> Ok box
    | exception Invalid_argument m -> Error m)

let split_exprs text =
  String.split_on_char ';' text |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* ---------- cmdliner plumbing ---------- *)

open Cmdliner

let format_conv =
  Arg.conv
    ( (function
      | "text" -> Ok Text
      | "json" -> Ok Json
      | "sarif" -> Ok Sarif
      | s -> Error (`Msg ("unknown format " ^ s ^ " (expected text | json | sarif)"))),
      fun ppf f ->
        Fmt.string ppf (match f with Text -> "text" | Json -> "json" | Sarif -> "sarif") )

let format_arg =
  Arg.(value & opt format_conv Text
       & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json or sarif (2.1.0).")

let plain_arg =
  Arg.(value & flag
       & info [ "plain" ]
           ~doc:"With text output, print one diagnostic per line and omit hint lines.")

type engine = Ast | Typed | Sound

let engine_arg =
  Arg.(value & opt (enum [ ("ast", Ast); ("typed", Typed); ("sound", Sound) ]) Ast
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Source engine: ast (layer-2 rules and layer-3 Parsetree analyses), \
                 typed (ast plus the layer-4 cmt analyses: budget-threading, \
                 pool-capture, type-aware phys-equality exemption), or sound \
                 (only the layer-5 semantic soundness analyses: rounding-flow, \
                 cache-purity).")

let build_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "build-dir" ] ~docv:"DIR"
           ~doc:"Where the typed engine looks for .cmt files (default: _build/default \
                 when it exists, else the current directory).")

let exclude_arg =
  Arg.(value & opt_all string []
       & info [ "exclude" ] ~docv:"FRAG"
           ~doc:"Skip paths containing this fragment (whole path components; \
                 repeatable). The lint fixture corpus is excluded this way in CI.")

let models_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"SYSTEM" ~doc:"Systems to check (default: all).")
  in
  let run fmt plain names =
    let ds = check_models names in
    render ~plain fmt ds;
    exit (exit_of ds)
  in
  Cmd.v (Cmd.info "models" ~doc:"Layer-1 static analysis of the built-in systems")
    Term.(const run $ format_arg $ plain_arg $ names_arg)

let default_source_roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let lint_sources ~engine ~exclude ?build_dir paths =
  let roots =
    match paths with
    | [] -> List.filter Sys.file_exists default_source_roots
    | paths -> paths
  in
  match engine with
  | Ast -> (
    match Ast_lint.lint_tree ~exclude roots with
    | ds -> ds
    | exception Invalid_argument m -> usage_die m)
  | Typed -> (
    match Typed_lint.lint_tree ?build_dir ~exclude ~roots () with
    | ds -> ds
    | exception Invalid_argument m -> usage_die m)
  | Sound -> (
    match Sound_lint.lint_tree ?build_dir ~exclude ~roots () with
    | ds -> ds
    | exception Invalid_argument m -> usage_die m)

let source_cmd =
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH"
         ~doc:"Files or directories to lint (default: lib bin bench test examples).")
  in
  let run fmt plain engine exclude build_dir paths =
    let ds = lint_sources ~engine ~exclude ?build_dir paths in
    render ~plain fmt ds;
    exit (exit_of ds)
  in
  Cmd.v
    (Cmd.info "source"
       ~doc:"Source lint: layer-2 rules plus the layer-3 AST analyses (domain-safety, \
             exn-escape) and, with --engine typed, the layer-4 cmt analyses")
    Term.(const run $ format_arg $ plain_arg $ engine_arg $ exclude_arg $ build_dir_arg
          $ paths_arg)

let system_cmd =
  let f_arg =
    Arg.(required & opt (some string) None
         & info [ "f"; "dynamics" ] ~docv:"EXPRS"
             ~doc:"Dynamics, one expression per component, ';'-separated. Use \
                   --dynamics=\"...\" when the first expression starts with '-'.")
  in
  let n_arg = Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"State dimension.") in
  let m_arg = Arg.(required & opt (some int) None & info [ "m" ] ~docv:"M" ~doc:"Input dimension.") in
  let x0_arg =
    Arg.(required & opt (some string) None
         & info [ "x0" ] ~docv:"BOX" ~doc:"Initial box, \"lo,hi\" per dimension, ';'-separated.")
  in
  let u_arg =
    Arg.(value & opt (some string) None
         & info [ "u"; "input" ] ~docv:"BOX"
             ~doc:"Input box (same syntax as --x0). Use --input=\"...\" for \
                   negative lower bounds.")
  in
  let run fmt f_text n m x0_text u_text =
    let f =
      match Dwv_expr.Parser.parse_system (split_exprs f_text) with
      | Ok f -> f
      | Error msg -> usage_die ("dynamics: " ^ msg)
    in
    let x0 = match parse_box x0_text with Ok b -> b | Error e -> usage_die ("--x0: " ^ e) in
    if Array.length x0 <> n then
      usage_die
        (Fmt.str "--x0 has %d component(s) but the state dimension is %d"
           (Array.length x0) n);
    let u =
      match u_text with
      | None -> None
      | Some t -> ( match parse_box t with Ok b -> Some b | Error e -> usage_die ("--u: " ^ e))
    in
    (match u with
    | Some u when Array.length u <> m ->
      usage_die
        (Fmt.str "--u has %d component(s) but the input dimension is %d" (Array.length u) m)
    | _ -> ());
    let name = "user" in
    let ds =
      Model_check.check_dynamics ~name ~f ~n ~m
      @ Model_check.check_domains ~name ~f ~x0 ?u ()
    in
    let ds = D.sort ds in
    render ~plain:false fmt ds;
    exit (exit_of ds)
  in
  Cmd.v
    (Cmd.info "system"
       ~doc:"Layer-1 static analysis of a system given as dynamics text (the same front \
             end user-defined systems go through)")
    Term.(const run $ format_arg $ f_arg $ n_arg $ m_arg $ x0_arg $ u_arg)

let checks_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) ->
        Fmt.pr "%-16s %-7s %s@." e.Registry.name
          (Registry.layer_label e.Registry.layer)
          e.Registry.description)
      Registry.all;
    Fmt.pr "%d checks@." (List.length Registry.all)
  in
  Cmd.v (Cmd.info "checks" ~doc:"List every check the analyzer can emit")
    Term.(const run $ const ())

let all_cmd =
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH"
         ~doc:"Source roots for the source layers (default: lib bin bench test examples).")
  in
  let run fmt plain engine exclude build_dir paths =
    let ds = check_models [] @ lint_sources ~engine ~exclude ?build_dir paths in
    render ~plain fmt ds;
    exit (exit_of ds)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every analysis layer (what `dune build @lint` runs)")
    Term.(const run $ format_arg $ plain_arg $ engine_arg $ exclude_arg $ build_dir_arg
          $ paths_arg)

let () =
  let doc = "Static soundness analyzer for design-while-verify models and sources" in
  let main =
    Cmd.group (Cmd.info "dwv_lint" ~doc)
      [ models_cmd; source_cmd; system_cmd; checks_cmd; all_cmd ]
  in
  exit (Cmd.eval main)
