(* Structured diagnostics: the one currency every check trades in. Keeping
   severity, check name and location in a record (rather than formatted
   strings) is what lets the CLI filter, sort, count and re-render them as
   JSON without re-parsing its own output. *)

type severity = Error | Warn | Info

type location =
  | Model of string
  | File of { path : string; line : int; col : int }

type t = {
  check : string;
  severity : severity;
  loc : location;
  message : string;
  hint : string option;
}

let make ?hint severity ~check ~loc message = { check; severity; loc; message; hint }
let error ?hint ~check ~loc message = make ?hint Error ~check ~loc message
let warn ?hint ~check ~loc message = make ?hint Warn ~check ~loc message
let info ?hint ~check ~loc message = make ?hint Info ~check ~loc message

let severity_label = function Error -> "error" | Warn -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warn -> 1 | Info -> 2

let location_key = function
  | Model path -> (0, path, 0, 0)
  | File { path; line; col } -> (1, path, line, col)

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (location_key a.loc) (location_key b.loc) in
      if c <> 0 then c
      else
        let c = compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c else String.compare a.check b.check)
    ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let pp_location ppf = function
  | Model path -> Fmt.pf ppf "model %s" path
  | File { path; line; col } -> Fmt.pf ppf "%s:%d:%d" path line col

let pp_plain ppf d =
  Fmt.pf ppf "%a: %s [%s] %s" pp_location d.loc (severity_label d.severity) d.check
    d.message

let pp ppf d =
  pp_plain ppf d;
  match d.hint with None -> () | Some h -> Fmt.pf ppf "@,  hint: %s" h

(* Minimal JSON string escaping: enough for our own messages (ASCII plus
   quotes/backslashes/control characters). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let loc_fields =
    match d.loc with
    | Model path -> Printf.sprintf {|"model":"%s"|} (json_escape path)
    | File { path; line; col } ->
      Printf.sprintf {|"file":"%s","line":%d,"col":%d|} (json_escape path) line col
  in
  let hint_field =
    match d.hint with
    | None -> ""
    | Some h -> Printf.sprintf {|,"hint":"%s"|} (json_escape h)
  in
  Printf.sprintf {|{"check":"%s","severity":"%s",%s,"message":"%s"%s}|}
    (json_escape d.check) (severity_label d.severity) loc_fields (json_escape d.message)
    hint_field

(* Versioned report envelope: the shape CI archives as an artifact, so
   its stability is pinned by a golden test. Bump [version] on any field
   change. *)
let report_to_json ds =
  let ds = sort ds in
  Printf.sprintf
    {|{"version":1,"summary":{"errors":%d,"warnings":%d,"notes":%d},"diagnostics":[%s]}|}
    (count Error ds) (count Warn ds) (count Info ds)
    (String.concat "," (List.map to_json ds))

(* SARIF 2.1.0: one run, one driver, results in sort order. Rule ids are
   whatever checks actually fired (the full catalogue lives in Registry,
   which this module cannot see — deliberate, Registry depends on
   Ast_rules which depends on here). File locations become physical
   locations; model paths become logical locations, which SARIF defines
   for exactly this "not a file" case. *)
let severity_sarif = function Error -> "error" | Warn -> "warning" | Info -> "note"

let result_to_sarif d =
  let location =
    match d.loc with
    | File { path; line; col } ->
      Printf.sprintf
        {|{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}|}
        (json_escape path) line col
    | Model path ->
      Printf.sprintf {|{"logicalLocations":[{"fullyQualifiedName":"%s"}]}|}
        (json_escape path)
  in
  let message =
    match d.hint with
    | None -> d.message
    | Some h -> d.message ^ " (hint: " ^ h ^ ")"
  in
  Printf.sprintf {|{"ruleId":"%s","level":"%s","message":{"text":"%s"},"locations":[%s]}|}
    (json_escape d.check) (severity_sarif d.severity) (json_escape message) location

let report_to_sarif ds =
  let ds = sort ds in
  let rules =
    List.map (fun d -> d.check) ds
    |> List.sort_uniq String.compare
    |> List.map (fun c -> Printf.sprintf {|{"id":"%s"}|} (json_escape c))
  in
  Printf.sprintf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"dwv_lint","rules":[%s]}},"results":[%s]}]}|}
    (String.concat "," rules)
    (String.concat "," (List.map result_to_sarif ds))

let pp_summary ppf ds =
  let e = count Error ds and w = count Warn ds and i = count Info ds in
  let plural n = if n = 1 then "" else "s" in
  Fmt.pf ppf "%d error%s, %d warning%s" e (plural e) w (plural w);
  if i > 0 then Fmt.pf ppf ", %d note%s" i (plural i)
