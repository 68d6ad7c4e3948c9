(* The source tree walker every source layer starts from: which files a
   set of roots names (deterministic order, each file once), which paths
   an exclusion list removes, and the missing-[.mli] file check. *)

module D = Diagnostics

let is_ocaml_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let skip_dir name = String.length name > 0 && (name.[0] = '.' || name.[0] = '_')

let refuse_build_root root =
  let parts = String.split_on_char '/' root in
  if List.mem "_build" parts then
    invalid_arg
      (Fmt.str "Source_lint.collect_tree: refusing to scan %s: _build holds generated \
                artifacts, lint the sources instead"
         root)

(* In-library modules are expected to publish an interface; executables,
   tests and benches are not. *)
let expects_mli path =
  List.mem "lib" (String.split_on_char '/' path)
  && Filename.check_suffix path ".ml"

let missing_mli_check path =
  if expects_mli path then begin
    let mli = path ^ "i" in
    if not (Sys.file_exists mli) then
      [
        D.warn ~check:Registry.missing_mli
          ~loc:(D.File { path; line = 1; col = 1 })
          (Fmt.str "library module without an interface (%s not found)"
             (Filename.basename mli))
          ~hint:"add a .mli so the module's contract (and float invariants) are explicit";
      ]
    else []
  end
  else []

(* Is [path] under one of the [exclude] fragments? Matched on contiguous
   whole path components, like Ast_rules allowlists. *)
let excluded ~exclude path =
  let pcs =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")
  in
  List.exists
    (fun fragment ->
      let fcs =
        String.split_on_char '/' fragment
        |> List.filter (fun c -> c <> "" && c <> ".")
      in
      let rec prefix fs ps =
        match (fs, ps) with
        | [], _ -> true
        | _, [] -> false
        | f :: fs', p :: ps' -> f = p && prefix fs' ps'
      in
      let rec at ps =
        match ps with [] -> false | _ :: rest -> prefix fcs ps || at rest
      in
      fcs <> [] && at pcs)
    exclude

let path_under ~fragments path = excluded ~exclude:fragments path

let collect_tree ?(exclude = []) roots =
  List.iter refuse_build_root roots;
  (* Identity is the resolved absolute path, so overlapping roots
     ("lib lib" or "lib" + a symlink back into it) yield each file once,
     and symlink cycles cannot loop the walk. *)
  let real path = try Unix.realpath path with Unix.Unix_error _ | Sys_error _ -> path in
  let seen_dirs = Hashtbl.create 16 and seen_files = Hashtbl.create 64 in
  let files = ref [] in
  let rec walk ~is_root path =
    if not (excluded ~exclude path) then
      if Sys.is_directory path then begin
        let key = real path in
        if
          (is_root || not (skip_dir (Filename.basename path)))
          && not (Hashtbl.mem seen_dirs key)
        then begin
          Hashtbl.add seen_dirs key ();
          let entries = Sys.readdir path in
          Array.sort String.compare entries;
          Array.iter (fun entry -> walk ~is_root:false (Filename.concat path entry)) entries
        end
      end
      else if is_ocaml_source path then begin
        let key = real path in
        if not (Hashtbl.mem seen_files key) then begin
          Hashtbl.add seen_files key ();
          files := path :: !files
        end
      end
  in
  List.iter
    (fun root ->
      if Sys.file_exists root then walk ~is_root:true root
      else invalid_arg (Fmt.str "Source_lint.collect_tree: no such path %s" root))
    roots;
  List.rev !files
