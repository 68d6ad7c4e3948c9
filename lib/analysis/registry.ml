(* Check registry. Names live here (not scattered through Model_check) so
   that `dwv_lint checks`, the docs and the tests all read one list. *)

type layer = Model_layer | Source_layer | Ast_layer | Typed_layer | Sound_layer

type entry = { name : string; layer : layer; description : string }

let dim_arity = "dim-arity"
let spec_dims = "spec-dims"
let div_by_zero = "div-by-zero"
let exp_overflow = "exp-overflow"
let domain_eval = "domain-eval"
let spec_degenerate = "spec-degenerate"
let spec_overlap = "spec-overlap"
let spec_x0_unsafe = "spec-x0-unsafe"
let x0_in_domain = "x0-in-domain"
let nn_finite = "nn-finite"
let nn_activation = "nn-activation"
let nn_lipschitz = "nn-lipschitz"
let ctrl_shape = "ctrl-shape"
let missing_mli = "missing-mli"
let domain_safety = "domain-safety"
let exn_escape = "exn-escape"
let ast_parse = "ast-parse"
let pool_capture = "pool-capture"
let budget_threading = "budget-threading"
let cmt_missing = "cmt-missing"
let rounding_flow = "rounding-flow"
let cache_purity = "cache-purity"
let sound_allow = "sound-allow"

let model_entries =
  [
    (dim_arity, "dynamics arity: every Var/Input index is within the declared (n, m)");
    (spec_dims, "specification sets share the dynamics' state dimension");
    (div_by_zero, "no Div denominator's interval enclosure over X0 contains zero");
    (exp_overflow, "no Exp argument's enclosure over X0 reaches the double overflow range");
    (domain_eval, "interval evaluation of dynamics subterms over X0 succeeds");
    (spec_degenerate, "initial/goal/unsafe boxes have non-empty interior");
    (spec_overlap, "goal and unsafe sets are disjoint");
    (spec_x0_unsafe, "initial set does not already intersect the unsafe set");
    (x0_in_domain, "initial set is contained in the declared operating domain");
    (nn_finite, "every serialized network weight and bias is finite");
    (nn_activation, "scaled NN controllers end in a bounded activation");
    (nn_lipschitz, "the network's global Lipschitz bound is finite and sane");
    (ctrl_shape, "controller input/output shape matches the plant's (n, m)");
  ]

let ast_entries =
  [
    ( domain_safety,
      "no Pool/Domain task closure reaches unguarded module-level mutable state" );
    ( exn_escape,
      "hot-path functions cannot raise past the Dwv_error.t result taxonomy" );
    ( ast_parse,
      "every linted implementation parses with the compiler front end (its \
       source rules cannot run otherwise)" );
  ]

let typed_entries =
  [
    ( pool_capture,
      "no Pool task reads a local ref or Hashtbl.t captured from its \
       enclosing scope" );
    ( budget_threading,
      "every call path from a public verify/learn/initset entry point to the \
       flowpipe/ODE kernels threads a Budget.t" );
    ( cmt_missing,
      "the typed engine found .cmt files for the requested roots (run `dune \
       build @check` first)" );
  ]

let sound_entries =
  [
    ( rounding_flow,
      "no raw round-to-nearest float arithmetic on enclosure/remainder \
       dataflow outside the audited widening primitives (widen, Cert_ival \
       ulp steppers)" );
    ( cache_purity,
      "every function reachable from Cert_key fingerprints and cert \
       validation reads no clock, RNG, Domain identity, environment or \
       unkeyed mutable global" );
    ( sound_allow,
      "every layer-5 allowlist entry still matches a real site (stale \
       entries are errors)" );
  ]

let all =
  List.map
    (fun (name, description) -> { name; layer = Model_layer; description })
    model_entries
  @ List.map
      (fun (r : Ast_rules.rule) ->
        { name = r.Ast_rules.name; layer = Source_layer; description = r.message })
      Ast_rules.builtin
  @ [
      {
        name = missing_mli;
        layer = Source_layer;
        description = "every library .ml has a corresponding .mli interface";
      };
    ]
  @ List.map
      (fun (name, description) -> { name; layer = Ast_layer; description })
      ast_entries
  @ List.map
      (fun (name, description) -> { name; layer = Typed_layer; description })
      typed_entries
  @ List.map
      (fun (name, description) -> { name; layer = Sound_layer; description })
      sound_entries

let layer_label = function
  | Model_layer -> "model"
  | Source_layer -> "source"
  | Ast_layer -> "ast"
  | Typed_layer -> "typed"
  | Sound_layer -> "sound"
