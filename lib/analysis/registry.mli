(** Registry of every check the analyzer can emit, with one-line
    descriptions: the single source of truth for check names. Layer-1
    (model) names are the constants below, consumed by {!Model_check};
    Layer-2 (source) entries are derived from {!Ast_rules.builtin} so
    the listing can never drift from the rule table. *)

type layer = Model_layer | Source_layer | Typed_layer | Sound_layer

type entry = { name : string; layer : layer; description : string }

(** {1 Layer-1 check names} *)

val dim_arity : string
val spec_dims : string
val div_by_zero : string
val exp_overflow : string
val domain_eval : string
val spec_degenerate : string
val spec_overlap : string
val spec_x0_unsafe : string
val x0_in_domain : string
val nn_finite : string
val nn_activation : string
val nn_lipschitz : string
val ctrl_shape : string

(** {1 Layer-2 check names not backed by an {!Ast_rules} row} *)

val missing_mli : string
val ast_parse : string

(** {1 Layers 3–4 (typed) check names} *)

val domain_safety : string
val exn_escape : string
val pool_capture : string
val budget_threading : string
val cmt_missing : string

(** {1 Layer-5 (semantic soundness) check names} *)

val rounding_flow : string
val cache_purity : string
val sound_allow : string

(** Every check, model layer first. *)
val all : entry list

val layer_label : layer -> string
