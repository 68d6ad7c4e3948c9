(** Interval-only (box) reachability — the wrapping-effect ablation
    baseline and the last rung of the fallback ladder: IBP controller
    abstraction + interval Taylor steps, no symbolic variables. *)

(** One validated period in pure interval arithmetic: (box at δ, segment
    enclosure); [Error (Divergence _)] on enclosure failure. *)
val step :
  ?budget:Dwv_robust.Budget.t ->
  f:Dwv_expr.Expr.t array ->
  lie:Taylor_reach.lie_table ->
  delta:float ->
  Dwv_interval.Box.t ->
  Dwv_interval.Box.t ->
  (Dwv_interval.Box.t * Dwv_interval.Box.t, Dwv_robust.Dwv_error.t) result

(** Closed-loop box flowpipe under u = output_scale·net(x) with ZOH — a
    {!Closed_loop} instance with the interval-bound-propagation control
    abstraction and {!step} — with the structured failure cause attached
    (total). *)
val nn_flowpipe_outcome :
  ?blowup_width:float ->
  ?order:int ->
  ?budget:Dwv_robust.Budget.t ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  steps:int ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  x0:Dwv_interval.Box.t ->
  unit ->
  Flowpipe.outcome

(** [nn_flowpipe_outcome] without the error detail. *)
val nn_flowpipe :
  ?blowup_width:float ->
  ?order:int ->
  ?budget:Dwv_robust.Budget.t ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  steps:int ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  x0:Dwv_interval.Box.t ->
  unit ->
  Flowpipe.t
