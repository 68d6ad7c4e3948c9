(** Flow*-style reachability for LTI plants x' = Ax + Bu under sampled
    linear state feedback u = Kx with zero-order hold. Sample-instant sets
    are exact zonotope images; inter-sample enclosures use a Picard-style
    box argument. The flowpipe runs as one kernel over float arrays it
    owns; the boxed functions below compute the same bits. *)

type lti = { a : Dwv_la.Mat.t; b : Dwv_la.Mat.t }

(** A plant discretized for one sampling period: A_d, B_d and flat
    copies of A and B. Depends only on (plant, δ), so a study builds it
    once. *)
type plant

(** [prepare ~delta sys] discretizes [sys] for period [delta] (the
    {!discretize} matrices). *)
val prepare : delta:float -> lti -> plant

(** Exact ZOH discretisation: (A_d, B_d) with A_d = e^{Aδ},
    B_d = (∫₀^δ e^{As} ds)·B. *)
val discretize : delta:float -> lti -> Dwv_la.Mat.t * Dwv_la.Mat.t

(** Interval range of K·x over a zonotope. *)
val gain_range : gain:Dwv_la.Mat.t -> Dwv_geometry.Zonotope.t -> Dwv_interval.Box.t

(** Sound enclosure of the one-period flow from [x_box] under a constant
    input in [u_box]; [None] when the inflation loop fails. *)
val intersample_enclosure :
  lti ->
  x_box:Dwv_interval.Box.t ->
  x_next_box:Dwv_interval.Box.t ->
  u_box:Dwv_interval.Box.t ->
  delta:float ->
  Dwv_interval.Box.t option

(** Flowpipe of the prepared plant for [steps] periods; marks divergence
    when a sample box exceeds [blowup_width] (default 1e7) or turns
    non-finite, or an inter-sample enclosure is not found. Raises
    [Invalid_argument] when [gain] is not m×n or [x0] not n-dimensional,
    and the [Invalid_argument] of [Interval.make] when a bound is not
    finite. *)
val flowpipe :
  ?blowup_width:float ->
  plant:plant ->
  gain:Dwv_la.Mat.t ->
  x0:Dwv_interval.Box.t ->
  steps:int ->
  unit ->
  Flowpipe.t
