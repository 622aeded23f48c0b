(** Matrix-free quadratic placement engine shared by the GORDIAN-based
    and TAAS baseline placers.

    Minimizes Σ_e w_e (x_src + o_src − x_dst − o_dst)² + a Σ_i (x_i −
    anchor_i)² over cell x positions, where [o] are pin offsets. The
    anchor term (a weak pull toward an even spread inside each row)
    plays the role of GORDIAN's partitioning constraints: without it
    the unconstrained quadratic form is singular and all cells
    collapse to a point. Solved by conjugate gradient on the normal
    equations, which are symmetric positive definite thanks to the
    anchors. *)

val solve : Problem.t -> net_weight:(int -> float) -> unit
(** [solve p ~net_weight] updates cell positions in place;
    [net_weight i] weighs net [i] (1.0 = plain wirelength); [a] is
    0.01, and conjugate gradient stops after 200 iterations. Positions
    are continuous; run {!Legalize.run} afterwards. *)
