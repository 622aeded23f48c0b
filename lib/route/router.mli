(** Layer-wise A* routing with space expansion (paper §III-D,
    Algorithm 1).

    AQFP routing is point-to-point (splitters absorb fan-out) and the
    zigzag clocking confines every net to the two metal layers between
    its two adjacent clock phases, so the router works one row pair at
    a time — no global/detailed split. Within a pair it runs A* on a
    10 µm grid (the "dynamic step size": wires can only turn on grid
    nodes, which enforces the zigzag minimum spacing by construction):

    - horizontal segments occupy metal 1, vertical segments metal 2,
      and every 90° turn is a via (penalized in the cost);
    - grid edges and directed node usage are exclusive per layer, so
      two nets can cross (different layers) but never overlap or touch
      end-to-end;
    - cells block the grid column-closed/row-open, so wires clear cell
      bodies laterally by a full grid pitch but pins on cell edges
      remain reachable; nets leave the driver pin downward and enter
      the sink pin from above.

    If any net in a pair cannot be routed, the vertical gap below the
    upper row grows by [s_min] and the whole pair is rerouted — the
    paper's space expansion. Expanding gap [r] only shifts rows below
    it, so already-routed pairs are untouched. *)

type route = {
  net : int;  (** index into the problem's net array *)
  points : (float * float) list;  (** polyline, start pin → end pin *)
  vias : int;
  length : float;  (** µm *)
}

type result = {
  routes : route array;  (** one per net, in net order *)
  expansions : int;  (** total space-expansion steps taken *)
  node_expansions : int;
      (** A* states popped across all searches *)
  neg_rounds : int;
      (** max negotiation rounds over all row pairs (0 = [Sequential]) *)
  neg_rerouted : int;
      (** total per-round net reroutes across all pairs' negotiations.
          Both negotiation counters count converged negotiations only:
          a failed one (24 rounds without convergence, followed by
          space expansion) shows only in [node_expansions]. *)
  wirelength : float;  (** Σ route length, µm *)
  total_vias : int;
  runtime_s : float;
}

exception Unroutable of int
(** Raised (net index) if a net still fails after the expansion limit;
    with a sane placement this indicates a malformed problem. *)

type algorithm =
  | Sequential
      (** first-come first-served track claiming, short nets first,
          failed nets promoted to the front before expanding *)
  | Negotiated
      (** PathFinder-style negotiated congestion: every iteration
          routes all of a pair's nets with shared resources allowed
          but priced (growing present-sharing cost + accumulated
          history) until each edge/node-layer slot has one tenant;
          a pair whose negotiation stalls goes straight to space
          expansion *)

val route_all : ?algorithm:algorithm -> Problem.t -> result
(** Route every net. Mutates [Problem.row_gaps] when space expansion
    is needed (so [Problem.row_top] afterwards reflects final
    geometry). A via costs 20 µm of wire in the search, and a row
    pair that still fails after 400 space expansions raises.

    Both algorithms run the shared arena search core ({!Search}):
    epoch-stamped dist/parent arrays reused across nets, a bucketed
    dial queue over quantized integer costs, bounding-box pruning
    with full-grid fallback, and (under [Negotiated]) dirty-net-only
    rip-up and reroute. *)

val check_routes : Problem.t -> result -> (unit, string) Stdlib.result
(** Validate a routing result: every route connects its net's pins,
    stays on the grid, turns only at via points, and no two routes
    share a grid edge or touch on the same layer. Used by tests and
    the DRC stage. *)
