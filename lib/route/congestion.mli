(** Routing-demand estimation before routing.

    The router grows a channel lazily: fail, expand by s_min, retry —
    which re-routes the whole pair per step. Channel demand is
    predictable from the placement, so this module sizes channels
    up-front: for each row gap it computes the {e channel density}
    (the maximum number of nets whose horizontal spans cover a common
    x), which lower-bounds the horizontal tracks needed, and widens
    the gap to fit that many tracks before the router starts. The
    router's expansion loop remains as the safety net for what the
    estimate misses (via detours, pin congestion).

    This is a deliberate extension beyond the paper (which only
    expands reactively); a route test checks that it never costs
    the router expansions. *)

val channel_density : Problem.t -> int -> int
(** [channel_density p r] — maximum overlap count of the horizontal
    spans of the nets crossing gap [r]. *)

val preexpand : Problem.t -> int
(** Widen each row gap so it offers at least [ceil (0.85 * density)]
    horizontal tracks: density is a worst-case bound, and most nets
    share tracks over disjoint spans, so provisioning a fraction and
    letting reactive expansion absorb the rest gives the best
    wirelength/runtime balance. Returns the number of gaps widened;
    gaps never shrink. *)
