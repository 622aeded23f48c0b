(** One netlist's dataflow facts, shared by every check pass over it.

    Each domain is solved lazily, on first demand, and at most once:
    {!obs} reads the table's {!const} facts, {!load} its {!obs} facts,
    and both backward solves share one {!fanouts}. A pass whose
    findings are served from a cache forces nothing, so a partial hit
    solves only the domains the misses need. The table is not safe to
    force from two domains at once; the check passes run serially. *)

type t

val create : Netlist.t -> t
(** A table over [nl] with nothing solved yet. *)

val for_netlist : ?facts:t -> Netlist.t -> t
(** [facts] when given, else a fresh table over [nl]. Raises
    [Invalid_argument] if [facts] was built over another netlist. *)

val structural : t -> Diag.t list
(** {!Netlist.validate_diags}. The domains below need it empty
    (in-range fan-ins, correct arities, no cycle). *)

val fanouts : t -> Absint.fanouts
val const : t -> Const_dom.value array
val obs : t -> Obs_dom.fact array
val load : t -> (int * int) array
val polar : t -> Polar_dom.fact array
