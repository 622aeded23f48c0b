(** Inversion-parity tracking along buffer/inverter chains.

    In AQFP, inversion is free: every cell can drive a {e negative}
    buffer, so an explicit inverter only ever needs to appear once on
    a path — a pair of inverters along one chain is pure waste (two
    cells, two clock phases, zero logic). This forward dataflow
    tracks, for every node, the nearest non-chain ancestor ([root] —
    the closest ancestor that is not a buffer, inverter or splitter),
    the inversion parity relative to it, and how many inverters the
    chain crossed.

    [AI-POLAR-01] (warning) fires on every inverter that brings its
    chain back to {e even} parity (at least two inverters deep): the
    node recomputes its root through a cancelling inverter pair. The
    witness is the chain from the root down to the flagged
    inverter. *)

type fact = {
  root : int;  (** nearest non-{Buf,Not,Splitter} ancestor (self otherwise) *)
  inverted : bool;  (** parity of inverters between [root] and the node *)
  invs : int;  (** number of inverters crossed *)
}

val solve : Netlist.t -> fact array

val check : Netlist.t -> fact array -> Diag.t list
(** [check nl facts] — the [AI-POLAR-01] findings over [facts =
    solve nl], in node-id order. *)
