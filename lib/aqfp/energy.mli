(** AQFP energy model.

    The paper's opening claim is that AQFP achieves a 10^4–10^5
    energy-efficiency gain over CMOS thanks to adiabatic switching
    (§I, citing Takeuchi et al.). This module quantifies that for a
    synthesized design: every AQFP cell is AC-clocked, so every JJ
    switches once per cycle (activity factor 1), dissipating a few
    zeptojoule at adiabatic ramp rates.

    Defaults follow the literature the paper cites: ~1.4 zJ per JJ per
    switching event at a 5 GHz excitation, against ~1 fJ for a
    minimum-size CMOS gate switching event in a comparable node, plus
    10% of the switching energy as extra AC-bias loss. *)

type report = {
  jj_count : int;
  gate_count : int;  (** logic cells excluding output markers *)
  energy_per_cycle_j : float;
  power_w : float;  (** at the technology's clock frequency *)
  cmos_energy_per_cycle_j : float;  (** same logic as CMOS gates *)
  efficiency_gain : float;  (** CMOS energy / AQFP energy *)
}

val of_netlist : Tech.t -> Netlist.t -> report
(** Energy of a synthesized AQFP netlist (uses the cell library's JJ
    counts; the netlist should be post-insertion so buffers and
    splitters are costed). *)

val pp : Format.formatter -> report -> unit
