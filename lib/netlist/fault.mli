(** Stuck-at fault simulation and greedy test-pattern generation.

    Fabricated superconducting dies need manufacturing tests like any
    chip; the classical single-stuck-at model carries over to AQFP
    directly (a JJ stuck in one flux state pins its gate's output).
    This module grades test-vector sets by fault coverage and
    generates compact vector sets greedily:

    - a {e fault} pins one gate output to 0 or 1;
    - a vector {e detects} a fault iff any primary output differs
      between the good and the faulted machine;
    - generation draws random vector batches (bit-parallel, 62 vectors
      per word pass), keeps each vector that newly detects at least
      one fault, and drops detected faults, until a coverage target or
      a vector budget is reached.

    Faults that no vector can detect are {e redundant} — they witness
    untestable logic (e.g. constant-valued internal nets), which the
    test suite exercises explicitly. *)

type fault = { node : int; stuck_at : bool }

val all_faults : Netlist.t -> fault list
(** Both polarities on every logic node (inputs included — a stuck
    input is a broken DC/SFQ converter; output markers excluded). *)

val detects : Netlist.t -> fault -> bool array -> bool
(** [detects nl fault vector] — single-vector check. *)

val faulty_response : Netlist.t -> fault -> bool array -> bool array
(** Outputs of the faulted machine on one vector (simulates a
    defective die; used by diagnosis and its tests). *)

val coverage : Netlist.t -> bool array list -> float * fault list
(** Fraction of {!all_faults} detected by the vector set, plus the
    faults that remain undetected. *)

type tests = {
  vectors : bool array list;
  achieved : float;  (** final fault coverage, 0..1 *)
  undetected : fault list;
}

val generate : ?seed:int -> Netlist.t -> tests
(** Greedy generation up to 99% coverage or 2000 kept vectors.
    Deterministic in [seed]. *)

val diagnose :
  Netlist.t -> bool array list -> bool array list -> fault list
(** Fault dictionary lookup: given the applied [vectors] and the
    {e observed} output responses of a failing die, return the
    single-stuck-at faults whose simulated responses match every
    observation. An empty list means no single fault explains the
    behaviour (multiple defects, or a fault class outside the model);
    the healthy response matches no fault only when the die actually
    failed somewhere. *)

val pp_fault : Format.formatter -> fault -> unit
