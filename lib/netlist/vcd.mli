(** VCD (Value Change Dump) export of simulation traces.

    Runs a vector sequence through {!Sim} and emits the standard VCD
    text that waveform viewers (GTKWave & co.) read: one timestep per
    input vector, with primary inputs, primary outputs, and —
    optionally — every internal node as signals. Signals are named
    after the netlist names where present.

    AQFP note: the simulation is zero-delay combinational; one VCD
    timestep corresponds to one full wave through the gate-level
    pipeline, not one clock phase. *)

val of_vectors : ?dump_internal:bool -> Netlist.t -> bool array list -> string
(** [of_vectors nl vectors] — VCD text for the run, timescale 1 ns.
    [dump_internal] (default false) also traces internal gates. Raises
    [Invalid_argument] on vector arity mismatch. *)

val write_file :
  string -> ?dump_internal:bool -> Netlist.t -> bool array list -> unit
