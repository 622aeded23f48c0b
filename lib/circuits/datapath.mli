(** Parameterized combinational datapath generators beyond the paper's
    benchmark set — the building blocks a user of the flow reaches for
    when assembling real designs (the paper's outlook: RISC-V CPUs and
    accelerators). All emit AOI netlists ready for {!Synth_flow.run};
    each is checked exhaustively or on random vectors against a
    specification-level reference in the test suite.

    Bit order is LSB-first everywhere, matching {!Circuits}. *)

val ripple_adder : int -> Netlist.t
(** [ripple_adder w] — the compact (deep) counterpart of
    {!Circuits.kogge_stone_adder}: inputs [a0..], [b0..], [cin];
    outputs [s0..], [cout]. Useful as the area-end of the adder
    area/delay tradeoff. *)

val carry_select_adder : ?block:int -> int -> Netlist.t
(** [carry_select_adder w] — ripple blocks of [block] (default 4) bits
    computed for both carry-ins, selected by the incoming carry: the
    classic middle point of the tradeoff. Same ports as the other
    adders. *)

val subtractor : int -> Netlist.t
(** [subtractor w] — two's-complement [a - b]: outputs [d0..d(w-1)]
    and [bout] (1 = no borrow, i.e. a >= b). *)

val comparator : int -> Netlist.t
(** [comparator w] — unsigned compare of [a] and [b]: outputs [lt],
    [eq], [gt] (exactly one is high). *)

val barrel_shifter : int -> Netlist.t
(** [barrel_shifter w] — logical left shift of a [w]-bit word ([w] a
    power of two) by a [log2 w]-bit amount: inputs [x0..], [s0..];
    outputs [y0..]. Built as log stages of 2:1 muxes. *)

val priority_encoder : int -> Netlist.t
(** [priority_encoder n] — index of the highest set input among [n]
    ([n] a power of two): outputs [y0..y(log2 n - 1)] plus [valid]. *)

val mux_tree : int -> Netlist.t
(** [mux_tree n] — [n]-to-1 one-bit multiplexer ([n] a power of two):
    inputs [d0..d(n-1)] then selects [s0..]; output [y]. *)

val parity : int -> Netlist.t
(** [parity n] — xor-reduce of [n] inputs; output [p]. *)
