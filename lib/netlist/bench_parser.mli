(** Parser for the ISCAS'85 [.bench] netlist format.

    Supports the combinational subset used by the c-series benchmarks:
    [INPUT(x)], [OUTPUT(x)], and assignments
    [y = OP(a, b, ...)] with [OP] one of AND/OR/NAND/NOR/XOR/XNOR/
    NOT/BUF/BUFF. N-ary gates are decomposed into balanced trees of
    2-input gates (the AOI form the rest of the flow expects);
    an n-ary NAND/NOR becomes a 2-input tree followed by one inverted
    root gate, which preserves the function. [#] starts a comment.

    Sequential elements ([DFF]) are rejected: AQFP gate-level
    pipelining has no equivalent of CMOS registers at this level. *)

val parse : string -> (Netlist.t, string) result
(** Parse source text. [Error] carries a message with a line number. *)

val parse_file : string -> (Netlist.t, string) result
(** Read and parse a file. [Error] names the path once: the system's
    message for an unreadable file, else [path: ] before the parse
    error. The channel is closed on every path. *)
