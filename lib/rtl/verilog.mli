(** RTL frontend: a structural-Verilog-subset parser and elaborator.

    This is the repository's substitute for the Yosys step of the
    paper's flow (DESIGN.md §1): it turns RTL text into the AOI
    netlist the AQFP synthesis stages consume.

    Supported subset (combinational, single module):
    - [module]/[endmodule] with a port list;
    - [input]/[output]/[wire] declarations, scalar or vector
      [\[msb:lsb\]];
    - continuous assignments [assign lhs = expr;] where [expr] uses
      [~ & | ^], parentheses, bit-selects [x\[i\]], the literals
      [1'b0]/[1'b1], and sized binary vector literals [4'b1010];
      vector operands are applied bitwise and widths must match;
    - gate primitives: [and/or/nand/nor/xor/xnor/not/buf name(out,
      in...);] with 2..n inputs (n-ary gates are decomposed into
      balanced 2-input trees).

    - module hierarchy: a source file may define several modules; the
      {e last} one is the top, and positional instantiation
      ([sub u1(a, b, y);]) flattens recursively at elaboration (with a
      depth guard against recursive instantiation);
    - concatenation [{a, b}] and replication [{4{x}}] in expressions.

    Not supported (rejected with a message): [always], [reg],
    arithmetic operators. AQFP logic is gate-level pipelined;
    sequential RTL has no direct counterpart at this level of the
    flow. *)

val parse : string -> (Netlist.t, string) result
(** Elaborate Verilog source into an AOI netlist. Vector ports expand
    to one netlist input/output per bit, named [port\[i\]]. *)

val parse_file : string -> (Netlist.t, string) result
(** Read and parse a file. [Error] names the path once: the system's
    message for an unreadable file, else [path: ] before the parse
    error. The channel is closed on every path. *)
