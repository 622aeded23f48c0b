(** Structurally-hashed netlist construction, shared by synthesis
    ({!Opt}'s rewriting pass) and resynthesis (every [Resyn] pass and
    its proof windows).

    Every constructor returns an existing node when a structurally
    identical one was already built — commutative fan-ins (the six
    2-input kinds and [Maj]) compare in sorted order, double
    negations collapse, constants fold ([and(x,0) = 0],
    [maj(x,y,1) = or], [maj(x,~x,y) = y], ...) — so rebuilding a
    netlist through a builder {e is} common-subexpression
    elimination. All methods are deterministic; a builder is
    single-domain (never shared across parallel chunks). *)

type t

val create : unit -> t

val netlist : t -> Netlist.t
(** The netlist under construction (live view). *)

val input : t -> ?name:string -> unit -> int
val output : t -> ?name:string -> int -> unit
val const : t -> bool -> int

val not_ : t -> int -> int
(** Complement with double-negation collapse and constant folding. *)

val gate2 : t -> Netlist.kind -> int -> int -> int
(** 2-input gate of kind [f] ([And]/[Or]/[Nand]/[Nor]/[Xor]/[Xnor]).
    All six are commutative, so one rule folds them all: a constant
    operand [k] (either side) gives [f(k,.)] — a constant, the other
    signal [s] or [not s]; equal operands give [f(x,x)] the same way;
    complementary operands give the constant [f(0,1)]; two constants
    give [f(ka,kb)]. Operands no rule folds hash structurally. Raises
    [Invalid_argument] on any other kind. *)

val maj : t -> int -> int -> int -> int
(** 3-input majority: duplicate operands collapse
    ([maj(a,a,b) = a]), complementary operands cancel
    ([maj(a,~a,b) = b]), constant operands degrade to [And]/[Or]. *)

val instantiate : t -> Maj_db.impl -> int array -> int
(** Realize a database implementation over concrete leaf signals
    (variables beyond the leaf count are don't-care and feed a
    constant node). *)
