(** NPN canonicalization of 3-variable truth tables.

    Two functions are NPN-equivalent when one becomes the other by
    permuting inputs (P), complementing some inputs (N) and possibly
    complementing the output (N). The 256 3-variable truth tables
    collapse into 14 NPN classes; canonicalizing a cut's function lets
    the rewriter consult {!Maj_db} through the class representative
    and carry its (often cheaper) implementation back through the
    inverse transform — input/output complements are just [neg] flags
    on {!Maj_db.operand}s, so the transport is exact.

    Everything here is a pure table computation: deterministic by
    construction. The 256 answers of {!canon} are computed once, when
    the module is initialised, with a bitwise {!apply}; a call is an
    array read, so the rewriter asks it per cut without building a
    table of its own, from any domain. *)

type transform = {
  perm : int array;
      (** [perm.(j)] = the original variable read at canonical
          position [j] (a bijection on [0..2]) *)
  phase : int;  (** bit [k] set: original variable [k] enters complemented *)
  out_neg : bool;  (** the canonical function is the complement *)
}

val identity : transform

val apply : transform -> Truth.t -> Truth.t
(** [apply t f] is the function [g] with
    [g y = f x XOR t.out_neg] where [x.(t.perm.(j)) = y.(j) XOR]
    bit [t.perm.(j)] of [t.phase]. *)

val canon : Truth.t -> Truth.t * transform
(** The numerically smallest table over all 96 NPN transforms of [f],
    with a deterministic witness [t] such that
    [apply t f = canonical]. Only the low 8 bits of [f] are
    considered. Looked up in the table built at initialisation; the
    returned transform is shared, so callers must not mutate [perm]. *)

val uncanon : transform -> Maj_db.impl -> Maj_db.impl
(** Transport an implementation of the canonical representative back
    to the original function: substitute each input variable through
    [perm]/[phase] and complement the output when [out_neg] — i.e.
    [eval (uncanon t impl) x = eval impl y XOR t.out_neg] under the
    variable change of {!apply}, [eval] being the implementation's
    value on an input vector. The [jj] field is
    recomputed with {!Cost.impl_jj}; [depth] is preserved (operand
    complements are free in depth). *)
