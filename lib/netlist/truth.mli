(** Truth tables for boolean functions of up to 6 variables, packed
    into the low [2^n] bits of an [int]. Bit [i] holds the function
    value on the input assignment whose variable [k] equals bit [k] of
    [i].

    The majority-mapping database ({!Sf_synth.Maj_db}) and the
    Karnaugh-style matching step of the AOI→MAJ converter are built on
    this module. *)

type t = int

val mask : int -> t
(** [mask n] = all-ones table on [n] variables. *)

val var : int -> int -> t
(** [var k n] — projection of variable [k] among [n] variables. *)

val const : bool -> int -> t

val not_ : int -> t -> t
(** Complement within [n] variables: [not_ n tt]. *)

val and_ : t -> t -> t

val or_ : t -> t -> t

val xor : t -> t -> t

val maj : t -> t -> t -> t
(** Bitwise 3-input majority. *)

val eval : t -> bool array -> bool
(** [eval tt inputs] looks up the function value. *)

val of_fun : int -> (bool array -> bool) -> t
(** [of_fun n f] tabulates [f] over all [2^n] assignments. *)

val depends_on : int -> t -> int -> bool
(** [depends_on n tt k] — does the function depend on variable [k]? *)

val to_string : int -> t -> string
(** Binary string, LSB (assignment 0) first. *)
