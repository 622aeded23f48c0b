(** One source file under analysis: raw text, a line table, and the
    [(* sl-ignore: SL-XXX-NN reason *)] suppression comments.

    Suppressions are purely lexical: a marker on line [l] suppresses
    the named rules on line [l] (trailing comment) and on line
    [l + 1] (comment on its own line above the offending code). The
    reason text after the rule ids is free-form and encouraged — it is
    what a reviewer reads instead of the deleted finding. *)

type t = {
  path : string;  (** root-relative, '/'-separated *)
  text : string;
  lines : string array;  (** 0-based storage; use {!line} (1-based) *)
  supp : string list array;  (** rules suppressed *at* each 1-based line *)
}

val of_string : path:string -> string -> t

val load : root:string -> rel:string -> (t, string) result
(** Read [root/rel]. [Error] carries the system message. *)

val snippet : t -> line:int -> string
(** The trimmed source line, truncated to 96 chars — the witness text
    embedded in a diagnostic. *)

val suppressed : t -> rule:string -> line:int -> bool
(** Is [rule] suppressed at [line] (marker on the same or the
    preceding line)? *)
