(** Single-pass Parsetree traversal collecting the syntactic facts the
    SL-* rules evaluate.

    The scan is purely syntactic: module paths are matched as written
    ([Hashtbl.iter] is recognized, an aliased [module H = Hashtbl] is
    not), which keeps the analyzer honest about what it can and cannot
    see — the determinism contract asks call sites to be greppable,
    and the rules enforce the greppable form. *)

type fact =
  | Hashtbl_iter of string
      (** [Hashtbl.iter]/[fold]/[to_seq*] mention — hash-bucket order *)
  | Sort_call  (** a [List]/[Array] sort function mention *)
  | Time_call of string  (** wall-clock / nondeterministic-seed primitive *)
  | Marshal_use of string  (** any [Marshal.*] mention *)
  | Poly_use of string
      (** polymorphic [compare] / [Stdlib.compare] / [Hashtbl.hash] *)
  | Global_mut of string * string
      (** module-level [let name = ref/Hashtbl.create/Buffer.create/...]:
          binding name, creator path *)
  | Catch_all  (** [with _ ->] (or [exception _] match case) *)
  | Unlabeled_parallel of string
      (** a [Parallel.<fn>] application with no [~label] argument *)
  | Parallel_label of string
      (** the string literal passed as [~label] to a [Parallel.<fn>]
          application: the site's name in the call-site inventory *)
  | Print_call of string  (** stdout printer mention *)
  | Exit_call  (** [exit] mention *)
  | Rule_string of string
      (** a string literal shaped like a diagnostic rule id *)

type site = {
  fact : fact;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  item : int;  (** ordinal of the enclosing top-level structure item *)
}

val scan : Parsetree.structure -> site list
(** Sites in traversal order. *)
