(** Disjoint-set forest over integer elements [0 .. n-1], with path
    compression and union by rank. Used for connectivity checks in the
    router and DRC net extraction. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> unit
(** Merge the two sets. No-op if already merged. *)
