(** Growable array (OCaml 5.1 has no [Dynarray]; this is the subset the
    flow needs). Elements are stored contiguously; indices are stable.
    Not thread-safe. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** Append an element; returns its index. *)

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array

val clear : 'a t -> unit
