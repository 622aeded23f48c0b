(** Indexed binary max-heap over small integer keys.

    The heap orders keys by a caller-supplied strict [better] relation
    and tracks each key's slot, so membership tests, re-ordering after
    a priority change ([update]) and removal of the best key are all
    O(log n) with no lazy duplicates. The SAT solver's VSIDS decision
    order is the primary client: [better] reads the activity array and
    breaks ties on the lower key, which makes every decision sequence
    deterministic regardless of how activities were bumped.

    [better] must be a strict total order while a key is in the heap;
    if the underlying priorities change, call {!update} (or
    re-[insert]) for the affected key before relying on [pop]. *)

type t

val create : better:(int -> int -> bool) -> t
(** [create ~better] — an empty heap; [better a b] means [a] pops
    before [b]. The relation is read at every sift, so it may consult
    mutable state (e.g. an activity array) as long as {!update} is
    called when that state changes. *)

val mem : t -> int -> bool

val insert : t -> int -> unit
(** Add a key (no-op when already present). Keys are non-negative and
    the heap grows to accommodate any key value. *)

val pop : t -> int option
(** Remove and return the best key. *)

val update : t -> int -> unit
(** Restore heap order around a key whose priority changed (no-op when
    the key is not in the heap). *)
