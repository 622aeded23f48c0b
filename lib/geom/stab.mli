(** Interval stabbing: which of n closed intervals contain a point /
    meet a range? Build O(n log n), query O(log n + k). Used by the DRC
    enclosure and end-of-line rules to find the metal shapes whose
    x-extent reaches a probe region. *)

type t

val build : (int * int) array -> t
(** Intervals are closed [(lo, hi)]; reversed endpoints are swapped.
    Reported values are indices into the build array. *)

val query : t -> int -> int -> (int -> unit) -> unit
(** Every interval intersecting the closed range [lo, hi]. *)
