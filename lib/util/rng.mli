(** Deterministic pseudo-random generator (splitmix64 core).

    All randomized parts of the flow (synthetic ISCAS profiles, placer
    perturbations, property-test inputs) draw from an explicit [t] so
    that every experiment is reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] — same seed, same stream, on every platform. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bits64 : t -> int64
(** Next raw 64-bit state output. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
