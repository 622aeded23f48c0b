(** Determinism sanitizer and data-race detector for the
    {!Parallel} substrate.

    The flow's contract is byte-identical output at any [--jobs]; the
    end-to-end jobs=1-vs-4 comparison tests enforce it but can neither
    localize a violation nor catch one that needs an unlucky schedule.
    This module attacks the contract from inside a run:

    - {e schedule fuzzing}: a seeded permutation of each batch's chunk
      execution order (the combine order never moves, so any output
      difference under a permuted schedule is a proven determinism
      bug);
    - {e write-set race detection}: {!wrap}ped array views attribute
      every access to the chunk that made it, reporting ownership
      violations ([DSAN-OWN-01]) and cross-chunk write-write /
      read-write overlaps ([DSAN-WW-01] / [DSAN-RW-01]) with witnesses
      (call-site label, chunk ids, index);
    - nested-call detection ([DSAN-NEST-01]) and stale-arena-epoch
      checks ([DSAN-EPOCH-01], via {!record}).

    All checks are gated on one atomic flag ({!on}); with the
    sanitizer off a tracked access costs a single load-and-branch and
    the flow's output is untouched. *)

(** {1 Findings} *)

type finding = {
  f_rule : string;  (** stable [DSAN-*] rule id *)
  f_site : string;  (** [Parallel] call-site label, or ["-"] *)
  f_array : string;  (** tracked-array label, or ["-"] *)
  f_chunk_a : int;  (** first involved chunk, or [-1] *)
  f_chunk_b : int;  (** second involved chunk, or [-1] *)
  f_index : int;  (** witnessing array index, or [-1] *)
  f_detail : string;  (** human-readable explanation *)
}

val compare_finding : finding -> finding -> int

val finding_to_string : finding -> string
(** One line, e.g.
    ["DSAN-WW-01 at drc.tiles array tile.bins chunks 2/5 index 17: …"]. *)

val to_diag : finding -> Diag.t
(** Render as a structured diagnostic ([DSAN-NEST-01] is a warning,
    everything else an error). *)

(** {1 Session control} *)

val start : ?seed:int -> ?fuzz:bool -> unit -> unit
(** Activate the sanitizer: install the [Parallel] hooks and arm the
    tracked-array checks. [fuzz] (default [true]) enables the seeded
    schedule permutation. Raises [Invalid_argument] if a session is
    already active. *)

val stop : unit -> finding list
(** Deactivate and return the session's findings, sorted and deduped.
    Idempotent ([[]] when no session is active). *)

val on : unit -> bool
(** Fast-path gate: [true] between {!start} and {!stop}. *)

val findings : unit -> finding list
(** Findings accumulated so far in the active session. *)

val record :
  rule:string ->
  ?site:string ->
  ?array_label:string ->
  ?chunk:int ->
  ?index:int ->
  string ->
  unit
(** Report a finding from instrumented flow code (e.g. the router's
    arena epoch check emits [DSAN-EPOCH-01] through this). Deduped per
    (rule, site, array, chunk); a no-op when no session is active. *)

val with_sanitizer :
  ?seed:int -> ?fuzz:bool -> (unit -> 'a) -> 'a * finding list
(** [with_sanitizer f] runs [f] under {!start}/{!stop} and returns its
    result with the findings. The session is stopped even if [f]
    raises (the findings are then discarded with the exception). *)

val schedule_check :
  ?seed:int -> ?schedules:int -> equal:('a -> 'a -> bool) -> (unit -> 'a) -> 'a * finding list
(** [schedule_check ~equal f] runs [f] once un-fuzzed as the baseline,
    then [schedules] (default 4) more times under distinct seeded
    schedule permutations, comparing each result to the baseline with
    [equal]. Any difference yields a [DSAN-SCHED-01] finding; race
    findings from all runs are merged in. Returns the baseline result
    and the combined findings. *)

(** {1 Tracked array views} *)

type mode =
  | Slice
      (** chunks own exactly their static [\[lo, hi)] index range:
          a write outside it is an immediate [DSAN-OWN-01] *)
  | Read_only
      (** shared input: any write from inside a chunk is an immediate
          [DSAN-OWN-01] *)
  | Footprint
      (** exact per-chunk read/write sets, analyzed at batch end for
          cross-chunk WW ([DSAN-WW-01]) and RW ([DSAN-RW-01])
          overlaps *)

type 'a t
(** An ownership-checked view of an ['a array]. The view aliases the
    underlying array (no copy); {!get}/{!set} check the sanitizer flag
    and delegate. *)

val wrap : label:string -> mode:mode -> 'a array -> 'a t

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
