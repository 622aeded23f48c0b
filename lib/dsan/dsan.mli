(** Determinism sanitizer for the {!Parallel} substrate.

    The flow's contract is byte-identical output at any [--jobs]; the
    end-to-end jobs=1-vs-4 comparison tests enforce it but can neither
    localize a violation nor catch one that needs an unlucky schedule.
    This module attacks the contract from inside a run:

    - {e schedule fuzzing}: a seeded permutation of each batch's chunk
      execution order (the combine order never moves, so any output
      difference under a permuted schedule is a proven determinism
      bug; {!Sanitize} compares the runs);
    - nested-call detection ([DSAN-NEST-01]) and stale-arena-epoch
      checks ([DSAN-EPOCH-01], via {!record}).

    All checks are gated on one atomic flag ({!on}); with the
    sanitizer off an instrumented check costs a single load-and-branch
    and the flow's output is untouched. *)

(** {1 Findings} *)

type finding = {
  f_rule : string;  (** stable [DSAN-*] rule id *)
  f_site : string;  (** [Parallel] call-site label, or ["-"] *)
  f_array : string;  (** array or artifact label, or ["-"] *)
  f_chunk : int;  (** involved chunk, or [-1] *)
  f_index : int;  (** witnessing index, or [-1] *)
  f_detail : string;  (** human-readable explanation *)
}

val compare_finding : finding -> finding -> int

val finding_to_string : finding -> string
(** One line, e.g.
    ["DSAN-EPOCH-01 at route.pairs array search.arena chunk 3 index 42: …"]. *)

val to_diag : finding -> Diag.t
(** Render as a structured diagnostic ([DSAN-NEST-01] is a warning,
    everything else an error). *)

(** {1 Sessions} *)

val with_sanitizer :
  ?seed:int -> ?fuzz:bool -> (unit -> 'a) -> 'a * finding list
(** [with_sanitizer f] installs the [Parallel] hooks, runs [f] and
    returns its result with the session's findings, sorted and
    deduped. [fuzz] (default [true]) enables the schedule permutation
    seeded by [seed] (default 0). The session is stopped even if [f]
    raises (the findings are then discarded with the exception).
    Raises [Invalid_argument] if a session is already active. *)

val on : unit -> bool
(** Fast-path gate: [true] while a session is active. *)

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
