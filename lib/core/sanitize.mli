(** Divergence localization for the determinism contract
    ([superflow sanitize]).

    Executes the stage graph repeatedly under {!Dsan.with_sanitizer}
    — a jobs=1 un-fuzzed baseline, then [schedules] seeded
    chunk-order permutations at jobs=1 and at jobs=[k] — and compares
    each run's {e fingerprint}: the digests of {!Flow.artifacts}, the
    bytes a database would store for the run, with volatile wall-clock
    fields (placement/routing [runtime_s], check pass [seconds])
    zeroed. A differing fingerprint
    is localized to its first divergent (stage, slot) by one scan of
    the two digest lists and reported as
    [DSAN-SCHED-01] (differs at equal jobs under a permuted schedule)
    or [DSAN-DIVERGE-01] (differs between jobs=1 and jobs=k).

    No database is attached to the runs: a cache hit would replay the
    baseline's artifacts and mask the divergence being hunted. *)

type slot = {
  sl_stage : Flow.stage;
  sl_name : string;  (** the stage's database slot, e.g. ["problem"] *)
  sl_digest : string;  (** hex digest of the artifact's codec bytes *)
}

type report = {
  findings : Dsan.finding list;  (** sorted, deduped; [[]] = clean *)
  runs : int;  (** flow executions performed *)
  slots : int;  (** artifact slots in the baseline fingerprint *)
}

val fingerprint : Flow.staged -> slot list
(** Digests of {!Flow.artifacts} in stage and slot order, volatile
    fields zeroed. *)

val first_divergence : slot list -> slot list -> (int * slot option) option
(** [first_divergence base trial] — [None] when byte-identical;
    [Some (k, slot)] gives the first disagreeing index and the
    baseline slot there ([None] slot = one fingerprint is a strict
    prefix of the other). *)

val run :
  ?config:Flow.config ->
  ?to_stage:Flow.stage ->
  ?seed:int ->
  ?schedules:int ->
  ?jobs:int ->
  Netlist.t ->
  (report, Diag.t) result
(** Sanitize one design under [config] (default {!Flow.default}).
    [seed] (default 0) seeds the schedule fuzzer, [schedules]
    (default 4) counts permutations per arm, [jobs] (default 4) is
    the parallel arm's pool size. Restores the previous [Parallel]
    job count before returning. [Error] reports the first flow
    failure (the sanitizer cannot conclude anything from a crashed
    run). *)

val render_text : report -> string
(** Run summary, one finding per line, and a clean/finding verdict. *)
