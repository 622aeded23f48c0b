(** SuperFlow: the end-to-end RTL-to-GDS driver (paper Fig. 3).

    Pipeline: AOI netlist (from the Verilog frontend, a [.bench]
    file, or a generator) → majority-based logic synthesis with
    buffer/splitter insertion → row-wise timing-aware placement →
    max-wirelength buffer-line insertion → layer-wise A* routing →
    layout generation → DRC, with an automatic fix loop (violating
    regions get extra routing space and are re-routed) → GDSII.

    Every stage's report is retained so callers (CLI, benches, tests)
    can reproduce the paper's tables from one [run].

    The flow is configured by one {!config} record: {!run_staged}
    takes it whole, {!run} overrides the handful of fields its callers
    vary, and {!key_params} says which field enters which stage's
    cache key. Input front ends stay outside:
    [Verilog.parse src |> Result.map Flow.run] (or
    [Bench_parser.parse_file path]). *)

type times = {
  synth_s : float;
  resyn_s : float;  (** resynthesis stage; ~0 at [--resyn-effort none] *)
  place_s : float;
  route_s : float;
  layout_s : float;
  check_s : float;  (** static-verification gate; 0 when disabled *)
}

type result = {
  aqfp_netlist : Netlist.t;  (** after buffer-line insertion *)
  problem : Problem.t;  (** final placed problem *)
  routing : Router.result;
  layout : Layout.t;
  violations : Diag.t list;
      (** residual DRC diagnostics after the fix loop, sorted with
          {!Diag.compare} (empty = clean signoff) *)
  synth_report : Synth_flow.report;
  resyn_report : Resyn.report;
      (** the resynthesis stage's QoR deltas and CEC statistics; at
          the default [Off] effort the before/after metrics coincide *)
  placement : Placer.result;
  sta : Sta.report;
  energy : Energy.report;  (** adiabatic energy estimate of the design *)
  buffer_lines : int;
  drc_fix_rounds : int;
  check_report : Check.report option;
      (** the [sf_check] gate's findings ([run ~check:true] only):
          netlist lints, AQFP legality, synthesis equivalence guards,
          placement audit, route connectivity, DRC and LVS-lite *)
  times : times;
}

type config = {
  tech : Tech.t;
  algorithm : Placer.algorithm;  (** placement algorithm *)
  router : Router.algorithm;
  seed : int;  (** placement seed *)
  equiv_engine : Equiv.engine;
      (** proof engine of the synthesis/resynthesis equivalence guards;
          recorded in the check report header *)
  check_tier : Check.tier;  (** the verification gate's tier *)
  resyn_effort : Resyn.effort;  (** the resynthesis stage's effort *)
}
(** Everything that selects what the flow computes. The worker-pool
    size is not in it: results are bit-identical at any [--jobs]
    (set it with {!Parallel.set_jobs}). *)

val default : config
(** [Tech.default], [Placer.Superflow], [Router.Sequential], seed 1,
    engine [`Auto] (BDD first, SAT on blow-up), [Check.Fast] (the
    [sf_absint] dataflow tier; [Full] adds the AIG/SAT-backed lints),
    [Resyn.Off] (identity resynthesis). *)

val diag_memo : Db.t -> Diag.t list Memo.t
(** Diagnostic-list memo wired to the database's proof store — the
    DRC tile verdicts the [route] stage (and [superflow drc]) attach so
    an ECO rerun re-checks only the tiles whose geometry changed, and
    the absint findings of the check gate. *)

val check_passes :
  ?tier:Check.tier ->
  ?absint_cache:Diag.t list Memo.t ->
  result ->
  Check.pass list
(** The standard verification pipeline over a finished flow result —
    what [run ~check:true] and [superflow check] execute: [lint],
    the five [absint-*] dataflow passes, [aqfp], [equiv] (from the
    synthesis guards), [place], [route], [drc], [lvs], in that
    order. [tier] (default [Check.Fast]) gates the AIG/SAT-backed
    lints; [absint_cache] memoizes the dataflow findings (the flow
    wires it to the database's proof store). Exposed so callers can
    re-run or extend the gate. *)

(** {1 The stage graph}

    The flow is an explicit six-stage graph — [synth → resyn → place
    → route → layout → check] — and each stage is independently
    cacheable in a {!Db.t} design database. A stage's cache key is the
    hash of its input-artifact hashes followed by {!key_params}. *)

type stage = Synth | Resyn | Place | Route | Layout | Check

val stages : stage list
(** In dependency order. *)

val stage_name : stage -> string
val stage_of_string : string -> (stage, string) Stdlib.result
val stage_rank : stage -> int

val key_params : guard:bool -> config -> stage -> string list
(** Every config-derived component of [stage]'s cache key, in key
    order. [guard] is whether the equivalence guards run, i.e.
    whether the flow ends at the [check] stage. *)

type outcome =
  | Cached of float  (** loaded from the database, in [s] seconds *)
  | Computed of float  (** executed, in [s] seconds *)

type staged = {
  outcomes : (stage * outcome) list;  (** stages run, in order *)
  db_warnings : Diag.t list;
      (** corrupt cache entries healed by recomputation *)
  synth : (Netlist.t * Synth_flow.report) option;
  resyned : (Netlist.t * Resyn.report) option;
      (** resynthesized AQFP netlist and the stage report *)
  placed : (Netlist.t * Problem.t * Placer.result * int) option;
      (** buffered AQFP netlist, placed problem, placement report,
          buffer lines *)
  routed : (Router.result * Problem.t * Diag.t list * int) option;
      (** routing, problem with final row gaps, residual violations,
          fix rounds *)
  built : (Layout.t * Sta.report * Energy.report) option;
  checked : Check.report option;
  result : result option;  (** assembled when [to_stage >= Layout] *)
}

val run_staged :
  ?config:config ->
  ?db:Db.t ->
  ?from_stage:stage ->
  ?to_stage:stage ->
  Netlist.t ->
  (staged, Diag.t) Stdlib.result
(** Run a slice of the stage graph under [config] (default
    {!default}), caching through [db] when given. Writes no files.

    Each stage first looks itself up in the database (key as above):
    on a hit its artifacts are loaded instead of recomputed and its
    outcome is [Cached]; on a miss it executes and persists its
    outputs. Without [db], every stage is [Computed]. With [db], the
    equivalence proofs, the resynthesis window-CEC verdicts, the absint
    findings and the DRC tile verdicts also memoize into the
    database's proof store ({!Db.put_proof}), so a stage that misses
    re-proves nothing already on disk.

    [from_stage] (default [Synth]) asserts that every earlier stage
    is already in the database — a miss there fails with [DB-FROM-01]
    rather than silently recomputing; [to_stage] (default [Layout])
    stops the graph early. [to_stage = Check] switches the synthesis
    equivalence guards on, exactly like [run ~check:true]. Errors:
    [DB-RANGE-01] when [from_stage] is after [to_stage] or
    [from_stage] is given without [db]. *)

val artifacts : staged -> (stage * string * string) list
(** What the database stores for the stages [staged] holds, in stage
    and slot order: [(stage, slot, bytes)]. [bytes] is the sealed
    artifact frame of an object slot (e.g. ["aqfp0"], ["placement"],
    ["drc"]) or the decimal text of an int scalar (["buffer_lines"],
    ["fix_rounds"]). One slot description per stage produces these,
    stores them and loads them back. *)

val run :
  ?algorithm:Placer.algorithm ->
  ?router:Router.algorithm ->
  ?seed:int ->
  ?resyn_effort:Resyn.effort ->
  ?jobs:int ->
  ?check:bool ->
  ?db:Db.t ->
  ?gds_path:string ->
  ?def_path:string ->
  Netlist.t ->
  result
(** Run the full flow on an AOI netlist: {!run_staged} under
    {!default} with the given fields overridden. [jobs] sets the
    domain-pool size for the parallel stages ({!Parallel.set_jobs});
    [check] (default false) runs the {!Check} static-verification
    gate over every stage handoff and stores its report; [db]
    attaches a design database so stages are cached; [gds_path]
    writes the final GDSII stream; [def_path] the DEF-style
    placement/routing dump. *)

val version : string

val pp_summary : Format.formatter -> result -> unit
