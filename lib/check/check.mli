(** Pass-manager for the static-verification subsystem ([sf_check]).

    A {e pass} is a named analysis producing {!Diag.t} diagnostics;
    a {e report} is the ordered result of running a pass pipeline.
    Pass order is fixed by the caller and diagnostics keep their
    generation order within a pass. One loop shards over {!Parallel}
    and combines in input order — {!Place_audit}'s row scans — and
    the rest run serially, so a report renders byte-identically at
    any [--jobs] value.

    Pass families shipped by this library:
    - {!Lint} — structural netlist lints ([NL-*]);
    - {!Aqfp_check} — AQFP legality after buffer/splitter insertion
      ([AQFP-*]);
    - {!Equiv} — per-output formal equivalence guards ([EQ-*]);
    - {!Place_audit} — placement audit ([PL-*]);
    - {!Lvs} — layout-vs-schematic connectivity diff ([LVS-*]).

    The flow driver ([Flow.run ~check:true]) and the [superflow
    check] CLI subcommand assemble these into the standard gate. *)

type tier = Fast | Full
(** Engine tier of a gate run. [Fast] (the default flow tier) runs
    the always-on analyses — the [sf_absint] dataflow passes included
    — and skips the AIG/SAT-backed lints; [Full] (selected by
    [--tier full]) adds them. The tier is recorded in the report
    {!report.header}. *)

val tier_name : tier -> string
(** ["fast"] / ["full"]. *)

val tier_of_string : string -> (tier, string) result
(** The inverse of {!tier_name}; anything else is an [Error] naming
    the accepted values. *)

type pass

val pass : string -> (unit -> Diag.t list) -> pass
(** [pass name run] — a deferred analysis step. *)

val of_diags : string -> Diag.t list -> pass
(** A pass wrapping already-computed diagnostics (e.g. the synthesis
    stage's equivalence guards, or the flow's DRC violations). *)

type pass_stat = {
  pass_name : string;
  n_diags : int;
  seconds : float;  (** wall-clock runtime of this pass *)
}

type report = {
  header : (string * string) list;
      (** deterministic key/value context rendered before the
          diagnostics (e.g. [("tier", "fast"); ("engine", "auto")]) *)
  diags : Diag.t list;  (** all diagnostics, in pass order *)
  stats : pass_stat list;  (** one entry per pass, in run order *)
}

val run : ?header:(string * string) list -> pass list -> report
(** Run every pass in order, timing each. A pass that raises is
    converted into a single [CHECK-CRASH-01] error diagnostic rather
    than aborting the pipeline. [header] (default empty) is carried
    into the report verbatim. *)

val ok : report -> bool
(** True iff no error-severity diagnostic was produced. *)

val render_text : report -> string
(** One line per diagnostic plus a summary line. Deterministic: no
    timings, no machine-dependent content. *)

val render_json : report -> string
(** JSON-lines: one object per diagnostic, then one
    [{"summary": ...}] object with severity counts. Deterministic. *)

val total_seconds : report -> float

val pp_summary : Format.formatter -> report -> unit
(** [check: E error(s), W warning(s), I info note(s) across N passes]. *)
