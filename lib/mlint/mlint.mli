(** [sf_mlint] — the self-hosted static analyzer that turns the flow's
    determinism contract (docs/ARCHITECTURE.md) from prose into a
    merge gate.

    Every [lib/**/*.ml] and [bin/*.ml] file is parsed with
    [compiler-libs] ([Parse.implementation]) and checked against the
    SL-* rules; [bench/**/*.ml] is parsed too but held only to
    SL-TIME-01 (and SL-PARSE-01). The rules cover unordered [Hashtbl]
    iteration feeding outputs,
    wall-clock and nondeterministic-seed primitives outside
    [Wallclock], [Marshal] bypassing the versioned [Codec] frames,
    polymorphic compares in stage libraries, unregistered module-level
    mutable state, exception-swallowing catch-alls, unlabeled
    [Parallel] call sites, stdout prints and [exit] in libraries, and
    diagnostic-id literals missing from the [Rules] registry.

    Findings render through the {!Diag} machinery (one line of text or
    JSON each, [file:line:col] in the message, the offending source
    line as the witness). Per-site suppression is a
    [(* sl-ignore: SL-XXX-NN reason *)] comment on or above the
    offending line; grandfathered findings live in a committed
    baseline file. Only error-severity findings gate. *)

type finding = {
  rule : string;
  severity : Diag.severity;
  path : string;  (** root-relative, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
  snippet : string;  (** the trimmed offending source line *)
}

type report = {
  findings : finding list;  (** unsuppressed, unbaselined, sorted *)
  errors : int;  (** error-severity findings among [findings] *)
  warnings : int;
  suppressed : int;  (** findings silenced by [sl-ignore] comments *)
  baselined : int;  (** findings silenced by the baseline file *)
  stale_baseline : string list;  (** baseline entries that matched nothing *)
  files : int;  (** files scanned *)
}

val rules : (string * Diag.severity) list
(** Every SL-* rule id with its severity, sorted by id. Each must have
    a matching entry in the [sf_check] [Rules] registry (and vice
    versa for the ["mlint"] pass) — [test_mlint.ml] locks the two
    together. *)

val rule_ids : string list

val check_source :
  known_ids:string list -> Sl_source.t -> finding list * int
(** Analyze one loaded source; returns the unsuppressed findings (in
    source order) and the count of sl-ignore-suppressed ones.
    [known_ids] feeds SL-RULEID-01. A path under [bench/] keeps only
    its SL-TIME-01 and SL-PARSE-01 findings. *)

val run :
  known_ids:string list ->
  ?baseline:string list ->
  root:string ->
  unit ->
  (report, string) result
(** Analyze [root/lib/**/*.ml], [root/bin/*.ml] and, for SL-TIME-01
    only, [root/bench/**/*.ml]. [baseline] is the
    raw line list of a baseline file ([SL-XXX-NN path:line] entries;
    blank and [#] lines ignored). [Error] means [root] has no [lib/]
    directory. *)

val load_baseline : string -> (string list, string) result
(** Read a baseline file into raw lines; missing file = [Ok []]. *)

val baseline_lines : finding list -> string list
(** Serialize the error-severity findings as baseline entries
    (warnings never gate, so they are never grandfathered). *)

val to_diag : finding -> Diag.t
val render_text : finding -> string
val render_json : finding -> string

val summary : report -> string
(** One [# mlint: ...] counters line (stderr material, so stdout stays
    byte-comparable across runs). *)
