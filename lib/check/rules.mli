(** The single registry of every diagnostic rule id in the flow.

    One {!entry} per stable rule id: its default severity, the pass
    (or subsystem) that owns it, and a one-line explanation. The
    registry is the source of truth for:

    - [superflow explain <RULE-ID>] — the CLI help for a diagnostic;
    - the rule-catalog section of [docs/ARCHITECTURE.md], generated
      by {!catalog_markdown} (via [superflow explain --all
      --markdown] / [make explain-all]);
    - the [sf_mlint] SL-RULEID-01 rule, which fails any rule-id
      literal in [lib/] or [bin/] that has no entry here.

    Keep it sorted and complete: a rule id used anywhere in [lib/]
    without a registry entry is a build-gate failure, not a style
    nit. *)

type entry = {
  id : string;  (** stable rule id, e.g. ["AQFP-PHASE-01"] *)
  severity : Diag.severity;  (** default severity when it fires *)
  pass : string;  (** owning pass / subsystem, e.g. ["aqfp"] *)
  doc : string;  (** one-line explanation *)
}

val all : entry list
(** Every registered rule, sorted by id. *)

val find : string -> entry option

val catalog_markdown : unit -> string
(** The generated rule catalog: one markdown table grouped by owning
    pass, exactly what [docs/ARCHITECTURE.md] embeds. *)

val explain : string -> (string, string) result
(** Human-readable explanation of one rule id ([Error] text names the
    unknown id). *)

val self_check : unit -> string list
(** Registry meta-lint: duplicate ids, unsorted entries, empty docs.
    Empty list = healthy. *)
