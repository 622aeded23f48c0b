(** Versioned binary codecs for every stage handoff of the flow.

    One {!codec} per artifact kind — its frame kind and version, and
    [encode] / [decode] built from a single {!Codec.t} payload
    description, so the reader cannot drift from the writer: the
    AOI/MAJ/AQFP netlist IR, the technology, the placement problem
    (with its technology and cell library embedded), the placement /
    routing / STA / energy / synthesis / resynthesis / checker
    reports, the DRC violation list, bare diagnostic lists and the
    assembled layout. {!Db} stores the frames; {!Codec.save_file} and
    {!Codec.load_file} move them through files.

    Guarantees (tested over the bundled benchmarks; the bytes of
    every kind are also pinned by MD5):
    - {e exact round-trip}: [decode (encode x)] rebuilds a value whose
      re-encoding is byte-identical to the first encoding — floats
      travel as IEEE-754 bit patterns, never through text;
    - {e loud failure}: corrupt, truncated or version-skewed bytes
      produce a structured [DB-*] {!Diag.t} error (see {!Codec}),
      never an exception escape;
    - {e versioning}: each kind carries its own format version;
      bumping it invalidates old artifacts (and, transitively, every
      cache entry keyed on them). *)

type 'a codec = {
  kind : string;  (** frame kind tag, e.g. ["netlist"] *)
  version : int;
  encode : 'a -> string;  (** sealed frame bytes *)
  decode : string -> ('a, Diag.t) result;
}

val netlist : Netlist.t codec
val tech : Tech.t codec
val problem : Problem.t codec
val placement : Placer.result codec
val routing : Router.result codec
val layout : Layout.t codec
val sta : Sta.report codec
val energy : Energy.report codec
val synth_report : Synth_flow.report codec
val resyn_report : Resyn.report codec
val check_report : Check.report codec
val drc : Diag.t list codec

val diags : Diag.t list codec
(** A bare diagnostic list — the payload of the [sf_absint] memo
    entries in the proof store. *)
