(** Logic-synthesis stage driver: AOI netlist → majority conversion →
    splitter/buffer insertion → legal AQFP netlist, with the
    statistics the paper reports in Table II.

    With [~check:true], every handoff is gated by the static
    verifier's equivalence guard ({!Equiv.check_pair}): AOI → chosen
    MAJ netlist, and MAJ → buffered AQFP netlist. The resulting
    [EQ-*] diagnostics ride along in the report (empty when the guard
    is off or both handoffs prove clean). *)

type report = {
  jjs : int;  (** Josephson junctions, all cells included *)
  nets : int;  (** point-to-point connections *)
  delay : int;  (** clock phases *)
  opt_stats : Opt.stats;  (** AOI pre-optimization *)
  maj_stats : Aoi_to_maj.stats;
  ins_stats : Insertion.stats;
  guard_diags : Diag.t list;
      (** stage-equivalence guard findings ([EQ-*]); empty unless
          [run ~check:true] *)
}

val run :
  ?check:bool ->
  ?engine:Equiv.engine ->
  ?cache:string Memo.t ->
  Netlist.t ->
  Netlist.t * report
(** Synthesize an AOI netlist into a placement-ready AQFP netlist:
    AOI optimization ({!Opt}), majority conversion
    ({!Aoi_to_maj.convert_with_stats}: cut cover vs per-gate, cheaper
    wins), splitter/buffer insertion ({!Insertion.run}: per-edge
    chains vs shared ladders, cheaper wins). [check] (default false)
    runs the per-output equivalence guards at each handoff with the
    given {!Equiv.engine} (default [`Auto]); [cache] memoizes proven
    verdicts across runs. Raises [Invalid_argument] if the input
    contains non-AOI gates. *)

val run_quiet : Netlist.t -> Netlist.t
(** [run] without the report. *)

val pp_report : Format.formatter -> report -> unit
