type report = {
  jjs : int;
  nets : int;
  delay : int;
  opt_stats : Opt.stats;
  maj_stats : Aoi_to_maj.stats;
  ins_stats : Insertion.stats;
  guard_diags : Diag.t list;
}

let run ?(check = false) ?(engine = `Auto) ?cache aoi =
  let aoi, opt_stats = Opt.optimize_with_stats aoi in
  let maj, maj_stats = Aoi_to_maj.convert_with_stats aoi in
  let aqfp, ins_stats = Insertion.run maj in
  (* equivalence guards at the two semantics-preserving handoffs *)
  let guard_diags =
    if not check then []
    else
      Equiv.check_pair ~engine ?cache ~stage:"aoi->maj" aoi maj
      @ Equiv.check_pair ~engine ?cache ~stage:"maj->aqfp" maj aqfp
  in
  let report =
    {
      opt_stats;
      jjs = ins_stats.Insertion.jj;
      nets = ins_stats.Insertion.nets;
      delay = ins_stats.Insertion.delay;
      maj_stats;
      ins_stats;
      guard_diags;
    }
  in
  (aqfp, report)

let run_quiet aoi = fst (run aoi)

let pp_report ppf r =
  Format.fprintf ppf "JJs=%d nets=%d delay=%d (maj gates=%d, splitters=%d, buffers=%d)"
    r.jjs r.nets r.delay r.maj_stats.Aoi_to_maj.maj_gates
    r.ins_stats.Insertion.splitters r.ins_stats.Insertion.buffers
