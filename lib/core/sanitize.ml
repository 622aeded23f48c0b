(* Divergence localization for the determinism contract.

   A sanitized run executes the stage graph repeatedly — once at
   jobs=1 with the schedule fuzzer off (the baseline), then under N
   seeded schedule permutations at jobs=1 and at jobs=k — with the
   Dsan race detector armed throughout. Every run is fingerprinted as
   the ordered list of its stage artifacts' codec bytes (volatile
   wall-clock fields zeroed first: they differ between any two runs
   and would drown the signal); a fingerprint that differs from the
   baseline is localized to the first divergent (stage, slot) by
   binary search over the prefix-equality predicate and reported as
   DSAN-SCHED-01 (schedule-dependent at equal jobs) or
   DSAN-DIVERGE-01 (jobs-dependent).

   No database is ever attached: a cache hit would replay the
   baseline's artifacts and hide the very divergence being hunted. *)

type slot = { sl_stage : Flow.stage; sl_name : string; sl_digest : string }

type report = {
  findings : Dsan.finding list;  (** sorted, deduped *)
  runs : int;  (** flow executions performed *)
  slots : int;  (** artifact slots in the baseline fingerprint *)
}

let digest_of codec v = Digest.to_hex (Digest.string (codec.Artifact.encode v))

(* wall-clock fields are honest outputs but poison byte comparison *)
let still_placement (p : Placer.result) = { p with Placer.runtime_s = 0.0 }

let still_routing (r : Router.result) = { r with Router.runtime_s = 0.0 }

let still_check (r : Check.report) =
  {
    r with
    Check.stats =
      List.map (fun s -> { s with Check.seconds = 0.0 }) r.Check.stats;
  }

let fingerprint (st : Flow.staged) : slot list =
  let acc = ref [] in
  let slot stage name digest =
    acc := { sl_stage = stage; sl_name = name; sl_digest = digest } :: !acc
  in
  (match st.Flow.synth with
  | None -> ()
  | Some (nl, rep) ->
      slot Flow.Synth "netlist" (digest_of Artifact.netlist nl);
      slot Flow.Synth "report" (digest_of Artifact.synth_report rep));
  (match st.Flow.resyned with
  | None -> ()
  | Some (nl, rep) ->
      slot Flow.Resyn "netlist" (digest_of Artifact.netlist nl);
      slot Flow.Resyn "report" (digest_of Artifact.resyn_report rep));
  (match st.Flow.placed with
  | None -> ()
  | Some (nl, p, pr, buffer_lines) ->
      slot Flow.Place "netlist" (digest_of Artifact.netlist nl);
      slot Flow.Place "problem" (digest_of Artifact.problem p);
      slot Flow.Place "report"
        (digest_of Artifact.placement (still_placement pr));
      slot Flow.Place "buffer-lines"
        (Digest.to_hex (Digest.string (string_of_int buffer_lines))));
  (match st.Flow.routed with
  | None -> ()
  | Some (r, p, viols, rounds) ->
      slot Flow.Route "routing" (digest_of Artifact.routing (still_routing r));
      slot Flow.Route "problem" (digest_of Artifact.problem p);
      slot Flow.Route "violations" (digest_of Artifact.diags viols);
      slot Flow.Route "fix-rounds"
        (Digest.to_hex (Digest.string (string_of_int rounds))));
  (match st.Flow.built with
  | None -> ()
  | Some (l, sta, energy) ->
      slot Flow.Layout "layout" (digest_of Artifact.layout l);
      slot Flow.Layout "sta" (digest_of Artifact.sta sta);
      slot Flow.Layout "energy" (digest_of Artifact.energy energy));
  (match st.Flow.checked with
  | None -> ()
  | Some rep ->
      slot Flow.Check "report"
        (digest_of Artifact.check_report (still_check rep)));
  List.rev !acc

(* first index where the fingerprints disagree, by binary search over
   the monotone predicate "the first [k] slots agree" — the scan a
   linear walk would do, but O(log n) digest comparisons *)
let first_divergence (a : slot list) (b : slot list) =
  let a = Array.of_list a and b = Array.of_list b in
  let n = min (Array.length a) (Array.length b) in
  let prefix_ok k =
    let ok = ref true in
    for i = 0 to k - 1 do
      if a.(i).sl_digest <> b.(i).sl_digest then ok := false
    done;
    !ok
  in
  if prefix_ok n then
    if Array.length a = Array.length b then None
    else Some (min (Array.length a) (Array.length b), None)
  else begin
    let lo = ref 0 and hi = ref n in
    (* invariant: prefix_ok lo, not (prefix_ok hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if prefix_ok mid then lo := mid else hi := mid
    done;
    Some (!lo, Some a.(!lo))
  end

let divergence_finding ~rule ~jobs ~schedule base trial =
  match first_divergence base trial with
  | None -> None
  | Some (k, slot) ->
      let where =
        match slot with
        | Some s -> Printf.sprintf "%s/%s" (Flow.stage_name s.sl_stage) s.sl_name
        | None -> "artifact count"
      in
      Some
        {
          Dsan.f_rule = rule;
          f_site = "flow";
          f_array = where;
          f_chunk_a = -1;
          f_chunk_b = -1;
          f_index = k;
          f_detail =
            Printf.sprintf
              "first divergent artifact is %s (slot %d of %d) at jobs=%d \
               under fuzzed schedule %d; earlier artifacts are byte-identical"
              where k (List.length base) jobs schedule;
        }

let run ?config ?(to_stage = Flow.Layout) ?(seed = 0) ?(schedules = 4)
    ?(jobs = 4) aoi =
  let saved_jobs = Parallel.jobs () in
  let one_run ~jobs ~fuzz ~fuzz_seed =
    Parallel.set_jobs jobs;
    let (res : (Flow.staged, Diag.t) result), findings =
      Dsan.with_sanitizer ~seed:fuzz_seed ~fuzz (fun () ->
          Flow.run_staged ?config ~to_stage aoi)
    in
    match res with
    | Error d -> Error d
    | Ok st -> Ok (fingerprint st, findings)
  in
  let result =
    match one_run ~jobs:1 ~fuzz:false ~fuzz_seed:seed with
    | Error d -> Error d
    | Ok (base, base_findings) ->
        let findings = ref base_findings in
        let runs = ref 1 in
        let failure = ref None in
        (* schedule trials at jobs=1 (pure fuzz sensitivity), then at
           jobs=k (fuzz + real concurrency); trial 0 of the jobs=k arm
           is unfuzzed so a plain jobs dependence is caught even with
           --schedules 0 *)
        let trial ~jobs ~fuzz ~k ~rule =
          if !failure = None then begin
            incr runs;
            match
              one_run ~jobs ~fuzz ~fuzz_seed:(seed + (k * 0x2545f49))
            with
            | Error d -> failure := Some d
            | Ok (fp, fs) -> (
                findings := fs @ !findings;
                match divergence_finding ~rule ~jobs ~schedule:k base fp with
                | Some f -> findings := f :: !findings
                | None -> ())
          end
        in
        for k = 1 to schedules do
          trial ~jobs:1 ~fuzz:true ~k ~rule:"DSAN-SCHED-01"
        done;
        if jobs > 1 then begin
          trial ~jobs ~fuzz:false ~k:0 ~rule:"DSAN-DIVERGE-01";
          for k = 1 to schedules do
            trial ~jobs ~fuzz:true ~k ~rule:"DSAN-DIVERGE-01"
          done
        end;
        (match !failure with
        | Some d -> Error d
        | None ->
            Ok
              {
                findings = List.sort_uniq Dsan.compare_finding !findings;
                runs = !runs;
                slots = List.length base;
              })
  in
  Parallel.set_jobs saved_jobs;
  result

let render_text r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "sanitize: %d run(s), %d artifact slot(s) fingerprinted\n"
       r.runs r.slots);
  List.iter
    (fun f -> Buffer.add_string b (Dsan.finding_to_string f ^ "\n"))
    r.findings;
  Buffer.add_string b
    (if r.findings = [] then "sanitize: clean — no determinism findings\n"
     else
       Printf.sprintf "sanitize: %d finding(s)\n" (List.length r.findings));
  Buffer.contents b
