(* Divergence localization for the determinism contract.

   A sanitized run executes the stage graph repeatedly — once at
   jobs=1 with the schedule fuzzer off (the baseline), then under N
   seeded schedule permutations at jobs=1 and at jobs=k — with the
   Dsan hooks installed throughout. Every run is fingerprinted as
   the digests of [Flow.artifacts], the bytes a database would store
   for it (volatile wall-clock fields zeroed first: they differ between
   any two runs and would drown the signal); a fingerprint that differs
   from the baseline is localized to the first divergent (stage, slot) by
   one scan of the two digest lists and reported as
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

(* wall-clock fields are honest outputs but poison byte comparison *)
let still (st : Flow.staged) =
  {
    st with
    Flow.placed =
      Option.map
        (fun (nl, p, pr, lines) ->
          (nl, p, { pr with Placer.runtime_s = 0.0 }, lines))
        st.Flow.placed;
    routed =
      Option.map
        (fun (r, p, viols, rounds) ->
          ({ r with Router.runtime_s = 0.0 }, p, viols, rounds))
        st.Flow.routed;
    checked =
      Option.map
        (fun (r : Check.report) ->
          {
            r with
            Check.stats =
              List.map (fun s -> { s with Check.seconds = 0.0 }) r.Check.stats;
          })
        st.Flow.checked;
  }

(* exactly the bytes the database would store for the run *)
let fingerprint st =
  List.map
    (fun (stage, name, bytes) ->
      {
        sl_stage = stage;
        sl_name = name;
        sl_digest = Digest.to_hex (Digest.string bytes);
      })
    (Flow.artifacts (still st))

(* first index where the fingerprints disagree, in one scan *)
let first_divergence (a : slot list) (b : slot list) =
  let rec go k a b =
    match (a, b) with
    | [], [] -> None
    | [], _ | _, [] -> Some (k, None)
    | x :: a', y :: b' ->
        if x.sl_digest <> y.sl_digest then Some (k, Some x) else go (k + 1) a' b'
  in
  go 0 a b

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
