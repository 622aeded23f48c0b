(* The determinism sanitizer's own regression suite: every planted
   determinism bug must be caught with a correct witness, and clean
   parallel code must stay clean. This doubles as the CI meta-test
   that the sanitizer still fires. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:Parallel.auto_jobs f

let find_rule rule findings =
  List.filter (fun f -> f.Dsan.f_rule = rule) findings

(* ---- schedule fuzzing ---- *)

(* [run] once unfuzzed, then under four seeded schedule permutations:
   the baseline result, the fuzzed results and every finding *)
let fuzz_runs run =
  let base, base_findings = Dsan.with_sanitizer ~fuzz:false run in
  let fuzzed =
    List.init 4 (fun k -> Dsan.with_sanitizer ~seed:(k + 1) ~fuzz:true run)
  in
  (base, List.map fst fuzzed, base_findings @ List.concat_map snd fuzzed)

let test_order_dependent_batch_caught () =
  (* the cell's final value encodes the chunk execution order; any
     permuted schedule that isn't the identity changes it *)
  let run () =
    let cell = ref 0 in
    with_jobs 1 (fun () ->
        ignore
          (Parallel.map_chunks ~label:"t.order" ~chunk:1 ~n:16 (fun lo _ ->
               cell := (!cell * 17) + lo)));
    !cell
  in
  let base, fuzzed, _ = fuzz_runs run in
  checkb "order dependence detected" true
    (List.exists (fun r -> r <> base) fuzzed)

let test_order_independent_batch_clean () =
  let run () =
    let out = Array.make 16 0 in
    with_jobs 2 (fun () ->
        ignore
          (Parallel.map_chunks ~label:"t.order.ok" ~chunk:1 ~n:16
             (fun lo _ -> out.(lo) <- lo * lo)));
    Array.to_list out
  in
  let base, fuzzed, findings = fuzz_runs run in
  checkb "every schedule, same result" true
    (List.for_all (fun r -> r = base) fuzzed);
  checki "clean batch has no findings" 0 (List.length findings)

(* ---- nested parallel calls ---- *)

let test_nested_call_flagged () =
  let _, findings =
    Dsan.with_sanitizer ~fuzz:false (fun () ->
        with_jobs 1 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.outer" ~chunk:4 ~n:8 (fun lo _ ->
                   if lo = 0 then
                     ignore
                       (Parallel.map_chunks ~label:"t.inner" ~chunk:2 ~n:4
                          (fun _ _ -> ()))))))
  in
  match find_rule "DSAN-NEST-01" findings with
  | [ f ] -> Alcotest.(check string) "outer site" "t.outer" f.Dsan.f_site
  | fs -> Alcotest.failf "expected exactly one DSAN-NEST-01, got %d" (List.length fs)

(* ---- instrumentation channel (the router's epoch check) ---- *)

let test_record_channel () =
  let _, findings =
    Dsan.with_sanitizer (fun () ->
        Dsan.record ~rule:"DSAN-EPOCH-01" ~site:"route.pairs"
          ~array_label:"search.arena" ~index:42 "stale stamp";
        (* deduped: same (rule, site, array, chunk) reports once *)
        Dsan.record ~rule:"DSAN-EPOCH-01" ~site:"route.pairs"
          ~array_label:"search.arena" ~index:43 "stale stamp again")
  in
  match find_rule "DSAN-EPOCH-01" findings with
  | [ f ] -> checki "first witness kept" 42 f.Dsan.f_index
  | fs -> Alcotest.failf "expected exactly one DSAN-EPOCH-01, got %d" (List.length fs)

let test_off_mode_records_nothing () =
  checkb "off" false (Dsan.on ());
  Dsan.record ~rule:"DSAN-EPOCH-01" "should vanish";
  let (), findings = Dsan.with_sanitizer (fun () -> ()) in
  checki "no session, no findings" 0 (List.length findings)

(* ---- clean parallel code stays clean ---- *)

(* the fuzzer permutes execution order but never the combine order *)
let test_fuzz_preserves_results () =
  let reference =
    with_jobs 1 (fun () ->
        Parallel.parallel_init ~label:"t.fuzzres" ~chunk:3 50 (fun i ->
            float_of_int i *. 1.5))
  in
  let fuzzed, findings =
    Dsan.with_sanitizer ~seed:7 ~fuzz:true (fun () ->
        with_jobs 4 (fun () ->
            Parallel.parallel_init ~label:"t.fuzzres" ~chunk:3 50 (fun i ->
                float_of_int i *. 1.5)))
  in
  checki "no findings" 0 (List.length findings);
  Alcotest.(check (array (float 0.0))) "fuzzed schedule, identical result"
    reference fuzzed

(* ---- diagnostics plumbing ---- *)

let test_finding_rendering () =
  let f =
    {
      Dsan.f_rule = "DSAN-EPOCH-01";
      f_site = "route.pairs";
      f_array = "search.arena";
      f_index = 42;
      f_detail = "stale stamp";
    }
  in
  Alcotest.(check string) "one line"
    "DSAN-EPOCH-01 at route.pairs array search.arena index 42: stale stamp"
    (Dsan.finding_to_string f);
  let d = Dsan.to_diag f in
  Alcotest.(check string) "diag rule" "DSAN-EPOCH-01" d.Diag.rule;
  checkb "diag is error" true (d.Diag.severity = Diag.Error);
  checkb "witness carries index" true
    (List.exists (fun w -> w = "index 42") d.Diag.witness);
  checkb "nest is warning" true
    ((Dsan.to_diag { f with Dsan.f_rule = "DSAN-NEST-01" }).Diag.severity
    = Diag.Warning)

let test_rules_registered () =
  List.iter
    (fun rule ->
      checkb (rule ^ " registered") true (Rules.find rule <> None))
    [
      "DSAN-DIVERGE-01"; "DSAN-EPOCH-01"; "DSAN-NEST-01"; "DSAN-SCHED-01";
    ]

(* ---- divergence localization plumbing ---- *)

let test_first_divergence () =
  let slot name digest =
    { Sanitize.sl_stage = Flow.Synth; sl_name = name; sl_digest = digest }
  in
  let base = [ slot "a" "1"; slot "b" "2"; slot "c" "3" ] in
  checkb "identical fingerprints" true
    (Sanitize.first_divergence base base = None);
  (match Sanitize.first_divergence base [ slot "a" "1"; slot "b" "X"; slot "c" "3" ] with
  | Some (1, Some s) -> Alcotest.(check string) "divergent slot" "b" s.Sanitize.sl_name
  | _ -> Alcotest.fail "expected divergence at slot 1");
  match Sanitize.first_divergence base [ slot "a" "1" ] with
  | Some (1, None) -> ()
  | _ -> Alcotest.fail "expected prefix divergence at 1"

(* ---- end-to-end: the bundled design is clean under the sanitizer ---- *)

let test_sanitize_adder8_clean () =
  match
    Sanitize.run ~schedules:1 ~jobs:2 (Circuits.benchmark "adder8")
  with
  | Error d -> Alcotest.failf "sanitize failed: %s" (Diag.to_string d)
  | Ok rep ->
      checkb "fingerprinted something" true (rep.Sanitize.slots > 0);
      Alcotest.(check (list string)) "no findings on adder8" []
        (List.map Dsan.finding_to_string rep.Sanitize.findings)

let () =
  Alcotest.run "dsan"
    [
      ( "planted races",
        [
          Alcotest.test_case "order-dependent batch" `Quick
            test_order_dependent_batch_caught;
          Alcotest.test_case "nested parallel call" `Quick test_nested_call_flagged;
        ] );
      ( "clean code stays clean",
        [
          Alcotest.test_case "order-independent batch" `Quick
            test_order_independent_batch_clean;
          Alcotest.test_case "fuzz preserves results" `Quick
            test_fuzz_preserves_results;
          Alcotest.test_case "off mode records nothing" `Quick
            test_off_mode_records_nothing;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "record channel + dedup" `Quick test_record_channel;
          Alcotest.test_case "finding rendering" `Quick test_finding_rendering;
          Alcotest.test_case "rules registered" `Quick test_rules_registered;
          Alcotest.test_case "first divergence search" `Quick
            test_first_divergence;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "sanitize adder8 clean" `Slow
            test_sanitize_adder8_clean;
        ] );
    ]
