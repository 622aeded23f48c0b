(* The determinism sanitizer's own regression suite: every planted
   race must be caught with a correct witness, and clean parallel code
   must stay clean. This doubles as the CI meta-test that the detector
   still fires. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:Parallel.auto_jobs f

let find_rule rule findings =
  List.filter (fun f -> f.Dsan.f_rule = rule) findings

(* ---- planted ownership violations ---- *)

let test_out_of_slice_write_caught () =
  let data = Array.make 16 0 in
  let _, findings =
    Dsan.with_sanitizer ~fuzz:false (fun () ->
        let v = Dsan.wrap ~label:"t.data" ~mode:Dsan.Slice data in
        with_jobs 1 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.slice" ~chunk:4 ~n:16
                 (fun lo hi ->
                   for i = lo to hi - 1 do
                     Dsan.set v i i
                   done;
                   (* the planted race: chunk 1 ([4,8)) also writes
                      slot 12, which chunk 3 owns *)
                   if lo = 4 then Dsan.set v 12 99))))
  in
  match find_rule "DSAN-OWN-01" findings with
  | [ f ] ->
      Alcotest.(check string) "site" "t.slice" f.Dsan.f_site;
      Alcotest.(check string) "array" "t.data" f.Dsan.f_array;
      checki "guilty chunk" 1 f.Dsan.f_chunk_a;
      checki "witness index" 12 f.Dsan.f_index
  | fs -> Alcotest.failf "expected exactly one DSAN-OWN-01, got %d" (List.length fs)

let test_read_only_write_caught () =
  let data = Array.make 8 0.0 in
  let _, findings =
    Dsan.with_sanitizer ~fuzz:false (fun () ->
        let v = Dsan.wrap ~label:"t.shared" ~mode:Dsan.Read_only data in
        with_jobs 1 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.ro" ~chunk:2 ~n:8 (fun lo _ ->
                   ignore (Dsan.get v lo);
                   if lo = 6 then Dsan.set v 0 1.0))))
  in
  match find_rule "DSAN-OWN-01" findings with
  | [ f ] ->
      Alcotest.(check string) "array" "t.shared" f.Dsan.f_array;
      checki "guilty chunk" 3 f.Dsan.f_chunk_a;
      checki "witness index" 0 f.Dsan.f_index
  | fs -> Alcotest.failf "expected exactly one DSAN-OWN-01, got %d" (List.length fs)

(* ---- planted footprint overlaps ---- *)

let test_write_write_overlap_caught () =
  let data = Array.make 32 0 in
  let _, findings =
    Dsan.with_sanitizer ~fuzz:false (fun () ->
        let v = Dsan.wrap ~label:"t.acc" ~mode:Dsan.Footprint data in
        with_jobs 1 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.ww" ~chunk:8 ~n:32 (fun lo hi ->
                   for i = lo to hi - 1 do
                     Dsan.set v i 1
                   done;
                   (* chunks 0 and 2 both write slot 17 *)
                   if lo = 0 || lo = 16 then Dsan.set v 17 2))))
  in
  match find_rule "DSAN-WW-01" findings with
  | [ f ] ->
      Alcotest.(check string) "site" "t.ww" f.Dsan.f_site;
      checki "first chunk" 0 f.Dsan.f_chunk_a;
      checki "second chunk" 2 f.Dsan.f_chunk_b;
      checki "witness index" 17 f.Dsan.f_index
  | fs ->
      (* slot 17 also belongs to chunk 2's own range, so chunk 2
         writes it twice — still exactly one cross-chunk pair *)
      Alcotest.failf "expected exactly one DSAN-WW-01, got %d" (List.length fs)

let test_read_write_overlap_caught () =
  let data = Array.make 32 0 in
  let _, findings =
    Dsan.with_sanitizer ~fuzz:false (fun () ->
        let v = Dsan.wrap ~label:"t.facts" ~mode:Dsan.Footprint data in
        with_jobs 1 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.rw" ~chunk:8 ~n:32 (fun lo hi ->
                   (* chunk 3 reads slot 2, which chunk 0 writes *)
                   if lo = 24 then ignore (Dsan.get v 2);
                   for i = lo to hi - 1 do
                     Dsan.set v i 1
                   done))))
  in
  match find_rule "DSAN-RW-01" findings with
  | [ f ] ->
      checki "writer chunk" 0 f.Dsan.f_chunk_a;
      checki "reader chunk" 3 f.Dsan.f_chunk_b;
      checki "witness index" 2 f.Dsan.f_index
  | fs -> Alcotest.failf "expected exactly one DSAN-RW-01, got %d" (List.length fs)

(* ---- schedule fuzzing ---- *)

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
  let _, findings = Dsan.schedule_check ~schedules:4 ~equal:( = ) run in
  checkb "order dependence detected" true
    (find_rule "DSAN-SCHED-01" findings <> [])

let test_order_independent_batch_clean () =
  let run () =
    let out = Array.make 16 0 in
    with_jobs 2 (fun () ->
        ignore
          (Parallel.map_chunks ~label:"t.order.ok" ~chunk:1 ~n:16
             (fun lo _ -> out.(lo) <- lo * lo)));
    Array.to_list out
  in
  let _, findings = Dsan.schedule_check ~schedules:4 ~equal:( = ) run in
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
  let data = Array.make 4 0 in
  let v = Dsan.wrap ~label:"t.off" ~mode:Dsan.Read_only data in
  Dsan.set v 0 7;
  checki "tracked set still writes" 7 (Dsan.get v 0);
  checki "no session, no findings" 0 (List.length (Dsan.stop ()))

(* ---- clean parallel code stays clean ---- *)

let test_disjoint_slices_clean () =
  let data = Array.make 64 0 in
  let _, findings =
    Dsan.with_sanitizer ~fuzz:true (fun () ->
        let v = Dsan.wrap ~label:"t.clean" ~mode:Dsan.Slice data in
        with_jobs 4 (fun () ->
            ignore
              (Parallel.map_chunks ~label:"t.disjoint" ~chunk:8 ~n:64
                 (fun lo hi ->
                   for i = lo to hi - 1 do
                     Dsan.set v i (i * 3)
                   done))))
  in
  checki "disjoint writes are clean" 0 (List.length findings);
  Array.iteri (fun i x -> checki (Printf.sprintf "value[%d]" i) (i * 3) x) data

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
      Dsan.f_rule = "DSAN-WW-01";
      f_site = "drc.tiles";
      f_array = "tile.bins";
      f_chunk_a = 2;
      f_chunk_b = 5;
      f_index = 17;
      f_detail = "both wrote";
    }
  in
  let s = Dsan.finding_to_string f in
  checkb "mentions rule" true (String.length s > 0 && String.sub s 0 10 = "DSAN-WW-01");
  let d = Dsan.to_diag f in
  Alcotest.(check string) "diag rule" "DSAN-WW-01" d.Diag.rule;
  checkb "diag is error" true (d.Diag.severity = Diag.Error);
  checkb "witness carries chunks" true
    (List.exists (fun w -> w = "chunks 2 and 5") d.Diag.witness);
  checkb "nest is warning" true
    ((Dsan.to_diag { f with Dsan.f_rule = "DSAN-NEST-01" }).Diag.severity
    = Diag.Warning)

let test_rules_registered () =
  List.iter
    (fun rule ->
      checkb (rule ^ " registered") true (Rules.find rule <> None))
    [
      "DSAN-DIVERGE-01"; "DSAN-EPOCH-01"; "DSAN-NEST-01"; "DSAN-OWN-01";
      "DSAN-RW-01"; "DSAN-SCHED-01"; "DSAN-WW-01";
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
          Alcotest.test_case "out-of-slice write" `Quick
            test_out_of_slice_write_caught;
          Alcotest.test_case "read-only write" `Quick test_read_only_write_caught;
          Alcotest.test_case "write-write overlap" `Quick
            test_write_write_overlap_caught;
          Alcotest.test_case "read-write overlap" `Quick
            test_read_write_overlap_caught;
          Alcotest.test_case "order-dependent batch" `Quick
            test_order_dependent_batch_caught;
          Alcotest.test_case "nested parallel call" `Quick test_nested_call_flagged;
        ] );
      ( "clean code stays clean",
        [
          Alcotest.test_case "order-independent batch" `Quick
            test_order_independent_batch_clean;
          Alcotest.test_case "disjoint slices" `Quick test_disjoint_slices_clean;
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
