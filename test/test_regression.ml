(* Quality-regression guards: generous metric windows around the
   currently-achieved results on small benchmarks. A correctness bug
   usually trips the unit suites; these catch silent QUALITY
   regressions (a placer that legalizes but scatters, a router that
   routes but detours 3x, a mapper that forgets to share logic).

   The windows are deliberately loose (roughly +/- 30-50% around
   today's numbers) so tuning work doesn't turn them red, while
   order-of-magnitude regressions do. *)

let checkb = Alcotest.(check bool)

let within label lo hi v =
  checkb (Printf.sprintf "%s = %.1f in [%.1f, %.1f]" label v lo hi) true
    (v >= lo && v <= hi)

let test_synthesis_quality () =
  let _, r = Synth_flow.run (Circuits.benchmark "adder8") in
  within "adder8 JJs" 1000.0 3000.0 (float_of_int r.Synth_flow.jjs);
  within "adder8 nets" 400.0 1400.0 (float_of_int r.Synth_flow.nets);
  within "adder8 delay" 12.0 30.0 (float_of_int r.Synth_flow.delay)

let test_placement_quality () =
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let p = Problem.of_netlist Tech.default aqfp in
  let res = Placer.place Placer.Superflow p in
  (* today: ~89k um, 10 lines, wns ~ -26ps *)
  within "adder8 hpwl" 30_000.0 140_000.0 res.Placer.hpwl;
  within "adder8 buffer lines" 0.0 20.0 (float_of_int res.Placer.buffer_lines);
  let sta = Sta.analyze p in
  within "adder8 wns" (-45.0) 30.0 sta.Sta.wns_ps

let test_placement_beats_baselines_often () =
  (* SuperFlow's headline claim, kept as a regression: over the small
     circuits its HPWL geomean is at least as good as both baselines *)
  let geomean alg =
    let values =
      List.map
        (fun name ->
          let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
          let p = Problem.of_netlist Tech.default aqfp in
          (Placer.place alg p).Placer.hpwl)
        [ "adder8"; "apc32"; "decoder" ]
    in
    Stats.geomean (Array.of_list values)
  in
  let sf = geomean Placer.Superflow in
  checkb "superflow <= gordian (hpwl geomean)" true (sf <= geomean Placer.Gordian *. 1.02);
  checkb "superflow <= taas (hpwl geomean)" true (sf <= geomean Placer.Taas *. 1.02)

let test_routing_quality () =
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  ignore (Congestion.preexpand p);
  let r = Router.route_all p in
  (* today: ~200k um against an ~130k lower bound *)
  let lower =
    Array.fold_left (fun acc e -> acc +. Problem.net_length p e) 0.0 p.Problem.nets
  in
  within "adder8 routed/manhattan ratio" 1.0 2.0 (r.Router.wirelength /. lower);
  within "adder8 expansions" 0.0 60.0 (float_of_int r.Router.expansions)

let test_synthesis_saves_vs_naive () =
  (* the MAJ cut mapping should keep saving JJs vs per-gate mapping *)
  let nl = Circuits.benchmark "apc32" in
  let smart = Cell.netlist_jj_count (Aoi_to_maj.convert nl) in
  let naive = Cell.netlist_jj_count (Aoi_to_maj.convert_naive nl) in
  within "apc32 mapping saving" 0.05 0.6
    (float_of_int (naive - smart) /. float_of_int naive)

let () =
  Alcotest.run "regression"
    [
      ( "quality",
        [
          Alcotest.test_case "synthesis" `Quick test_synthesis_quality;
          Alcotest.test_case "placement" `Quick test_placement_quality;
          Alcotest.test_case "placement vs baselines" `Slow test_placement_beats_baselines_often;
          Alcotest.test_case "routing" `Quick test_routing_quality;
          Alcotest.test_case "mapping saving" `Quick test_synthesis_saves_vs_naive;
        ] );
    ]
