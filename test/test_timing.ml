(* Tests for the static timing engine. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let placed name alg =
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p);
  p

let test_report_consistency () =
  let p = placed "adder8" Placer.Superflow in
  let r = Sta.analyze p in
  (* WNS is the min over all nets *)
  let row_width = Problem.row_width p in
  let min_slack = ref infinity in
  Array.iteri
    (fun ni _ ->
      let t = Sta.net_slack_ps p ~row_width ni in
      if t.Sta.slack_ps < !min_slack then min_slack := t.Sta.slack_ps)
    p.Problem.nets;
  Alcotest.(check (float 1e-6)) "wns is min" !min_slack r.Sta.wns_ps;
  checkb "tns <= 0" true (r.Sta.tns_ps <= 0.0);
  checkb "worst sorted" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Sta.slack_ps <= b.Sta.slack_ps && sorted rest
       | _ -> true
     in
     sorted r.Sta.worst);
  checki "worst capped at 10" (min 10 (Array.length p.Problem.nets)) (List.length r.Sta.worst)

let test_violations_counted () =
  let p = placed "adder8" Placer.Superflow in
  let r = Sta.analyze p in
  let row_width = Problem.row_width p in
  let manual = ref 0 in
  Array.iteri
    (fun ni _ ->
      if (Sta.net_slack_ps p ~row_width ni).Sta.slack_ps < 0.0 then incr manual)
    p.Problem.nets;
  checki "violations" !manual r.Sta.violations

let test_slack_decomposition () =
  let p = placed "adder8" Placer.Superflow in
  let row_width = Problem.row_width p in
  let window = Tech.phase_window_ps Tech.default in
  Array.iteri
    (fun ni _ ->
      let t = Sta.net_slack_ps p ~row_width ni in
      checkb "flight >= 0" true (t.Sta.flight_ps >= 0.0);
      checkb "skew >= 0" true (t.Sta.skew_ps >= 0.0);
      Alcotest.(check (float 1e-6)) "decomposition"
        (window -. Tech.default.Tech.gate_delay_ps -. t.Sta.flight_ps -. t.Sta.skew_ps)
        t.Sta.slack_ps)
    p.Problem.nets

let test_shorter_nets_more_slack () =
  (* a compact placement times better than a deliberately stretched one *)
  let p = placed "apc32" Placer.Superflow in
  let good = (Sta.analyze p).Sta.wns_ps in
  Array.iteri
    (fun i c -> if i mod 2 = 0 then c.Problem.x <- c.Problem.x +. 3000.0)
    p.Problem.cells;
  let bad = (Sta.analyze p).Sta.wns_ps in
  checkb "stretching hurts" true (bad < good)

let test_timing_met_predicate () =
  (* a one-gate design at sane positions meets 5 GHz *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Buf [| a |] in
  ignore (Netlist.add nl Netlist.Output [| b |]);
  ignore (Netlist.levelize nl);
  let p = Problem.of_netlist Tech.default nl in
  let r = Sta.analyze p in
  checkb "meets timing" true (Sta.meets_timing r);
  checkb "positive wns" true (r.Sta.wns_ps > 0.0)

let test_faster_clock_tightens () =
  let aoi = Circuits.benchmark "apc32" in
  let aqfp = Synth_flow.run_quiet aoi in
  let slow_tech = { Tech.default with Tech.clock_freq_ghz = 1.0 } in
  let run tech =
    let p = Problem.of_netlist tech aqfp in
    ignore (Placer.place Placer.Superflow p);
    (Sta.analyze p).Sta.wns_ps
  in
  checkb "1 GHz slack > 5 GHz slack" true (run slow_tech > run Tech.default)

let test_fmax_exact () =
  let p = placed "apc32" Placer.Superflow in
  let fmax = Sta.fmax_ghz p in
  checkb "positive" true (fmax > 0.0);
  (* timing met exactly at fmax, violated 5% above *)
  let wns_at ghz =
    let p' = { p with Problem.tech = { Tech.default with Tech.clock_freq_ghz = ghz } } in
    (Sta.analyze p').Sta.wns_ps
  in
  checkb "met at fmax" true (wns_at fmax >= -1e-6);
  checkb "violated above" true (wns_at (fmax *. 1.05) < 0.0)

let test_post_route_sta () =
  let p = placed "adder8" Placer.Superflow in
  let pre = Sta.analyze p in
  let routed = Router.route_all p in
  let post = Sta.analyze_routed p routed in
  (* routed paths are never shorter than the Manhattan estimate, so
     post-route timing can only be equal or worse *)
  checkb "post-route wns <= placement wns" true (post.Sta.wns_ps <= pre.Sta.wns_ps +. 1e-6);
  checkb "violations monotone" true (post.Sta.violations >= pre.Sta.violations)

let () =
  Alcotest.run "sf_timing"
    [
      ( "sta",
        [
          Alcotest.test_case "report consistency" `Quick test_report_consistency;
          Alcotest.test_case "violations counted" `Quick test_violations_counted;
          Alcotest.test_case "slack decomposition" `Quick test_slack_decomposition;
          Alcotest.test_case "stretching hurts" `Slow test_shorter_nets_more_slack;
          Alcotest.test_case "timing met" `Quick test_timing_met_predicate;
          Alcotest.test_case "clock frequency" `Slow test_faster_clock_tightens;
          Alcotest.test_case "fmax" `Quick test_fmax_exact;
          Alcotest.test_case "post-route" `Quick test_post_route_sta;
        ] );
    ]
