(* Integration tests: the full RTL-to-GDS flow. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_flow_end_to_end () =
  let aoi = Circuits.kogge_stone_adder 4 in
  let path = Filename.temp_file "superflow" ".gds" in
  let r = Flow.run ~gds_path:path aoi in
  (* functional equivalence survives the whole flow *)
  checkb "equivalent" true (Sim.equivalent aoi r.Flow.aqfp_netlist);
  checkb "balanced" true (Netlist.is_balanced r.Flow.aqfp_netlist);
  (* placement legal, routing valid, DRC clean *)
  checkb "legal placement" true (Problem.check_legal r.Flow.problem = Ok ());
  (match Router.check_routes r.Flow.problem r.Flow.routing with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "drc clean" []
    (List.map Diag.to_string r.Flow.violations);
  (* the GDS on disk parses and contains the design *)
  (match Gds.read_file path with
  | Ok lib ->
      let top = List.find (fun s -> s.Gds.sname = "TOP") lib.Gds.structures in
      let srefs =
        List.length
          (List.filter (function Gds.Sref _ -> true | _ -> false) top.Gds.elements)
      in
      checki "gds cell instances" (Array.length r.Flow.problem.Problem.cells) srefs
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_flow_from_verilog () =
  let src =
    {|
module majority_vote(a, b, c, y);
  input a, b, c;
  output y;
  assign y = (a & b) | (a & c) | (b & c);
endmodule
|}
  in
  match Verilog.parse src |> Result.map Flow.run with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (* the synthesized design computes majority *)
      let nl = r.Flow.aqfp_netlist in
      for v = 0 to 7 do
        let ins = Array.init 3 (fun k -> (v lsr k) land 1 = 1) in
        let expect =
          (ins.(0) && ins.(1)) || (ins.(0) && ins.(2)) || (ins.(1) && ins.(2))
        in
        checkb "majority" expect (Sim.eval nl ins).(0)
      done;
      (* a majority function should map to very few majority gates *)
      let majs = Netlist.count_kind nl (fun k -> k = Netlist.Maj) in
      checkb "mapped to maj" true (majs >= 1 && majs <= 3)

let test_flow_from_verilog_error () =
  match Verilog.parse "module broken(" |> Result.map Flow.run with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted broken verilog"

let test_flow_bench_file () =
  let path = Filename.temp_file "superflow" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
  close_out oc;
  (match Bench_parser.parse_file path |> Result.map Flow.run with
  | Error e -> Alcotest.fail e
  | Ok r ->
      List.iter
        (fun (a, b) ->
          checkb "nand" (not (a && b)) (Sim.eval r.Flow.aqfp_netlist [| a; b |]).(0))
        [ (false, false); (true, false); (true, true) ]);
  Sys.remove path

let test_flow_all_placers () =
  let aoi = Circuits.kogge_stone_adder 2 in
  List.iter
    (fun alg ->
      let r = Flow.run ~algorithm:alg aoi in
      checkb
        (Placer.algorithm_name alg ^ " equivalent")
        true
        (Sim.equivalent aoi r.Flow.aqfp_netlist);
      Alcotest.(check (list string))
        (Placer.algorithm_name alg ^ " drc")
        []
        (List.map Diag.to_string r.Flow.violations))
    [ Placer.Gordian; Placer.Taas; Placer.Superflow ]

let test_flow_deterministic () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let a = Flow.run ~seed:3 aoi and b = Flow.run ~seed:3 aoi in
  Alcotest.(check (float 1e-9)) "same hpwl" a.Flow.placement.Placer.hpwl
    b.Flow.placement.Placer.hpwl;
  Alcotest.(check (float 1e-9)) "same routed wl" a.Flow.routing.Router.wirelength
    b.Flow.routing.Router.wirelength

let test_flow_medium_benchmark () =
  let aoi = Circuits.benchmark "apc32" in
  let r = Flow.run aoi in
  checkb "equivalent" true (Sim.equivalent aoi r.Flow.aqfp_netlist);
  checkb "jj after routing >= jj after synthesis" true
    (Problem.jj_count r.Flow.problem >= r.Flow.synth_report.Synth_flow.jjs);
  Alcotest.(check (list string)) "drc clean" []
    (List.map Diag.to_string r.Flow.violations)

let test_report_tables_shapes () =
  (* Table II measurement has the paper's structural invariants *)
  let row = Report.measure_table2 "adder8" in
  checkb "jjs > nets" true (row.Report.jjs > row.Report.nets);
  checkb "delay positive" true (row.Report.delay > 0);
  (* Table III: three placers, all legal-positive *)
  let rows = Report.measure_table3 "adder8" in
  checki "three placers" 3 (List.length rows);
  List.iter (fun r -> checkb "hpwl > 0" true (r.Report.hpwl > 0.0)) rows;
  (* paper reference data is complete *)
  checki "paper t2" 9 (List.length Report.paper_table2);
  checki "paper t3" 9 (List.length Report.paper_table3);
  checki "paper t4" 9 (List.length Report.paper_table4)

let test_fig4_ablation_shape () =
  let rows = Report.measure_fig4 "adder8" in
  checki "two arms" 2 (List.length rows);
  match rows with
  | [ matched; mixed ] ->
      checkb "arms labelled" true ((not matched.Report.mixed) && mixed.Report.mixed);
      checkb "mixed not worse (hpwl)" true
        (mixed.Report.f_hpwl <= matched.Report.f_hpwl *. 1.05)
  | _ -> Alcotest.fail "expected two rows"

let () =
  Alcotest.run "superflow"
    [
      ( "flow",
        [
          Alcotest.test_case "end to end" `Quick test_flow_end_to_end;
          Alcotest.test_case "from verilog" `Quick test_flow_from_verilog;
          Alcotest.test_case "verilog error" `Quick test_flow_from_verilog_error;
          Alcotest.test_case "bench file" `Quick test_flow_bench_file;
          Alcotest.test_case "all placers" `Slow test_flow_all_placers;
          Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
          Alcotest.test_case "medium benchmark" `Slow test_flow_medium_benchmark;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables" `Slow test_report_tables_shapes;
          Alcotest.test_case "fig4" `Slow test_fig4_ablation_shape;
        ] );
    ]
