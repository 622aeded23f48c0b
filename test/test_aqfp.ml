(* Tests for the AQFP technology model: process parameters, cell
   library, clocking. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------- Tech ---------- *)

let test_phase_window () =
  (* 5 GHz, 4 phases -> 50 ps per phase *)
  checkf "window" 50.0 (Tech.phase_window_ps Tech.default)

let test_snap () =
  let t = Tech.default in
  checkf "snap down" 10.0 (Tech.snap t 12.0);
  checkf "snap up" 20.0 (Tech.snap t 17.0);
  checkf "snap_up" 20.0 (Tech.snap_up t 12.0);
  checkf "snap_up exact" 10.0 (Tech.snap_up t 10.0);
  checkb "on grid" true (Tech.on_grid t 120.0);
  checkb "off grid" false (Tech.on_grid t 125.0)

let test_default_is_mitll_like () =
  let t = Tech.default in
  checkf "grid 10um" 10.0 t.Tech.grid;
  checkf "s_min 10um" 10.0 t.Tech.s_min;
  checki "4 phases" 4 t.Tech.phases;
  checkf "5GHz" 5.0 t.Tech.clock_freq_ghz;
  checki "2 metal layers" 2 t.Tech.metal_layers

(* ---------- Cell ---------- *)

(* one cell of every distinct kind *)
let all_cells =
  List.map Cell.of_kind
    Netlist.
      [
        Input; Output; Const false; Buf; Not; And; Or; Nand; Nor; Xor; Xnor;
        Maj; Splitter 2; Splitter 3;
      ]

let test_paper_dimensions () =
  (* buffers 40x30, majority gates 60x70 (paper §III-C3) *)
  let buf = Cell.of_kind Netlist.Buf in
  checkf "buf w" 40.0 buf.Cell.width;
  checkf "buf h" 30.0 buf.Cell.height;
  let maj = Cell.of_kind Netlist.Maj in
  checkf "maj w" 60.0 maj.Cell.width;
  checkf "maj h" 70.0 maj.Cell.height

let test_jj_counts () =
  (* buffer is a 2-JJ SQUID; everything is a multiple of 2 *)
  checki "buf" 2 (Cell.jj_of_kind Netlist.Buf);
  checki "not" 2 (Cell.jj_of_kind Netlist.Not);
  checki "maj" 6 (Cell.jj_of_kind Netlist.Maj);
  checki "and" 6 (Cell.jj_of_kind Netlist.And);
  checki "spl2" 4 (Cell.jj_of_kind (Netlist.Splitter 2));
  checki "spl3" 6 (Cell.jj_of_kind (Netlist.Splitter 3));
  List.iter
    (fun c -> checki "even JJs" 0 (c.Cell.jj_count mod 2))
    all_cells

let test_pins_match_arity () =
  List.iter
    (fun kind ->
      let c = Cell.of_kind kind in
      checki
        (Netlist.kind_name kind ^ " in pins")
        (Netlist.arity kind)
        (Array.length c.Cell.in_pins))
    [ Netlist.Buf; Netlist.Not; Netlist.And; Netlist.Or; Netlist.Maj;
      Netlist.Splitter 2; Netlist.Splitter 3 ]

let test_splitter_outputs () =
  checki "spl2 outs" 2 (Array.length (Cell.of_kind (Netlist.Splitter 2)).Cell.out_pins);
  checki "spl3 outs" 3 (Array.length (Cell.of_kind (Netlist.Splitter 3)).Cell.out_pins);
  checkb "invalid splitter" true
    (try
       ignore (Cell.of_kind (Netlist.Splitter 5));
       false
     with Invalid_argument _ -> true)

let test_pins_on_grid_and_inside () =
  List.iter
    (fun c ->
      Array.iter
        (fun px ->
          checkb "pin on grid" true (Tech.on_grid Tech.default px);
          checkb "pin inside cell" true (px > 0.0 && px < c.Cell.width))
        (Array.append c.Cell.in_pins c.Cell.out_pins);
      checkb "width on grid" true (Tech.on_grid Tech.default c.Cell.width);
      checkb "height on grid" true (Tech.on_grid Tech.default c.Cell.height))
    all_cells

let test_netlist_jj_count () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let m = Netlist.add nl Netlist.And [| a; b |] in
  ignore (Netlist.add nl Netlist.Output [| m |]);
  (* 2 inports (2 each) + and2 (6) + output marker (0) *)
  checki "jj sum" 10 (Cell.netlist_jj_count nl)

let test_tech_roundtrip () =
  let custom = { Tech.default with Tech.w_max = 500.0; clock_freq_ghz = 3.0 } in
  match Tech.of_string (Tech_writer.to_string custom) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      checkf "w_max" 500.0 parsed.Tech.w_max;
      checkf "clock" 3.0 parsed.Tech.clock_freq_ghz;
      checkf "grid preserved" custom.Tech.grid parsed.Tech.grid

let test_tech_partial_and_comments () =
  match Tech.of_string "# custom
w_max = 450

phases = 4
" with
  | Error e -> Alcotest.fail e
  | Ok t ->
      checkf "w_max set" 450.0 t.Tech.w_max;
      checkf "rest defaulted" Tech.default.Tech.grid t.Tech.grid

let test_tech_rejects () =
  (match Tech.of_string "frobnicate = 3" with
  | Ok _ -> Alcotest.fail "accepted unknown key"
  | Error _ -> ());
  (match Tech.of_string "w_max = banana" with
  | Ok _ -> Alcotest.fail "accepted bad value"
  | Error _ -> ());
  match Tech.of_string "w_max = -5" with
  | Ok _ -> Alcotest.fail "accepted negative"
  | Error _ -> ()

(* ---------- Energy ---------- *)

let test_energy_basic () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let m = Netlist.add nl Netlist.And [| a; b |] in
  ignore (Netlist.add nl Netlist.Output [| m |]);
  let r = Energy.of_netlist Tech.default nl in
  checki "jj" 10 r.Energy.jj_count;
  checki "gates" 1 r.Energy.gate_count;
  checkb "positive energy" true (r.Energy.energy_per_cycle_j > 0.0);
  checkb "positive power" true (r.Energy.power_w > 0.0)

let test_energy_gain_order_of_magnitude () =
  (* the paper's 10^4 - 10^5 claim should hold for any real design *)
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let r = Energy.of_netlist Tech.default aqfp in
  checkb
    (Printf.sprintf "gain %.0f in 1e4..1e6" r.Energy.efficiency_gain)
    true
    (r.Energy.efficiency_gain > 1e4 && r.Energy.efficiency_gain < 1e6)

let test_energy_scales_with_size () =
  let small = Synth_flow.run_quiet (Circuits.kogge_stone_adder 2) in
  let large = Synth_flow.run_quiet (Circuits.kogge_stone_adder 8) in
  let e_small = (Energy.of_netlist Tech.default small).Energy.energy_per_cycle_j in
  let e_large = (Energy.of_netlist Tech.default large).Energy.energy_per_cycle_j in
  checkb "larger design burns more" true (e_large > e_small)

(* ---------- Clocking ---------- *)

let test_eq2_cases () =
  let cost phase xs xe =
    Clocking.timing_cost ~row_width:1000.0 ~phase ~x_start:xs ~x_end:xe ~alpha:2.0
  in
  (* phase 0: (xe - xs)^2 when positive *)
  checkf "case0" 10000.0 (cost 0 100.0 200.0);
  checkf "case0 clamped" 0.0 (cost 0 200.0 100.0);
  (* phase 1: (xe + xs)^2 *)
  checkf "case1" 90000.0 (cost 1 100.0 200.0);
  (* phase 2: (xs - xe)^2 when positive *)
  checkf "case2" 10000.0 (cost 2 200.0 100.0);
  checkf "case2 clamped" 0.0 (cost 2 100.0 200.0);
  (* phase 3: (2W - xe - xs)^2 *)
  checkf "case3" (1700.0 *. 1700.0) (cost 3 100.0 200.0);
  (* periodicity *)
  checkf "phase 4 = phase 0" (cost 0 100.0 200.0) (cost 4 100.0 200.0);
  (* the base itself is not clamped *)
  checkf "base unclamped" (-100.0)
    (Clocking.skew_base ~row_width:1000.0 ~phase:0 ~x_start:200.0 ~x_end:100.0)

let test_alpha_modulates () =
  let c1 = Clocking.timing_cost ~row_width:1000.0 ~phase:1 ~x_start:10.0 ~x_end:10.0 ~alpha:1.0 in
  let c2 = Clocking.timing_cost ~row_width:1000.0 ~phase:1 ~x_start:10.0 ~x_end:10.0 ~alpha:2.0 in
  checkf "alpha1" 20.0 c1;
  checkf "alpha2" 400.0 c2

let () =
  Alcotest.run "sf_aqfp"
    [
      ( "tech",
        [
          Alcotest.test_case "phase window" `Quick test_phase_window;
          Alcotest.test_case "snap" `Quick test_snap;
          Alcotest.test_case "defaults" `Quick test_default_is_mitll_like;
        ] );
      ( "cell",
        [
          Alcotest.test_case "paper dimensions" `Quick test_paper_dimensions;
          Alcotest.test_case "jj counts" `Quick test_jj_counts;
          Alcotest.test_case "pins match arity" `Quick test_pins_match_arity;
          Alcotest.test_case "splitters" `Quick test_splitter_outputs;
          Alcotest.test_case "pins on grid" `Quick test_pins_on_grid_and_inside;
          Alcotest.test_case "netlist jj" `Quick test_netlist_jj_count;
        ] );
      ( "tech_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_tech_roundtrip;
          Alcotest.test_case "partial" `Quick test_tech_partial_and_comments;
          Alcotest.test_case "rejects" `Quick test_tech_rejects;
        ] );
      ( "energy",
        [
          Alcotest.test_case "basic" `Quick test_energy_basic;
          Alcotest.test_case "gain magnitude" `Quick test_energy_gain_order_of_magnitude;
          Alcotest.test_case "scales" `Quick test_energy_scales_with_size;
        ] );
      ( "clocking",
        [
          Alcotest.test_case "eq2" `Quick test_eq2_cases;
          Alcotest.test_case "alpha" `Quick test_alpha_modulates;
        ] );
    ]
