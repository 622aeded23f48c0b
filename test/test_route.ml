(* Tests for the layer-wise A* router: path validity, exclusivity,
   space expansion, and the routed-design invariants. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let placed_problem name alg =
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p);
  p

let tiny_placed () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  p

let test_routes_all_nets () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes);
  Array.iteri
    (fun i rt -> checki "net order" i rt.Router.net)
    r.Router.routes

let test_route_check_clean () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_routes_connect_pins () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  Array.iter
    (fun rt ->
      match (rt.Router.points, List.rev rt.Router.points) with
      | (x0, _) :: _, (xn, yn) :: _ ->
          let e = p.Problem.nets.(rt.Router.net) in
          Alcotest.(check (float 1e-6)) "start x" (Problem.pin_x p rt.Router.net `Src) x0;
          Alcotest.(check (float 1e-6)) "end x" (Problem.pin_x p rt.Router.net `Dst) xn;
          let dc = p.Problem.cells.(e.Problem.dst) in
          Alcotest.(check (float 1e-6)) "end y"
            (Problem.row_top p dc.Problem.row) yn
      | _ -> Alcotest.fail "empty route")
    r.Router.routes

let test_rectilinear_on_grid () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let grid = Tech.default.Tech.grid in
  Array.iter
    (fun rt ->
      let rec walk = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            checkb "rectilinear" true (x1 = x2 || y1 = y2);
            checkb "x on grid" true (Float.rem x1 grid < 1e-6);
            checkb "y on grid" true (Float.rem y1 grid < 1e-6);
            walk rest
        | _ -> ()
      in
      walk rt.Router.points)
    r.Router.routes

let test_wirelength_consistent () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let sum =
    Array.fold_left
      (fun acc rt ->
        let rec len = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
              Float.abs (x2 -. x1) +. Float.abs (y2 -. y1) +. len rest
          | _ -> 0.0
        in
        acc +. len rt.Router.points)
      0.0 r.Router.routes
  in
  Alcotest.(check (float 1e-3)) "sum of segments" sum r.Router.wirelength;
  (* every route is at least as long as its net's Manhattan distance *)
  Array.iter
    (fun rt ->
      let e = p.Problem.nets.(rt.Router.net) in
      let lower = Problem.net_length p e in
      checkb "no shorter than manhattan" true (rt.Router.length +. 1e-6 >= lower))
    r.Router.routes

let test_expansion_monotone_gaps () =
  let p = placed_problem "adder8" Placer.Superflow in
  let before = Array.copy p.Problem.row_gaps in
  let r = Router.route_all p in
  checkb "expansions recorded" true (r.Router.expansions >= 0);
  Array.iteri
    (fun i g -> checkb "gaps only grow" true (g >= before.(i) -. 1e-9))
    p.Problem.row_gaps

let test_larger_benchmarks_route () =
  List.iter
    (fun name ->
      let p = placed_problem name Placer.Superflow in
      let r = Router.route_all p in
      (match Router.check_routes p r with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      checkb (name ^ " wl sane") true (r.Router.wirelength > 0.0))
    [ "apc32"; "decoder" ]

let test_gordian_placement_routes_too () =
  let p = placed_problem "adder8" Placer.Gordian in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_negotiated_mode () =
  let p = tiny_placed () in
  let r = Router.route_all ~algorithm:Router.Negotiated p in
  (match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes)

let test_negotiated_not_worse () =
  (* negotiation should never need more space than sequential claiming *)
  let route alg =
    let p = placed_problem "adder8" Placer.Superflow in
    let r = Router.route_all ~algorithm:alg p in
    (match Router.check_routes p r with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    r.Router.expansions
  in
  checkb "fewer or equal expansions" true
    (route Router.Negotiated <= route Router.Sequential)

(* ---------- congestion estimation ---------- *)

let test_congestion_density_manual () =
  (* two nets with overlapping spans in one gap -> density 2 *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Buf [| a |] in
  let y = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl Netlist.Output [| x |]);
  ignore (Netlist.add nl Netlist.Output [| y |]);
  ignore (Netlist.levelize nl);
  let p = Problem.of_netlist Tech.default nl in
  (* force the two gap-0 nets to cross: a at 0 -> x at far right, and
     b at far right -> y at 0 *)
  let cell_of node =
    let idx = ref (-1) in
    Array.iteri (fun i c -> if c.Problem.node = node then idx := i) p.Problem.cells;
    p.Problem.cells.(!idx)
  in
  (cell_of a).Problem.x <- 0.0;
  (cell_of b).Problem.x <- 500.0;
  (cell_of x).Problem.x <- 500.0;
  (cell_of y).Problem.x <- 0.0;
  checki "crossing nets overlap" 2 (Congestion.channel_density p 0);
  (* parallel (non-overlapping) spans -> density 1 *)
  (cell_of x).Problem.x <- 0.0;
  (cell_of y).Problem.x <- 500.0;
  checki "parallel nets" 1 (Congestion.channel_density p 0)

let test_congestion_preexpand_reduces_expansions () =
  let route_with_preexpand pre =
    let p = placed_problem "apc32" Placer.Superflow in
    if pre then ignore (Congestion.preexpand p);
    let r = Router.route_all p in
    r.Router.expansions
  in
  checkb "preexpansion saves router work" true
    (route_with_preexpand true <= route_with_preexpand false)

let prop_routes_edge_disjoint =
  (* check_routes validates edge-disjointness; also verify net ids and
     via counts are consistent across random placement seeds *)
  QCheck.Test.make ~name:"routing is valid across placement seeds" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let aoi = Circuits.kogge_stone_adder 2 in
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place ~seed Placer.Superflow p);
      let r = Router.route_all p in
      Router.check_routes p r = Ok ()
      && r.Router.total_vias
         = Array.fold_left (fun acc rt -> acc + rt.Router.vias) 0 r.Router.routes)

(* Everything that must be deterministic about a routing result —
   excludes runtime_s. *)
let fingerprint r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Router.routes, r.Router.expansions, r.Router.node_expansions,
            r.Router.neg_rounds, r.Router.neg_rerouted, r.Router.wirelength,
            r.Router.total_vias )
          []))

let prop_valid_and_jobs_invariant =
  (* over random placement seeds: both algorithms produce
     check_routes-clean results that are byte-identical at jobs=1 and
     jobs=4 (pair-local search state plus a fixed merge order make
     worker count unobservable) *)
  QCheck.Test.make
    ~name:"valid across seeds and jobs-invariant" ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let placed () =
        let aoi = Circuits.kogge_stone_adder 2 in
        let aqfp = Synth_flow.run_quiet aoi in
        let p = Problem.of_netlist Tech.default aqfp in
        ignore (Placer.place ~seed Placer.Superflow p);
        p
      in
      let route jobs alg =
        Parallel.set_jobs jobs;
        Fun.protect ~finally:Parallel.auto_jobs (fun () ->
            let p = placed () in
            let r = Router.route_all ~algorithm:alg p in
            (Router.check_routes p r = Ok (), fingerprint r))
      in
      List.for_all
        (fun alg ->
          let ok1, f1 = route 1 alg in
          let ok4, f4 = route 4 alg in
          ok1 && ok4 && f1 = f4)
        [ Router.Sequential; Router.Negotiated ])

let test_known_answer_sequential () =
  (* sequential QoR on a real benchmark, pinned exactly: the
     pre-overhaul float-heap core produced the same wirelength, vias
     and space expansions on this input (see the historical record in
     bench/qor_baselines.txt) *)
  let p = placed_problem "adder8" Placer.Superflow in
  let r = Router.route_all ~algorithm:Router.Sequential p in
  Alcotest.(check (float 1e-6)) "wirelength" 133480.0 r.Router.wirelength;
  checki "vias" 1226 r.Router.total_vias;
  checki "space expansions" 65 r.Router.expansions;
  checki "node expansions" 510397 r.Router.node_expansions

(* Golden routing: the exact routed bytes and counters for the flow's
   placements of three designs. The expected values were generated by
   the router before its search kernel became closure-free and before a
   failed negotiation stopped being run a second time, so they pin that
   both changes are exact. Sequential [node_expansions] is pinned too;
   Negotiated may only pop fewer states than it did then. *)
let golden_routes =
  [
    ( "adder8", Router.Sequential,
      "a2e7db05bec56847f261471ffd28fc2c wl=0x1.571bp+17 vias=1776 exp=7 rounds=0 rerouted=0",
      315982 );
    ( "adder8", Router.Negotiated,
      "dbc05b5e9fae19fde4684bd46de87738 wl=0x1.546ep+17 vias=1682 exp=5 rounds=5 rerouted=1184",
      482220 );
    ( "apc32", Router.Sequential,
      "7d54dfad9faa7b39cc49a82023d2291c wl=0x1.e8dep+16 vias=1394 exp=15 rounds=0 rerouted=0",
      257676 );
    ( "apc32", Router.Negotiated,
      "992e93bed2fe4bb894cee62089ea7e9b wl=0x1.e488p+16 vias=1338 exp=12 rounds=6 rerouted=1041",
      912396 );
    ( "decoder6", Router.Sequential,
      "abda7299ab260f708461ec3f9f6e9c6b wl=0x1.fda88p+18 vias=3596 exp=10 rounds=0 rerouted=0",
      3303638 );
    ( "decoder6", Router.Negotiated,
      "a5345e06c90cbc9e3a9747d55d580352 wl=0x1.f8768p+18 vias=3538 exp=4 rounds=7 rerouted=2914",
      5770278 );
  ]

(* the flow's placement stage: place, thread buffer lines, settle them,
   pre-size the channels (decoder 6 is placed by GORDIAN, as in the
   perf benchmark's congested workload) *)
let golden_problem name =
  let aoi, alg =
    match name with
    | "decoder6" -> (Circuits.decoder 6, Placer.Gordian)
    | _ -> (Circuits.benchmark name, Placer.Superflow)
  in
  let aqfp = Synth_flow.run_quiet aoi in
  let p0 = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p0);
  let _, p, lines = Bufferline.insert aqfp p0 in
  if lines > 0 then
    ignore
      (Detailed.run
         ~options:{ Detailed.default_options with max_passes = 3; window = 2 }
         p);
  ignore (Congestion.preexpand p);
  p

let test_router_golden () =
  List.iter
    (fun (name, alg, expected, pops) ->
      let r = Router.route_all ~algorithm:alg (golden_problem name) in
      let points =
        Array.to_list r.Router.routes
        |> List.map (fun rt ->
               String.concat ";"
                 (List.map (fun (x, y) -> Printf.sprintf "%h,%h" x y) rt.Router.points))
        |> String.concat "|" |> Digest.string |> Digest.to_hex
      in
      let got =
        Printf.sprintf "%s wl=%h vias=%d exp=%d rounds=%d rerouted=%d" points
          r.Router.wirelength r.Router.total_vias r.Router.expansions
          r.Router.neg_rounds r.Router.neg_rerouted
      in
      let what = name ^ if alg = Router.Sequential then " sequential" else " negotiated" in
      Alcotest.(check string) (what ^ " routes") expected got;
      if alg = Router.Sequential then
        checki (what ^ " node expansions") pops r.Router.node_expansions
      else
        checkb (what ^ " node expansions do not grow") true
          (r.Router.node_expansions <= pops))
    golden_routes

let () =
  Alcotest.run "sf_route"
    [
      ( "router",
        [
          Alcotest.test_case "routes all nets" `Quick test_routes_all_nets;
          Alcotest.test_case "check clean" `Quick test_route_check_clean;
          Alcotest.test_case "connects pins" `Quick test_routes_connect_pins;
          Alcotest.test_case "rectilinear on grid" `Quick test_rectilinear_on_grid;
          Alcotest.test_case "wirelength consistent" `Quick test_wirelength_consistent;
          Alcotest.test_case "expansion" `Slow test_expansion_monotone_gaps;
          Alcotest.test_case "larger benchmarks" `Slow test_larger_benchmarks_route;
          Alcotest.test_case "gordian placement" `Slow test_gordian_placement_routes_too;
          Alcotest.test_case "negotiated mode" `Quick test_negotiated_mode;
          Alcotest.test_case "negotiated expansions" `Slow test_negotiated_not_worse;
          Alcotest.test_case "congestion density" `Quick test_congestion_density_manual;
          Alcotest.test_case "preexpand" `Slow test_congestion_preexpand_reduces_expansions;
          QCheck_alcotest.to_alcotest prop_routes_edge_disjoint;
          Alcotest.test_case "known answer (sequential)" `Quick
            test_known_answer_sequential;
          QCheck_alcotest.to_alcotest prop_valid_and_jobs_invariant;
          Alcotest.test_case "golden routes" `Slow test_router_golden;
        ] );
    ]
