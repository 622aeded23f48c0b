(* Cross-module property-based tests: randomized invariants that
   complement the per-module unit suites. *)

let to_alco = QCheck_alcotest.to_alcotest

(* ---------- geometry ---------- *)

let arb_rect =
  QCheck.(
    map
      (fun (x, y, w, h) -> Geom.rect_of_size ~x ~y ~w:(w +. 1.0) ~h:(h +. 1.0))
      (quad (float_bound_inclusive 500.0) (float_bound_inclusive 500.0)
         (float_bound_inclusive 200.0) (float_bound_inclusive 200.0)))

let prop_union_contains =
  QCheck.Test.make ~name:"rect union contains both rects" ~count:200
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) ->
      let u = Geom.union_rect a b in
      u.Geom.lx <= a.Geom.lx && u.Geom.lx <= b.Geom.lx
      && u.Geom.hx >= a.Geom.hx && u.Geom.hx >= b.Geom.hx
      && u.Geom.ly <= a.Geom.ly && u.Geom.hy >= b.Geom.hy)

(* ---------- vec as a list model ---------- *)

let prop_vec_model =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (fun x -> ignore (Vec.push v x)) xs;
      Array.to_list (Vec.to_array v) = xs
      && Vec.length v = List.length xs
      && Vec.fold ( + ) 0 v = List.fold_left ( + ) 0 xs)

(* ---------- truth tables ---------- *)

let arb_tt3 = QCheck.int_bound 255

let prop_truth_de_morgan =
  QCheck.Test.make ~name:"truth tables satisfy De Morgan" ~count:200
    QCheck.(pair arb_tt3 arb_tt3)
    (fun (a, b) ->
      Truth.not_ 3 (Truth.and_ a b)
      = Truth.or_ (Truth.not_ 3 a) (Truth.not_ 3 b)
      && Truth.not_ 3 (Truth.or_ a b)
         = Truth.and_ (Truth.not_ 3 a) (Truth.not_ 3 b))

let prop_truth_maj_self_dual =
  QCheck.Test.make ~name:"majority is self-dual" ~count:200
    QCheck.(triple arb_tt3 arb_tt3 arb_tt3)
    (fun (a, b, c) ->
      let m = Truth.mask 3 in
      Truth.not_ 3 (Truth.maj (a land m) (b land m) (c land m))
      = Truth.maj (Truth.not_ 3 (a land m)) (Truth.not_ 3 (b land m))
          (Truth.not_ 3 (c land m)))

(* ---------- maj database vs truth semantics ---------- *)

let prop_majdb_cost_invariant_under_negation =
  QCheck.Test.make ~name:"negating a function costs at most one inverter" ~count:100
    arb_tt3
    (fun tt ->
      let c1 = Maj_db.cost tt and c2 = Maj_db.cost (Truth.not_ 3 tt) in
      abs (c1 - c2) <= 2)

(* ---------- tech description ---------- *)

let prop_tech_roundtrip =
  QCheck.Test.make ~name:"tech description round-trips" ~count:100
    QCheck.(pair (float_range 50.0 2000.0) (float_range 1.0 10.0))
    (fun (w_max, ghz) ->
      let t = { Tech.default with Tech.w_max; clock_freq_ghz = ghz } in
      match Tech.of_string (Tech_writer.to_string t) with
      | Ok t' ->
          Float.abs (t'.Tech.w_max -. w_max) < 1e-4
          && Float.abs (t'.Tech.clock_freq_ghz -. ghz) < 1e-4
      | Error _ -> false)

(* ---------- end-to-end pipeline invariants on random circuits ---------- *)

let prop_full_pipeline_on_random_circuits =
  QCheck.Test.make ~name:"synthesize+place+insert preserves everything" ~count:8
    QCheck.(int_bound 100_000)
    (fun seed ->
      let aoi = Circuits.iscas_like ~seed ~pi:6 ~po:3 ~gates:30 ~depth:5 in
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place Placer.Superflow p);
      let nl2, p2, _lines = Bufferline.insert aqfp p in
      Sim.equivalent aoi nl2
      && Netlist.is_balanced nl2
      && Problem.check_legal p2 = Ok ())

let prop_def_roundtrip_random =
  QCheck.Test.make ~name:"DEF round-trips across placements" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let aoi = Circuits.kogge_stone_adder 2 in
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place ~seed Placer.Superflow p);
      let routed = Router.route_all p in
      let def = Def.of_design p routed in
      match Def.of_string (Def.to_string def) with
      | Ok def2 ->
          List.length def.Def.components = List.length def2.Def.components
          && List.length def.Def.nets = List.length def2.Def.nets
      | Error _ -> false)

let prop_opt_never_grows =
  QCheck.Test.make ~name:"optimization never grows a netlist" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:8 ~po:4 ~gates:50 ~depth:6 in
      Netlist.size (Opt.optimize nl) <= Netlist.size nl)

let () =
  Alcotest.run "properties"
    [
      ( "geometry",
        [
          to_alco prop_union_contains;
        ] );
      ("containers", [ to_alco prop_vec_model ]);
      ( "boolean",
        [
          to_alco prop_truth_de_morgan;
          to_alco prop_truth_maj_self_dual;
          to_alco prop_majdb_cost_invariant_under_negation;
        ] );
      ("tech", [ to_alco prop_tech_roundtrip ]);
      ( "pipeline",
        [
          to_alco prop_full_pipeline_on_random_circuits;
          to_alco prop_def_roundtrip_random;
          to_alco prop_opt_never_grows;
        ] );
    ]
