(* Tests for the majority database, the AOI->MAJ converter, and
   splitter/buffer insertion — including the central invariant that
   synthesis preserves the computed function. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Maj_db ---------- *)

let test_db_total () = checki "256 entries" 256 (Maj_db.coverage ())

let test_db_implementations_correct () =
  (* Every entry's implementation evaluates to its truth table. *)
  for tt = 0 to 255 do
    let impl = Maj_db.lookup tt in
    for idx = 0 to 7 do
      let inputs = Array.init 3 (fun k -> (idx lsr k) land 1 = 1) in
      let got = Maj_eval.eval_impl impl inputs in
      let expect = (tt lsr idx) land 1 = 1 in
      checkb (Printf.sprintf "tt=%d idx=%d" tt idx) expect got
    done
  done

let test_db_known_costs () =
  let v0 = Truth.var 0 3 and v1 = Truth.var 1 3 in
  (* a plain variable is free *)
  checki "wire" 0 (Maj_db.cost v0);
  (* single negation = one inverter *)
  checki "inverter" 2 (Maj_db.cost (Truth.not_ 3 v0));
  (* and2 / or2 are single 6-JJ cells *)
  checki "and2" 6 (Maj_db.cost (Truth.and_ v0 v1));
  checki "or2" 6 (Maj_db.cost (Truth.or_ v0 v1));
  (* a full majority is a single cell *)
  checki "maj3" 6 (Maj_db.cost (Truth.maj v0 v1 (Truth.var 2 3)));
  (* nand2 = and2 + output inverter *)
  checki "nand2" 8 (Maj_db.cost (Truth.not_ 3 (Truth.and_ v0 v1)))

let test_db_xor_within_two_levels () =
  let v0 = Truth.var 0 3 and v1 = Truth.var 1 3 and v2 = Truth.var 2 3 in
  let xor2 = Truth.xor v0 v1 in
  let impl = Maj_db.lookup xor2 in
  checkb "xor2 needs >1 gate" true (Array.length impl.Maj_db.gates >= 2);
  let xor3 = Truth.xor (Truth.xor v0 v1) v2 in
  let impl3 = Maj_db.lookup xor3 in
  checkb "xor3 exists" true (impl3.Maj_db.jj > 0);
  checkb "db stays shallow" true (Maj_db.max_gates () <= 8)

let test_db_depth_bound () =
  for tt = 0 to 255 do
    let impl = Maj_db.lookup tt in
    checkb "depth bounded" true (impl.Maj_db.depth <= 4)
  done

(* ---------- Opt ---------- *)

let test_opt_constant_folding () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let zero = Netlist.add nl (Netlist.Const false) [||] in
  let one = Netlist.add nl (Netlist.Const true) [||] in
  let g1 = Netlist.add nl Netlist.And [| a; zero |] in
  (* = 0 *)
  let g2 = Netlist.add nl Netlist.Or [| g1; one |] in
  (* = 1 *)
  let g3 = Netlist.add nl Netlist.Xor [| g2; a |] in
  (* = ~a *)
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| g3 |]);
  let opt, stats = Opt.optimize_with_stats nl in
  checkb "shrunk" true (stats.Opt.nodes_after < stats.Opt.nodes_before);
  checkb "equivalent" true (Sim.equivalent nl opt);
  (* ~a is 1 input + 1 not + 1 output = 3 nodes *)
  checkb "tiny result" true (Netlist.size opt <= 3)

let test_opt_identities () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let na = Netlist.add nl Netlist.Not [| a |] in
  let nna = Netlist.add nl Netlist.Not [| na |] in
  (* double negation *)
  let aa = Netlist.add nl Netlist.And [| nna; a |] in
  (* and(x,x) = x *)
  let contradiction = Netlist.add nl Netlist.And [| aa; na |] in
  (* and(a,~a) = 0 *)
  let y = Netlist.add nl Netlist.Or [| contradiction; b |] in
  (* or(0,b) = b *)
  ignore (Netlist.add nl Netlist.Output [| y |]);
  let opt = Opt.optimize nl in
  checkb "equivalent" true (Sim.equivalent nl opt);
  (* result should be just a wire from b *)
  let gates =
    Netlist.count_kind opt (function
      | Netlist.Input | Netlist.Output | Netlist.Const _ -> false
      | _ -> true)
  in
  checki "no gates left" 0 gates

let test_opt_cse () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  (* two copies of the same expression, with commuted operands *)
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.And [| b; a |] in
  let y = Netlist.add nl Netlist.Xor [| g1; g2 |] in
  (* xor(x,x) = 0 after CSE *)
  ignore (Netlist.add nl Netlist.Output [| y |]);
  let opt = Opt.optimize nl in
  checkb "equivalent" true (Sim.equivalent nl opt);
  checkb "collapsed to constant" true
    (let driver = (Netlist.fanins opt (List.hd (Netlist.outputs opt))).(0) in
     Netlist.kind opt driver = Netlist.Const false)

let test_opt_dead_code () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let used = Netlist.add nl Netlist.And [| a; b |] in
  let dead = Netlist.add nl Netlist.Or [| a; b |] in
  let _dead2 = Netlist.add nl Netlist.Not [| dead |] in
  ignore (Netlist.add nl Netlist.Output [| used |]);
  let opt = Opt.optimize nl in
  checkb "equivalent" true (Sim.equivalent nl opt);
  checki "dead removed" 4 (Netlist.size opt)

let test_opt_preserves_io () =
  let nl = Circuits.benchmark "adder8" in
  let opt = Opt.optimize nl in
  checki "inputs" (List.length (Netlist.inputs nl)) (List.length (Netlist.inputs opt));
  checki "outputs" (List.length (Netlist.outputs nl)) (List.length (Netlist.outputs opt));
  checkb "equivalent" true (Sim.equivalent nl opt)

let prop_opt_equivalence =
  QCheck.Test.make ~name:"optimization preserves function on random DAGs" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:6 ~po:3 ~gates:30 ~depth:5 in
      let opt = Opt.optimize nl in
      Sim.equivalent nl opt && Netlist.size opt <= Netlist.size nl)

let prop_opt_idempotent =
  QCheck.Test.make ~name:"optimization is idempotent" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:5 ~po:2 ~gates:20 ~depth:4 in
      let once = Opt.optimize nl in
      let twice = Opt.optimize once in
      Netlist.size twice = Netlist.size once)

(* ---------- Builder ---------- *)

(* Every 2-input kind against every operand shape: the result must
   simulate to the kind's function, and every shape but two free
   signals must fold away without a 2-input gate. *)
let test_builder_gate2_folds () =
  let kinds =
    [
      (Netlist.And, ( && ));
      (Netlist.Or, ( || ));
      (Netlist.Nand, fun x y -> not (x && y));
      (Netlist.Nor, fun x y -> not (x || y));
      (Netlist.Xor, fun x y -> x <> y);
      (Netlist.Xnor, ( = ));
    ]
  in
  (* a shape builds both operands over the free inputs [x], [y] and
     gives their values under one input assignment *)
  let const k =
    (Printf.sprintf "%b" k, ((fun b _ _ -> Builder.const b k), fun _ _ -> k))
  in
  let x = ("x", ((fun _ x _ -> x), fun vx _ -> vx)) in
  let y = ("y", ((fun _ _ y -> y), fun _ vy -> vy)) in
  let not_x = ("~x", ((fun b x _ -> Builder.not_ b x), fun vx _ -> not vx)) in
  let shapes =
    List.concat_map
      (fun ka -> List.map (fun kb -> (const ka, const kb)) [ false; true ])
      [ false; true ]
    @ List.concat_map (fun k -> [ (const k, x); (x, const k) ]) [ false; true ]
    @ [ (x, x); (x, not_x); (not_x, x); (x, y) ]
  in
  let two_input nl = Netlist.count_kind nl (fun k -> Netlist.arity k = 2) in
  List.iter
    (fun (kind, f) ->
      List.iter
        (fun ((na, (build_a, val_a)), (nb, (build_b, val_b))) ->
          let id = Printf.sprintf "%s(%s,%s)" (Netlist.kind_name kind) na nb in
          let b = Builder.create () in
          let xi = Builder.input b () and yi = Builder.input b () in
          let a = build_a b xi yi and c = build_b b xi yi in
          let before = two_input (Builder.netlist b) in
          Builder.output b (Builder.gate2 b kind a c);
          let nl = Builder.netlist b in
          let added = two_input nl - before in
          checki (id ^ " gates added") (if na = "x" && nb = "y" then 1 else 0) added;
          List.iter
            (fun (vx, vy) ->
              checkb
                (Printf.sprintf "%s at x=%b y=%b" id vx vy)
                (f (val_a vx vy) (val_b vx vy))
                (Sim.eval nl [| vx; vy |]).(0))
            [ (false, false); (false, true); (true, false); (true, true) ])
        shapes)
    kinds

(* ---------- Aoi_to_maj ---------- *)

let equivalent_after_convert nl =
  let maj = Aoi_to_maj.convert nl in
  Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags maj = []);
  Sim.equivalent nl maj

let test_convert_preserves_function_small () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let c = Netlist.add nl Netlist.Input [||] in
  let ab = Netlist.add nl Netlist.And [| a; b |] in
  let abc = Netlist.add nl Netlist.Or [| ab; c |] in
  let y = Netlist.add nl Netlist.Xor [| abc; a |] in
  ignore (Netlist.add nl Netlist.Output [| y |]);
  checkb "equivalent" true (equivalent_after_convert nl)

let test_convert_preserves_function_benchmarks () =
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      checkb (name ^ " equivalent") true (equivalent_after_convert nl))
    [ "adder8"; "apc32"; "c432" ]

let test_convert_only_maj_kinds () =
  let nl = Circuits.benchmark "adder8" in
  let maj = Aoi_to_maj.convert nl in
  Netlist.iter maj (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Input | Netlist.Output | Netlist.Const _ | Netlist.Buf
      | Netlist.Not | Netlist.And | Netlist.Or | Netlist.Maj -> ()
      | k -> Alcotest.failf "unexpected kind %s" (Netlist.kind_name k))

let test_convert_produces_majority_gates () =
  (* a 3-input carry function should collapse into real majority use *)
  let nl = Circuits.benchmark "apc32" in
  let maj = Aoi_to_maj.convert nl in
  let n_maj = Netlist.count_kind maj (fun k -> k = Netlist.Maj) in
  checkb "some majority gates" true (n_maj > 0)

let test_convert_saves_resources () =
  let nl = Circuits.benchmark "apc32" in
  let _, stats = Aoi_to_maj.convert_with_stats nl in
  checkb "jj after <= before" true
    (stats.Aoi_to_maj.jj_after <= stats.Aoi_to_maj.jj_before);
  checkb "gate count sane" true (stats.Aoi_to_maj.maj_gates > 0)

let test_convert_idempotent_inputs () =
  (* inputs/outputs survive with names and order *)
  let nl = Circuits.benchmark "adder8" in
  let maj = Aoi_to_maj.convert nl in
  checki "inputs" (List.length (Netlist.inputs nl)) (List.length (Netlist.inputs maj));
  checki "outputs" (List.length (Netlist.outputs nl)) (List.length (Netlist.outputs maj))

let prop_convert_random_dags =
  QCheck.Test.make ~name:"conversion preserves function on random DAGs" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:6 ~po:3 ~gates:25 ~depth:5 in
      equivalent_after_convert nl)

let test_naive_mapping_equivalent () =
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      let naive = Aoi_to_maj.convert_naive nl in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags naive = []);
      checkb (name ^ " naive equivalent") true (Sim.equivalent nl naive))
    [ "adder8"; "apc32" ]

let test_cut_mapping_beats_naive () =
  (* the whole point of the Karnaugh/cut collapsing: fewer JJs *)
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      let smart = Aoi_to_maj.convert nl in
      let naive = Aoi_to_maj.convert_naive nl in
      let jj n = Cell.netlist_jj_count n in
      checkb
        (Printf.sprintf "%s: smart %d <= naive %d JJs" name (jj smart) (jj naive))
        true
        (jj smart <= jj naive))
    [ "adder8"; "apc32"; "decoder"; "c432" ]

(* ---------- Insertion ---------- *)

let fanout_legal nl =
  let counts = Netlist.fanout_counts nl in
  let ok = ref true in
  Netlist.iter nl (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Splitter k ->
          if counts.(nd.Netlist.id) <> k then ok := false
      | Netlist.Output -> ()
      | _ -> if counts.(nd.Netlist.id) > 1 then ok := false);
  !ok

let test_insertion_invariants () =
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let maj = Aoi_to_maj.convert aoi in
      let aqfp = Insertion.insert maj in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags aqfp = []);
      checkb (name ^ " fanout legal") true (fanout_legal aqfp);
      checkb (name ^ " balanced") true (Netlist.is_balanced aqfp);
      checkb (name ^ " equivalent") true (Sim.equivalent aoi aqfp))
    [ "adder8"; "apc32"; "decoder" ]

let test_insertion_splitter_tree_for_wide_fanout () =
  (* one input feeding 10 consumers must produce a splitter tree *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  for _ = 1 to 10 do
    let g = Netlist.add nl Netlist.And [| a; b |] in
    ignore (Netlist.add nl Netlist.Output [| g |])
  done;
  let aqfp, stats = Insertion.insert_with_stats nl in
  checkb "several splitters" true (stats.Insertion.splitters >= 8);
  checkb "fanout legal" true (fanout_legal aqfp);
  checkb "balanced" true (Netlist.is_balanced aqfp)

let test_insertion_no_op_on_chain () =
  (* a pure chain needs no splitters and no buffers *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Not [| a |] in
  let y = Netlist.add nl Netlist.Buf [| x |] in
  ignore (Netlist.add nl Netlist.Output [| y |]);
  let _, stats = Insertion.insert_with_stats nl in
  checki "no splitters" 0 stats.Insertion.splitters;
  checki "no buffers" 0 stats.Insertion.buffers

let test_insertion_outputs_aligned () =
  let aoi = Circuits.benchmark "adder8" in
  let aqfp = Synth_flow.run_quiet aoi in
  let phases =
    List.map (fun o -> Netlist.phase aqfp (Netlist.fanins aqfp o).(0)) (Netlist.outputs aqfp)
  in
  (match phases with
  | p :: rest -> List.iter (fun q -> checki "aligned outputs" p q) rest
  | [] -> Alcotest.fail "no outputs")

let test_insertion_stats_consistent () =
  let aoi = Circuits.benchmark "apc32" in
  let aqfp, report = Synth_flow.run aoi in
  checki "nets = edge count" (Insertion.count_nets aqfp) report.Synth_flow.nets;
  checki "jjs" (Cell.netlist_jj_count aqfp) report.Synth_flow.jjs;
  checkb "jj > nets (paper invariant)" true (report.Synth_flow.jjs > report.Synth_flow.nets / 2)

let test_insertion_arity_ablation () =
  let maj = Aoi_to_maj.convert (Circuits.benchmark "apc32") in
  let aoi = Circuits.benchmark "apc32" in
  let nl2, s2 = Insertion.insert_with_stats ~max_arity:2 maj in
  let nl3, s3 = Insertion.insert_with_stats ~max_arity:3 maj in
  (* both stay correct *)
  checkb "binary equivalent" true (Sim.equivalent aoi nl2);
  checkb "binary balanced" true (Netlist.is_balanced nl2);
  (* binary trees need at least as many splitter cells, and never a
     shorter pipeline *)
  checkb "binary needs >= splitters" true
    (s2.Insertion.splitters >= s3.Insertion.splitters);
  checkb "binary no shallower" true (s2.Insertion.delay >= s3.Insertion.delay);
  ignore nl3

let test_ladder_insertion_invariants () =
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let maj = Aoi_to_maj.convert aoi in
      let aqfp, stats = Insertion.insert_ladder_with_stats maj in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags aqfp = []);
      checkb (name ^ " fanout legal") true (fanout_legal aqfp);
      checkb (name ^ " balanced") true (Netlist.is_balanced aqfp);
      checkb (name ^ " equivalent") true (Sim.equivalent aoi aqfp);
      checkb (name ^ " counted") true (stats.Insertion.jj > 0))
    [ "adder8"; "apc32"; "sorter32" ]

let test_ladder_usually_cheaper () =
  (* the sharing argument: on chain-heavy circuits ladders need fewer
     buffers than per-edge insertion *)
  List.iter
    (fun name ->
      let maj = Aoi_to_maj.convert (Circuits.benchmark name) in
      let _, per_edge = Insertion.insert_with_stats maj in
      let _, ladder = Insertion.insert_ladder_with_stats maj in
      checkb
        (Printf.sprintf "%s: ladder %d <= per-edge %d buffers" name
           ladder.Insertion.buffers per_edge.Insertion.buffers)
        true
        (ladder.Insertion.buffers <= per_edge.Insertion.buffers))
    [ "adder8"; "c432"; "sorter32" ]

let prop_ladder_preserves_function =
  QCheck.Test.make ~name:"ladder insertion preserves function" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:5 ~po:3 ~gates:20 ~depth:4 in
      let maj = Aoi_to_maj.convert nl in
      let aqfp, _ = Insertion.insert_ladder_with_stats maj in
      Sim.equivalent nl aqfp && Netlist.is_balanced aqfp && fanout_legal aqfp)

let prop_insertion_preserves_function =
  QCheck.Test.make ~name:"synthesis end-to-end preserves function" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Circuits.iscas_like ~seed ~pi:5 ~po:3 ~gates:20 ~depth:4 in
      let aqfp = Synth_flow.run_quiet nl in
      Sim.equivalent nl aqfp && Netlist.is_balanced aqfp)

let test_formal_equivalence_of_synthesis () =
  (* BDD-based formal check (not just simulation) that the synthesis
     chain preserves the function. Too_large is acceptable (ordering
     dependent); Different is a bug. *)
  List.iter
    (fun (name, aoi) ->
      let aqfp = Synth_flow.run_quiet aoi in
      match Bdd.check_equivalence ~max_nodes:2_000_000 aoi aqfp with
      | Bdd.Equivalent -> ()
      | Bdd.Too_large -> () (* fall back covered by simulation tests *)
      | Bdd.Different cex ->
          Alcotest.failf "%s: synthesis formally differs (cex of %d bits)" name
            (Array.length cex))
    [
      ("adder4", Circuits.kogge_stone_adder 4);
      ("mult3", Circuits.array_multiplier 3);
      ("counter8", Circuits.parallel_counter 8);
      ("random", Circuits.iscas_like ~seed:99 ~pi:8 ~po:4 ~gates:40 ~depth:6);
    ]

let test_table2_shape () =
  (* Table II reproduction sanity: JJs > nets for every benchmark, and
     sizes are in the right league (same order of magnitude class). *)
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let _, r = Synth_flow.run aoi in
      checkb (name ^ " jj>nets") true (r.Synth_flow.jjs > r.Synth_flow.nets);
      checkb (name ^ " delay sane") true (r.Synth_flow.delay > 3 && r.Synth_flow.delay < 200))
    [ "adder8"; "apc32"; "decoder" ]

let () =
  Alcotest.run "sf_synth"
    [
      ( "maj_db",
        [
          Alcotest.test_case "total" `Quick test_db_total;
          Alcotest.test_case "implementations correct" `Quick test_db_implementations_correct;
          Alcotest.test_case "known costs" `Quick test_db_known_costs;
          Alcotest.test_case "xor" `Quick test_db_xor_within_two_levels;
          Alcotest.test_case "depth bound" `Quick test_db_depth_bound;
        ] );
      ( "opt",
        [
          Alcotest.test_case "constant folding" `Quick test_opt_constant_folding;
          Alcotest.test_case "identities" `Quick test_opt_identities;
          Alcotest.test_case "cse" `Quick test_opt_cse;
          Alcotest.test_case "dead code" `Quick test_opt_dead_code;
          Alcotest.test_case "io preserved" `Quick test_opt_preserves_io;
          QCheck_alcotest.to_alcotest prop_opt_equivalence;
          QCheck_alcotest.to_alcotest prop_opt_idempotent;
        ] );
      ("builder", [ Alcotest.test_case "gate2 folds" `Quick test_builder_gate2_folds ]);
      ( "aoi_to_maj",
        [
          Alcotest.test_case "small" `Quick test_convert_preserves_function_small;
          Alcotest.test_case "benchmarks" `Slow test_convert_preserves_function_benchmarks;
          Alcotest.test_case "kinds" `Quick test_convert_only_maj_kinds;
          Alcotest.test_case "majority appears" `Quick test_convert_produces_majority_gates;
          Alcotest.test_case "saves resources" `Quick test_convert_saves_resources;
          Alcotest.test_case "io preserved" `Quick test_convert_idempotent_inputs;
          QCheck_alcotest.to_alcotest prop_convert_random_dags;
        ] );
      ( "naive_baseline",
        [
          Alcotest.test_case "equivalent" `Quick test_naive_mapping_equivalent;
          Alcotest.test_case "cut mapping wins" `Quick test_cut_mapping_beats_naive;
        ] );
      ( "insertion",
        [
          Alcotest.test_case "invariants" `Slow test_insertion_invariants;
          Alcotest.test_case "splitter tree" `Quick test_insertion_splitter_tree_for_wide_fanout;
          Alcotest.test_case "chain no-op" `Quick test_insertion_no_op_on_chain;
          Alcotest.test_case "outputs aligned" `Quick test_insertion_outputs_aligned;
          Alcotest.test_case "stats" `Quick test_insertion_stats_consistent;
          Alcotest.test_case "arity ablation" `Quick test_insertion_arity_ablation;
          Alcotest.test_case "ladder invariants" `Quick test_ladder_insertion_invariants;
          Alcotest.test_case "ladder cheaper" `Quick test_ladder_usually_cheaper;
          QCheck_alcotest.to_alcotest prop_ladder_preserves_function;
          QCheck_alcotest.to_alcotest prop_insertion_preserves_function;
          Alcotest.test_case "formal equivalence" `Quick test_formal_equivalence_of_synthesis;
          Alcotest.test_case "table2 shape" `Slow test_table2_shape;
        ] );
    ]
