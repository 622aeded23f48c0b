(* Tests for the sf_absint abstract-interpretation engine: the ternary
   constant domain must agree with concrete simulation on randomized
   netlists, each domain must flag its seeded defect, every AI-*
   diagnostic must carry a witness and resolve in the rule registry,
   and the whole pass family must render byte-identically at any
   worker count. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let count_rule rule diags =
  List.length (List.filter (fun d -> d.Diag.rule = rule) diags)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- random acyclic netlists with embedded constants ---------- *)

(* Every gate draws fan-ins from already-built nodes, so the graph is
   acyclic by construction; a few Const generators seed known values
   for the ternary domain to propagate. *)
let random_netlist rng =
  let nl = Netlist.create () in
  let pool = ref [] in
  let n_inputs = 2 + Rng.int rng 5 in
  for i = 0 to n_inputs - 1 do
    pool := Netlist.add nl ~name:(Printf.sprintf "i%d" i) Netlist.Input [||]
            :: !pool
  done;
  for _ = 1 to Rng.int rng 3 do
    pool := Netlist.add nl (Netlist.Const (Rng.bool rng)) [||] :: !pool
  done;
  let pick () =
    let l = !pool in
    List.nth l (Rng.int rng (List.length l))
  in
  let n_gates = 5 + Rng.int rng 30 in
  for _ = 1 to n_gates do
    let kind =
      match Rng.int rng 9 with
      | 0 -> Netlist.Not
      | 1 -> Netlist.And
      | 2 -> Netlist.Or
      | 3 -> Netlist.Nand
      | 4 -> Netlist.Nor
      | 5 -> Netlist.Xor
      | 6 -> Netlist.Xnor
      | 7 -> Netlist.Maj
      | _ -> Netlist.Buf
    in
    let fanins = Array.init (Netlist.arity kind) (fun _ -> pick ()) in
    pool := Netlist.add nl kind fanins :: !pool
  done;
  (* a couple of outputs so the netlist is not trivially dead *)
  for _ = 1 to 2 do
    ignore (Netlist.add nl Netlist.Output [| pick () |])
  done;
  nl

(* ---------- const domain: soundness against simulation ---------- *)

(* Any node the domain claims constant must evaluate to that constant
   under every simulated vector. Probed by adding an Output marker per
   claimed node (after solving) and comparing simulation results. *)
let test_const_sound_vs_sim () =
  for seed = 1 to 25 do
    let rng = Rng.create seed in
    let nl = random_netlist rng in
    let facts = Const_dom.solve nl in
    let n_outs_before = List.length (Netlist.outputs nl) in
    let probes = ref [] in
    Array.iteri
      (fun i f ->
        match (f, Netlist.kind nl i) with
        | (Const_dom.Zero | Const_dom.One), Netlist.Output -> ()
        | (Const_dom.Zero | Const_dom.One), _ ->
            ignore (Netlist.add nl Netlist.Output [| i |]);
            probes := (i, f) :: !probes
        | Const_dom.Unknown, _ -> ())
      facts;
    let probes = List.rev !probes in
    let n_in = List.length (Netlist.inputs nl) in
    for trial = 1 to 8 do
      ignore trial;
      let v = Array.init n_in (fun _ -> Rng.bool rng) in
      let outs = Sim.eval nl v in
      List.iteri
        (fun k (node, fact) ->
          let got = outs.(n_outs_before + k) in
          let want = fact = Const_dom.One in
          if got <> want then
            Alcotest.failf
              "seed %d: node %d claimed %s but simulates to %b" seed node
              (Const_dom.value_name fact) got)
        probes
    done
  done

let test_const_check_and_fold () =
  (* And(x, 0) is forced to 0 with x unknown: AI-CONST-01, witness
     chasing back to the Const generator *)
  let nl = Netlist.create () in
  let x = Netlist.add nl ~name:"x" Netlist.Input [||] in
  let c0 = Netlist.add nl (Netlist.Const false) [||] in
  let g = Netlist.add nl Netlist.And [| x; c0 |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| g |]);
  let diags = Const_dom.check nl (Const_dom.solve nl) in
  checki "AI-CONST-01 fires" 2 (count_rule "AI-CONST-01" diags);
  List.iter
    (fun d ->
      checkb "witness non-empty" true (d.Diag.witness <> []);
      checkb "witness rendered in text" true
        (contains (Diag.to_string d) "[witness: "))
    diags;
  (* folding rewrites the forced gate to a Const cell and preserves
     the simulated function *)
  let folded, st = Const_dom.fold nl in
  checkb "folded at least the gate" true (st.Const_dom.folded >= 1);
  checkb "live cone shrank" true
    (st.Const_dom.live_after <= st.Const_dom.live_before);
  checkb "function preserved" true (Sim.equivalent nl folded)

let test_fold_preserves_benchmarks () =
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let folded, _ = Const_dom.fold aoi in
      checkb (name ^ " fold preserves function") true
        (Sim.equivalent aoi folded))
    [ "adder8"; "decoder"; "c432" ]

(* ---------- load domain ---------- *)

let test_load_wasted_sink () =
  (* splitter delivers two sinks but only one can reach an output *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let s = Netlist.add nl (Netlist.Splitter 2) [| a |] in
  let b1 = Netlist.add nl Netlist.Buf [| s |] in
  let b2 = Netlist.add nl Netlist.Buf [| s |] in
  ignore b2 (* no consumer: provably wasted *);
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| b1 |]);
  let f = Facts.create nl in
  let diags = Load_dom.check nl ~fanouts:(Facts.fanouts f) (Facts.load f) in
  checki "AI-LOAD-01 fires exactly once" 1 (count_rule "AI-LOAD-01" diags);
  checkb "witness non-empty" true ((List.hd diags).Diag.witness <> [])

(* ---------- polarity domain ---------- *)

let test_polar_cancelling_pair () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let n1 = Netlist.add nl Netlist.Not [| a |] in
  let n2 = Netlist.add nl Netlist.Not [| n1 |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| n2 |]);
  let diags = Polar_dom.check nl (Polar_dom.solve nl) in
  checki "AI-POLAR-01 fires exactly once" 1 (count_rule "AI-POLAR-01" diags);
  let d = List.hd diags in
  checkb "flags the second inverter" true (d.Diag.loc = Diag.Node n2);
  checkb "witness non-empty" true (d.Diag.witness <> []);
  (* a single inverter is legitimate *)
  let nl1 = Netlist.create () in
  let a = Netlist.add nl1 Netlist.Input [||] in
  let n = Netlist.add nl1 Netlist.Not [| a |] in
  ignore (Netlist.add nl1 Netlist.Output [| n |]);
  checki "single Not clean" 0
    (List.length (Polar_dom.check nl1 (Polar_dom.solve nl1)))

(* ---------- observability domain + the lint upgrade ---------- *)

let test_obs_blocked_by_constant () =
  (* x = Or(a,b) only feeds And(x, 0): provably unobservable *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let c0 = Netlist.add nl (Netlist.Const false) [||] in
  let x = Netlist.add nl Netlist.Or [| a; b |] in
  let g = Netlist.add nl Netlist.And [| x; c0 |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| g |]);
  let f = Facts.create nl in
  let diags = Obs_dom.check nl ~consts:(Facts.const f) (Facts.obs f) in
  checki "AI-OBS-01 fires exactly once" 1 (count_rule "AI-OBS-01" diags);
  let d = List.hd diags in
  checkb "flags the blocked gate" true (d.Diag.loc = Diag.Node x);
  checkb "witness names the blocker" true (d.Diag.witness <> [])

let test_lint_dead_transitive_with_witness () =
  (* g1 -> g2 dead-ends: the old "no consumers" lint saw only g2; the
     observability upgrade flags the whole dead chain with witnesses *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let live = Netlist.add nl Netlist.And [| a; b |] in
  let g1 = Netlist.add nl Netlist.Or [| a; b |] in
  let g2 = Netlist.add nl Netlist.Buf [| g1 |] in
  ignore g2;
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| live |]);
  let diags = Lint.check nl in
  checki "both dead nodes flagged" 2 (count_rule "NL-DEAD-01" diags);
  List.iter
    (fun d ->
      if d.Diag.rule = "NL-DEAD-01" then
        checkb "dead witness non-empty" true (d.Diag.witness <> []))
    diags

(* ---------- tiers ---------- *)

let test_lint_tiers () =
  (* x AND NOT x: the Full tier proves NL-CONST-01 through the AIG;
     the Fast tier skips it (AI-CONST-01 owns cheap constants) *)
  let nl = Netlist.create () in
  let x = Netlist.add nl ~name:"x" Netlist.Input [||] in
  let nx = Netlist.add nl Netlist.Not [| x |] in
  let z = Netlist.add nl Netlist.And [| x; nx |] in
  ignore (Netlist.add nl ~name:"zero" Netlist.Output [| z |]);
  checki "Full tier proves the constant" 1
    (count_rule "NL-CONST-01" (Lint.check ~tier:Check.Full nl));
  checki "Fast tier skips the AIG lint" 0
    (count_rule "NL-CONST-01" (Lint.check ~tier:Check.Fast nl));
  (* the report header records the tier *)
  let rep =
    Check.run ~header:[ ("tier", Check.tier_name Check.Fast) ]
      [ Check.pass "lint" (fun () -> Lint.check ~tier:Check.Fast nl) ]
  in
  checkb "header rendered in text" true
    (contains (Check.render_text rep) "# tier: fast");
  checkb "header rendered in json" true
    (contains (Check.render_json rep) "{\"header\":{\"tier\":\"fast\"}}")

(* ---------- determinism across worker counts ---------- *)

let test_jobs_byte_identical () =
  let render nl =
    Check.render_text (Check.run (Absint_check.passes nl))
  in
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      Parallel.set_jobs 1;
      let r1 = render aqfp in
      Parallel.set_jobs 4;
      let r4 = render aqfp in
      Parallel.set_jobs 1;
      checks (name ^ " byte-identical at jobs 1 vs 4") r1 r4)
    [ "adder8"; "c432" ];
  (* and on seeded random netlists, where facts are less trivial *)
  for seed = 1 to 10 do
    let nl = random_netlist (Rng.create (100 + seed)) in
    Parallel.set_jobs 1;
    let r1 = render nl in
    Parallel.set_jobs 4;
    let r4 = render nl in
    Parallel.set_jobs 1;
    checks (Printf.sprintf "random %d byte-identical" seed) r1 r4
  done

(* ---------- one shared fact table ---------- *)

(* Every AI-* rule and both liveness lints fire on this netlist: x
   only feeds And(x, 0) (AI-CONST-01, AI-OBS-01), the splitter's
   second buffer dead-ends (AI-LOAD-01, NL-DEAD-01), two inverters
   cancel (AI-POLAR-01), and input [c] is unused (NL-INPUT-01). *)
let seeded_defects () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  ignore (Netlist.add nl ~name:"c" Netlist.Input [||]);
  let c0 = Netlist.add nl (Netlist.Const false) [||] in
  let x = Netlist.add nl Netlist.Or [| a; b |] in
  let g = Netlist.add nl Netlist.And [| x; c0 |] in
  let s = Netlist.add nl (Netlist.Splitter 2) [| a |] in
  let b1 = Netlist.add nl Netlist.Buf [| s |] in
  ignore (Netlist.add nl Netlist.Buf [| s |]);
  let n1 = Netlist.add nl Netlist.Not [| b1 |] in
  let n2 = Netlist.add nl Netlist.Not [| n1 |] in
  let h = Netlist.add nl Netlist.And [| n2; b |] in
  ignore (Netlist.add nl ~name:"y1" Netlist.Output [| g |]);
  ignore (Netlist.add nl ~name:"y2" Netlist.Output [| h |]);
  nl

(* The report the shared table renders, against each domain's [check]
   on facts solved here, one solve per pass. *)
let shared_report ?cache nl =
  let facts = Facts.create nl in
  Check.render_text
    (Check.run
       (Check.pass "lint" (fun () -> Lint.check ~tier:Check.Fast ~facts nl)
       :: Absint_check.passes ?cache ~facts nl))

let solo_report nl =
  let consts () = Const_dom.solve nl in
  let obs () = Obs_dom.solve nl ~fanouts:(Absint.fanouts nl) ~consts:(consts ()) in
  Check.render_text
    (Check.run
       [
         Check.pass "lint" (fun () -> Lint.check ~tier:Check.Fast nl);
         Check.pass "absint-const" (fun () -> Const_dom.check nl (consts ()));
         Check.pass "absint-obs" (fun () ->
             Obs_dom.check nl ~consts:(consts ()) (obs ()));
         Check.pass "absint-load" (fun () ->
             let fanouts = Absint.fanouts nl in
             Load_dom.check nl ~fanouts (Load_dom.solve nl ~fanouts ~obs:(obs ())));
         Check.pass "absint-polar" (fun () ->
             Polar_dom.check nl (Polar_dom.solve nl));
       ])

let test_shared_table_matches_solo () =
  let defects = seeded_defects () in
  let rep = shared_report defects in
  List.iter
    (fun rule -> checkb (rule ^ " seeded") true (contains rep rule))
    [ "AI-CONST-01"; "AI-OBS-01"; "AI-LOAD-01"; "AI-POLAR-01"; "NL-DEAD-01";
      "NL-INPUT-01" ];
  checks "seeded defects" (solo_report defects) rep;
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      checks name (solo_report aqfp) (shared_report aqfp))
    Circuits.benchmark_names

(* ---------- memo cache transparency ---------- *)

(* Cold, warm and partial (one domain's key evicted) runs render the
   same bytes, and each consults the memo once per domain. *)
let test_absint_cache_transparent () =
  List.iter
    (fun (name, nl) ->
      let store : (string, Diag.t list) Hashtbl.t = Hashtbl.create 8 in
      let hits = ref 0 and misses = ref [] in
      let cache =
        {
          Memo.find =
            (fun k ->
              let r = Hashtbl.find_opt store k in
              if r = None then misses := k :: !misses else incr hits;
              r);
          store = Hashtbl.replace store;
        }
      in
      let run () =
        hits := 0;
        misses := [];
        shared_report ~cache nl
      in
      let cold = run () in
      checki (name ^ ": cold run misses every domain") 4 (List.length !misses);
      checki (name ^ ": cold run hits nothing") 0 !hits;
      checks (name ^ ": warm report byte-identical") cold (run ());
      checki (name ^ ": warm run hits every domain") 4 !hits;
      let obs_key = "absint1:obs:" ^ Netlist.struct_hash nl in
      Hashtbl.remove store obs_key;
      checks (name ^ ": partial hit byte-identical") cold (run ());
      checkb (name ^ ": only the evicted domain missed") true
        (!misses = [ obs_key ] && !hits = 3))
    [
      ("adder8", Synth_flow.run_quiet (Circuits.benchmark "adder8"));
      ("c499", Synth_flow.run_quiet (Circuits.benchmark "c499"));
      ("seeded defects", seeded_defects ());
    ]

(* ---------- rule registry ---------- *)

let test_registry_health () =
  checkb "self_check clean" true (Rules.self_check () = []);
  (* every emitted AI-* rule, and a few others, resolve, and explain
     formats them *)
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Rules.find id <> None);
      match Rules.explain id with
      | Ok s -> checkb (id ^ " explained") true (contains s id)
      | Error e -> Alcotest.fail e)
    [ "AI-CONST-01"; "AI-OBS-01"; "AI-LOAD-01"; "AI-POLAR-01"; "AQFP-PHASE-01";
      "NL-DEAD-01"; "NL-CONST-01"; "EQ-DIFF-01"; "DB-VERSION-01" ];
  checkb "unknown id rejected" true
    (match Rules.explain "ZZ-NOPE-99" with Error _ -> true | Ok _ -> false);
  (* the generated catalog lists every registered rule *)
  let md = Rules.catalog_markdown () in
  List.iter
    (fun r -> checkb (r.Rules.id ^ " in catalog") true (contains md r.Rules.id))
    Rules.all

let () =
  Alcotest.run "absint"
    [
      ( "const",
        [
          Alcotest.test_case "sound vs simulation" `Quick
            test_const_sound_vs_sim;
          Alcotest.test_case "check + fold" `Quick test_const_check_and_fold;
          Alcotest.test_case "fold preserves benchmarks" `Quick
            test_fold_preserves_benchmarks;
        ] );
      ( "load", [ Alcotest.test_case "wasted sink" `Quick test_load_wasted_sink ] );
      ( "polar",
        [ Alcotest.test_case "cancelling pair" `Quick test_polar_cancelling_pair ]
      );
      ( "obs",
        [
          Alcotest.test_case "blocked by constant" `Quick
            test_obs_blocked_by_constant;
          Alcotest.test_case "lint dead upgrade" `Quick
            test_lint_dead_transitive_with_witness;
        ] );
      ( "tiers", [ Alcotest.test_case "fast vs full" `Quick test_lint_tiers ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4" `Quick test_jobs_byte_identical;
          Alcotest.test_case "memo cache transparent" `Quick
            test_absint_cache_transparent;
        ] );
      ( "facts",
        [
          Alcotest.test_case "shared table matches per-domain solves" `Quick
            test_shared_table_matches_solo;
        ] );
      ( "registry",
        [ Alcotest.test_case "health + explain" `Quick test_registry_health ]
      );
    ]
