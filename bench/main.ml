(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation on this implementation (printing
   paper-vs-measured rows), renders EXPERIMENTS.md from the same data,
   and runs bechamel micro-benchmarks of each flow stage — one
   Test.make per table/figure plus per-stage micro tests.

     dune exec bench/main.exe            # everything (several minutes)
     dune exec bench/main.exe -- quick   # small circuits only *)

open Bechamel

let quick = Array.exists (fun a -> a = "quick") Sys.argv

(* `-- negotiated` runs every routing-dependent table/ablation/micro
   benchmark with the PathFinder router instead of the sequential
   default, so QoR and speedup numbers can be compared per algorithm
   (previously several harnesses hardcoded the default). *)
let router_alg =
  if Array.exists (fun a -> a = "negotiated") Sys.argv then Router.Negotiated
  else Router.Sequential

let router_name =
  match router_alg with Router.Sequential -> "sequential" | Router.Negotiated -> "negotiated"

let table_circuits =
  if quick then [ "adder8"; "apc32"; "decoder" ] else Circuits.benchmark_names

let ablation_circuits =
  if quick then [ "adder8" ] else [ "adder8"; "apc32"; "decoder"; "sorter32" ]

(* ---- Fig. 5: full layout of apc128 ---- *)

let fig5 () =
  print_endline "Fig. 5: final AQFP layout (full flow, GDSII emission)";
  let name = if quick then "adder8" else "apc128" in
  let gds = name ^ ".gds" in
  let r = Flow.run ~router:router_alg ~gds_path:gds (Circuits.benchmark name) in
  Format.printf "%s: %a@." name Layout.pp_stats (Layout.stats r.Flow.layout);
  Format.printf "    %a@." Sta.pp_report r.Flow.sta;
  Format.printf "    DRC: %d violation(s) after %d fix round(s); GDSII: %s@.@."
    (List.length r.Flow.violations)
    r.Flow.drc_fix_rounds gds

(* ---- ablations: the design choices DESIGN.md calls out ---- *)

let ablation_timing_weight () =
  print_endline
    "Ablation: global-placement timing weight (wirelength vs slack tradeoff, apc32)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let t = Table.create ~headers:[ "timing weight"; "HPWL (um)"; "WNS (ps)"; "violations" ] in
  List.iter
    (fun tw ->
      let p = Problem.of_netlist Tech.default aqfp in
      Global.run ~options:{ Global.default_options with Global.timing_weight = tw } p;
      ignore (Detailed.run p);
      let sta = Sta.analyze p in
      Table.add_row t
        [
          Table.fmt_float ~dec:2 tw;
          Table.fmt_float ~dec:0 (Problem.hpwl p);
          Table.fmt_float sta.Sta.wns_ps;
          string_of_int sta.Sta.violations;
        ])
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
  Table.print t;
  print_newline ()

let ablation_sweeps () =
  print_endline "Ablation: barycenter ordering sweeps (legal-quality convergence, apc32)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let t = Table.create ~headers:[ "sweeps"; "HPWL (um)" ] in
  List.iter
    (fun sweeps ->
      let p = Problem.of_netlist Tech.default aqfp in
      Quadratic.solve p ~net_weight:(fun _ -> 1.0);
      Legalize.run p;
      if sweeps > 0 then Global.barycenter_sweeps ~sweeps p;
      Table.add_row t [ string_of_int sweeps; Table.fmt_float ~dec:0 (Problem.hpwl p) ])
    [ 0; 5; 15; 30; 60 ];
  Table.print t;
  print_newline ()

let ablation_splitter_arity () =
  print_endline
    "Ablation: splitter-tree arity (binary chains vs the library's 3-output cells)";
  let t =
    Table.create
      ~headers:[ "circuit"; "arity"; "splitters"; "buffers"; "JJs"; "delay" ]
  in
  List.iter
    (fun name ->
      let maj = Aoi_to_maj.convert (Circuits.benchmark name) in
      List.iter
        (fun arity ->
          let _, s = Insertion.insert_with_stats ~max_arity:arity maj in
          Table.add_row t
            [
              name;
              string_of_int arity;
              string_of_int s.Insertion.splitters;
              string_of_int s.Insertion.buffers;
              Table.fmt_int s.Insertion.jj;
              string_of_int s.Insertion.delay;
            ])
        [ 2; 3 ])
    (if quick then [ "apc32" ] else [ "apc32"; "decoder"; "sorter32" ]);
  Table.print t;
  print_newline ()

let ablation_detailed_strategies () =
  print_endline
    "Ablation: detailed-placement strategies (greedy swaps / +row DP, apc32)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let t = Table.create ~headers:[ "strategy"; "HPWL (um)"; "WNS (ps)"; "cost" ] in
  let base () =
    let p = Problem.of_netlist Tech.default aqfp in
    Global.run p;
    Legalize.run p;
    p
  in
  let record label p =
    let sta = Sta.analyze p in
    Table.add_row t
      [
        label;
        Table.fmt_float ~dec:0 (Problem.hpwl p);
        Table.fmt_float sta.Sta.wns_ps;
        Table.fmt_float ~dec:0 (Place_cost.total p Place_cost.default_weights);
      ]
  in
  let p = base () in
  record "none (global only)" p;
  let p = base () in
  ignore (Detailed.run p);
  record "greedy swaps" p;
  let p = base () in
  ignore (Detailed.run p);
  ignore (Row_dp.run p);
  record "swaps + row DP" p;
  Table.print t;
  print_newline ()

let ablation_router_algorithm () =
  print_endline "Ablation: sequential vs negotiated-congestion routing (adder8)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let t =
    Table.create ~headers:[ "router"; "routed WL (um)"; "vias"; "expansions"; "time (s)" ]
  in
  List.iter
    (fun (alg, label) ->
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place Placer.Superflow p);
      let r = Router.route_all ~algorithm:alg p in
      Table.add_row t
        [
          label;
          Table.fmt_float ~dec:0 r.Router.wirelength;
          string_of_int r.Router.total_vias;
          string_of_int r.Router.expansions;
          Table.fmt_float r.Router.runtime_s;
        ])
    [ (Router.Sequential, "sequential"); (Router.Negotiated, "negotiated") ];
  Table.print t;
  print_newline ()

let ablation_via_cost () =
  print_endline "Ablation: router via cost (wirelength vs via count, adder8)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let t = Table.create ~headers:[ "via cost"; "routed WL (um)"; "vias"; "expansions" ] in
  List.iter
    (fun vc ->
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place Placer.Superflow p);
      let r = Router.route_all ~algorithm:router_alg ~via_cost:vc p in
      Table.add_row t
        [
          Table.fmt_float ~dec:0 vc;
          Table.fmt_float ~dec:0 r.Router.wirelength;
          string_of_int r.Router.total_vias;
          string_of_int r.Router.expansions;
        ])
    [ 5.0; 20.0; 60.0 ];
  Table.print t;
  print_newline ()

let energy_table () =
  print_endline "Extension: adiabatic energy estimates (paper SSI motivation)";
  let t =
    Table.create
      ~headers:[ "circuit"; "JJs"; "energy/cycle (J)"; "power @5GHz (W)"; "vs CMOS" ]
  in
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      let r = Energy.of_netlist Tech.default aqfp in
      Table.add_row t
        [
          name;
          Table.fmt_int r.Energy.jj_count;
          Printf.sprintf "%.2e" r.Energy.energy_per_cycle_j;
          Printf.sprintf "%.2e" r.Energy.power_w;
          Printf.sprintf "%.0fx" r.Energy.efficiency_gain;
        ])
    table_circuits;
  Table.print t;
  print_newline ()

let ablation_maj_mapping () =
  print_endline
    "Ablation: per-gate vs cut-collapsing majority mapping (the paper's Karnaugh step)";
  let t = Table.create ~headers:[ "circuit"; "naive JJs"; "cut-mapped JJs"; "saved" ] in
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      let smart = Cell.netlist_jj_count (Aoi_to_maj.convert nl) in
      let naive = Cell.netlist_jj_count (Aoi_to_maj.convert_naive nl) in
      Table.add_row t
        [
          name;
          Table.fmt_int naive;
          Table.fmt_int smart;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int (naive - smart) /. float_of_int naive);
        ])
    (if quick then [ "adder8"; "apc32" ] else [ "adder8"; "apc32"; "decoder"; "sorter32"; "c432" ]);
  Table.print t;
  print_newline ()

let ablation_row_dp () =
  print_endline
    "Ablation: shortest-path row polish (the paper's SIII-C3 transform, apc32)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let t = Table.create ~headers:[ "pipeline"; "HPWL (um)"; "buffer lines"; "WNS (ps)" ] in
  let run with_dp =
    let p = Problem.of_netlist Tech.default aqfp in
    Global.run p;
    Legalize.run p;
    ignore (Detailed.run p);
    if with_dp then ignore (Row_dp.run p);
    let sta = Sta.analyze p in
    Table.add_row t
      [
        (if with_dp then "swaps + row DP" else "swaps only");
        Table.fmt_float ~dec:0 (Problem.hpwl p);
        string_of_int (Problem.buffer_lines p);
        Table.fmt_float sta.Sta.wns_ps;
      ]
  in
  run false;
  run true;
  Table.print t;
  print_newline ()

let seed_stability () =
  print_endline "Robustness: SuperFlow placement across seeds (adder8)";
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let hpwls =
    List.map
      (fun seed ->
        let p = Problem.of_netlist Tech.default aqfp in
        let r = Placer.place ~seed Placer.Superflow p in
        r.Placer.hpwl)
      [ 1; 2; 3; 4; 5 ]
  in
  let arr = Array.of_list hpwls in
  Format.printf "  HPWL over 5 seeds: mean %.0f um, stddev %.0f um (%.1f%%)@.@."
    (Stats.mean arr) (Stats.stddev arr)
    (100.0 *. Stats.stddev arr /. Stats.mean arr)

let timing_yield () =
  print_endline
    "Extension: process-variation timing yield (JJ spread), clocked at 95% of each design's fmax";
  let t =
    Table.create
      ~headers:
        [ "circuit"; "clock (GHz)"; "sigma (ps)"; "yield"; "WNS mean (ps)"; "WNS sigma (ps)" ]
  in
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place Placer.Superflow p);
      (* derate to the placement's own achievable clock so the yield
         question is meaningful *)
      let ghz = 0.95 *. Sta.fmax_ghz p in
      let p = { p with Problem.tech = { Tech.default with Tech.clock_freq_ghz = ghz } } in
      List.iter
        (fun sigma ->
          let y = Sta.monte_carlo ~samples:200 ~sigma_ps:sigma p in
          Table.add_row t
            [
              name;
              Table.fmt_float ~dec:2 ghz;
              Table.fmt_float sigma;
              Printf.sprintf "%.0f%%" (100.0 *. y.Sta.yield_fraction);
              Table.fmt_float y.Sta.wns_mean_ps;
              Table.fmt_float y.Sta.wns_stddev_ps;
            ])
        [ 0.2; 0.5; 2.0 ])
    (if quick then [ "adder8" ] else [ "adder8"; "apc32"; "sorter32" ]);
  Table.print t;
  print_newline ()

(* ---- multicore speedup: jobs=1 vs jobs=N over the parallel stages ----

   Also emits machine-readable BENCH_STAGE lines (one JSON object per
   line) so CI can diff per-stage timings across commits. *)

let stage_json ~circuit ~stage ~jobs ~seconds =
  Printf.printf
    "BENCH_STAGE {\"circuit\":\"%s\",\"stage\":\"%s\",\"jobs\":%d,\"seconds\":%.4f}\n"
    circuit stage jobs seconds

let speedup_table () =
  print_endline
    "Extension: multicore speedup (domain pool; results identical by construction)";
  let jn = max 4 (Domain.recommended_domain_count ()) in
  let circuits = if quick then [ "adder8"; "apc32" ] else [ "adder8"; "apc32"; "sorter32" ] in
  let t =
    Table.create
      ~headers:
        [
          "circuit";
          "stage";
          "jobs=1 (s)";
          Printf.sprintf "jobs=%d (s)" jn;
          "speedup";
          "identical";
        ]
  in
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      (* fresh problem per jobs setting; stage wall times + QoR *)
      let run_stages jobs =
        Parallel.set_jobs jobs;
        let p = Problem.of_netlist Tech.default aqfp in
        let _, place_s =
          Wallclock.time (fun () -> ignore (Placer.place Placer.Superflow p))
        in
        let routed, route_s =
          Wallclock.time (fun () -> Router.route_all ~algorithm:router_alg p)
        in
        let sta, sta_s = Wallclock.time (fun () -> Sta.analyze_routed p routed) in
        let layout = Layout.build p routed in
        let viols, drc_s =
          Wallclock.time (fun () -> (Drc.check layout).Drc.diags)
        in
        let check_rep, check_s =
          Wallclock.time (fun () ->
              Check.run
                [
                  Check.pass "lint" (fun () -> Lint.check aqfp);
                  Check.pass "aqfp" (fun () -> Aqfp_check.check aqfp);
                  Check.pass "place" (fun () -> Place_audit.check aqfp p);
                  Check.pass "lvs" (fun () -> Lvs.check p layout);
                ])
        in
        let metrics =
          ( Problem.hpwl p,
            routed.Router.wirelength,
            routed.Router.total_vias,
            sta.Sta.wns_ps,
            List.length viols,
            (* rendered diagnostics join the QoR identity check: the
               report must be byte-identical at any pool size *)
            Check.render_text check_rep )
        in
        ( [
            ("place", place_s);
            ("route", route_s);
            ("sta", sta_s);
            ("drc", drc_s);
            ("check", check_s);
          ],
          metrics )
      in
      let serial, m1 = run_stages 1 in
      let par, mn = run_stages jn in
      let identical = if m1 = mn then "yes" else "NO" in
      List.iter2
        (fun (stage, t1) (_, tn) ->
          stage_json ~circuit:name ~stage ~jobs:1 ~seconds:t1;
          stage_json ~circuit:name ~stage ~jobs:jn ~seconds:tn;
          Table.add_row t
            [
              name;
              stage;
              Table.fmt_float ~dec:3 t1;
              Table.fmt_float ~dec:3 tn;
              (if tn > 0.0 then Printf.sprintf "%.2fx" (t1 /. tn) else "n/a");
              identical;
            ])
        serial par)
    circuits;
  Parallel.auto_jobs ();
  Table.print t;
  print_newline ()

(* ---- cache study: cold vs warm flow through the design database ----

   Emits machine-readable BENCH_CACHE lines (one JSON object per line,
   next to BENCH_STAGE) so CI can track warm-path speedups. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_db_dir name =
  let f = Filename.temp_file ("sfdb_bench_" ^ name) "" in
  Sys.remove f;
  f

let cache_json ~circuit ~cold_s ~warm_s ~hits ~misses =
  Printf.printf
    "BENCH_CACHE {\"circuit\":\"%s\",\"cold_s\":%.4f,\"warm_s\":%.4f,\"hits\":%d,\"misses\":%d,\"speedup\":%.1f}\n"
    circuit cold_s warm_s hits misses
    (if warm_s > 0.0 then cold_s /. warm_s else 0.0)

let cache_study () =
  print_endline
    "Extension: cold vs warm flow through the design database (sf_db)";
  let circuits =
    if quick then [ "adder8" ] else [ "adder8"; "apc32"; "decoder" ]
  in
  let t =
    Table.create
      ~headers:
        [ "circuit"; "cold (s)"; "warm (s)"; "speedup"; "warm hits"; "identical" ]
  in
  List.iter
    (fun name ->
      let dir = fresh_db_dir name in
      let db =
        match Db.open_ dir with
        | Ok db -> db
        | Error d -> failwith (Diag.to_string d)
      in
      let aoi = Circuits.benchmark name in
      let cold, cold_s =
        Wallclock.time (fun () -> Flow.run ~check:true ~db ~router:router_alg aoi)
      in
      Db.reset_log db;
      let warm, warm_s =
        Wallclock.time (fun () -> Flow.run ~check:true ~db ~router:router_alg aoi)
      in
      let hits, misses = (Db.hits db, Db.misses db) in
      (* the warm path must reproduce the cold artifacts byte for byte *)
      let identical =
        Gds.to_bytes (Layout.to_gds cold.Flow.layout)
          = Gds.to_bytes (Layout.to_gds warm.Flow.layout)
        && Check.render_text (Option.get cold.Flow.check_report)
           = Check.render_text (Option.get warm.Flow.check_report)
      in
      cache_json ~circuit:name ~cold_s ~warm_s ~hits ~misses;
      Table.add_row t
        [
          name;
          Table.fmt_float ~dec:3 cold_s;
          Table.fmt_float ~dec:3 warm_s;
          (if warm_s > 0.0 then Printf.sprintf "%.0fx" (cold_s /. warm_s)
           else "n/a");
          Printf.sprintf "%d/%d" hits (hits + misses);
          (if identical then "yes" else "NO");
        ];
      rm_rf dir)
    circuits;
  Table.print t;
  print_newline ()

(* ---- equivalence-engine study: BDD vs CDCL SAT on the synthesis
   guards, plus the proof-cache warm path ----

   Emits machine-readable BENCH_EQUIV lines (one JSON object per
   line, next to BENCH_STAGE / BENCH_CACHE) so CI can track the
   complete-proof engines: per-circuit wall time under each engine,
   how many outputs each engine failed to prove (BDD blow-up
   fallbacks / SAT budget timeouts), and the speedup of re-proving
   against a warm sf_db proof cache. *)

let count_rule rule diags =
  List.length (List.filter (fun d -> d.Diag.rule = rule) diags)

let equiv_json ~circuit ~bdd_s ~sat_s ~bdd_fallbacks ~sat_timeouts ~cold_s
    ~warm_s =
  Printf.printf
    "BENCH_EQUIV {\"circuit\":\"%s\",\"bdd_s\":%.4f,\"sat_s\":%.4f,\"bdd_fallbacks\":%d,\"sat_timeouts\":%d,\"proof_cold_s\":%.4f,\"proof_warm_s\":%.4f,\"cache_speedup\":%.1f}\n"
    circuit bdd_s sat_s bdd_fallbacks sat_timeouts cold_s warm_s
    (if warm_s > 0.0 then cold_s /. warm_s else 0.0)

let equiv_study () =
  print_endline
    "Extension: equivalence-guard engines (BDD vs CDCL SAT) and the sf_db \
     proof cache";
  let circuits =
    if quick then [ "adder8"; "decoder" ]
    else [ "adder8"; "apc32"; "decoder"; "c432"; "c499"; "c1908" ]
  in
  let t =
    Table.create
      ~headers:
        [ "circuit"; "bdd (s)"; "sat (s)"; "bdd fallback"; "sat timeout";
          "proof cold (s)"; "proof warm (s)"; "cache speedup" ]
  in
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let (_, rep_bdd), bdd_s =
        Wallclock.time (fun () -> Synth_flow.run ~check:true ~engine:`Bdd aoi)
      in
      let (_, rep_sat), sat_s =
        Wallclock.time (fun () -> Synth_flow.run ~check:true ~engine:`Sat aoi)
      in
      let bdd_fallbacks =
        count_rule "EQ-FALLBACK-01" rep_bdd.Synth_flow.guard_diags
      in
      let sat_timeouts =
        count_rule "EQ-TIMEOUT-01" rep_sat.Synth_flow.guard_diags
      in
      (* proof cache: cold stores every cone verdict, warm replays them *)
      let dir = fresh_db_dir name in
      let db =
        match Db.open_ dir with
        | Ok db -> db
        | Error d -> failwith (Diag.to_string d)
      in
      let cache =
        {
          Memo.find = (fun k -> Db.find_proof db ~key:k);
          store = (fun k v -> Db.put_proof db ~key:k v);
        }
      in
      let (_, rep_cold), cold_s =
        Wallclock.time (fun () ->
            Synth_flow.run ~check:true ~engine:`Sat ~cache aoi)
      in
      let (_, rep_warm), warm_s =
        Wallclock.time (fun () ->
            Synth_flow.run ~check:true ~engine:`Sat ~cache aoi)
      in
      (* the warm diagnostics must reproduce the cold ones exactly *)
      assert (rep_warm.Synth_flow.guard_diags = rep_cold.Synth_flow.guard_diags);
      rm_rf dir;
      equiv_json ~circuit:name ~bdd_s ~sat_s ~bdd_fallbacks ~sat_timeouts
        ~cold_s ~warm_s;
      Table.add_row t
        [
          name;
          Table.fmt_float ~dec:3 bdd_s;
          Table.fmt_float ~dec:3 sat_s;
          Table.fmt_int bdd_fallbacks;
          Table.fmt_int sat_timeouts;
          Table.fmt_float ~dec:3 cold_s;
          Table.fmt_float ~dec:3 warm_s;
          (if warm_s > 0.0 then Printf.sprintf "%.0fx" (cold_s /. warm_s)
           else "n/a");
        ])
    circuits;
  Table.print t;
  print_newline ()

(* ---- absint study: the fast dataflow tier vs the AIG/SAT-backed
   lints, and the constant-fold effect on the equivalence cones ----

   Emits machine-readable BENCH_ABSINT lines (one JSON object per
   line, next to BENCH_STAGE / BENCH_CACHE / BENCH_EQUIV): per-circuit
   wall time of the five sf_absint passes against the fast and full
   lint tiers, the finding count, and how much the ternary-constant
   fold shrinks the live per-output cones the BDD/SAT engines would
   traverse. *)

let absint_json ~circuit ~absint_s ~fast_s ~full_s ~findings ~live_before
    ~live_after =
  Printf.printf
    "BENCH_ABSINT {\"circuit\":\"%s\",\"absint_s\":%.4f,\"fast_lint_s\":%.4f,\"full_lint_s\":%.4f,\"findings\":%d,\"cone_live_before\":%d,\"cone_live_after\":%d,\"cone_shrink_pct\":%.1f}\n"
    circuit absint_s fast_s full_s findings live_before live_after
    (if live_before > 0 then
       100.0 *. float_of_int (live_before - live_after)
       /. float_of_int live_before
     else 0.0)

let absint_study () =
  print_endline
    "Extension: abstract-interpretation tier (sf_absint) vs the AIG/SAT \
     lints, and cone constant-folding";
  let circuits =
    if quick then [ "adder8"; "decoder" ]
    else [ "adder8"; "apc32"; "decoder"; "c432"; "c499"; "c1908" ]
  in
  let t =
    Table.create
      ~headers:
        [ "circuit"; "absint (s)"; "fast lint (s)"; "full lint (s)";
          "findings"; "cone live"; "after fold"; "shrink" ]
  in
  List.iter
    (fun name ->
      let aoi = Circuits.benchmark name in
      let aqfp = Synth_flow.run_quiet aoi in
      let rep, absint_s =
        Wallclock.time (fun () -> Check.run (Absint_check.passes aqfp))
      in
      let _, fast_s =
        Wallclock.time (fun () -> Lint.check ~tier:Check.Fast aqfp)
      in
      let _, full_s =
        Wallclock.time (fun () -> Lint.check ~tier:Check.Full aqfp)
      in
      let findings = List.length rep.Check.diags in
      (* cone-size effect of the ternary-constant fold, summed over
         every primary output's extracted cone *)
      let live_before = ref 0 and live_after = ref 0 in
      List.iter
        (fun oid ->
          let c = Equiv.cone aqfp oid in
          let _, st = Const_dom.fold c in
          live_before := !live_before + st.Const_dom.live_before;
          live_after := !live_after + st.Const_dom.live_after)
        (Netlist.outputs aqfp);
      absint_json ~circuit:name ~absint_s ~fast_s ~full_s ~findings
        ~live_before:!live_before ~live_after:!live_after;
      Table.add_row t
        [
          name;
          Table.fmt_float ~dec:3 absint_s;
          Table.fmt_float ~dec:3 fast_s;
          Table.fmt_float ~dec:3 full_s;
          Table.fmt_int findings;
          Table.fmt_int !live_before;
          Table.fmt_int !live_after;
          Printf.sprintf "%.1f%%"
            (if !live_before > 0 then
               100.0
               *. float_of_int (!live_before - !live_after)
               /. float_of_int !live_before
             else 0.0);
        ])
    circuits;
  Table.print t;
  print_newline ()

let run_ablations () =
  timing_yield ();
  seed_stability ();
  ablation_maj_mapping ();
  ablation_splitter_arity ();
  ablation_timing_weight ();
  ablation_sweeps ();
  ablation_row_dp ();
  ablation_detailed_strategies ();
  ablation_router_algorithm ();
  ablation_via_cost ();
  energy_table ()

(* ---- bechamel micro-benchmarks: one per table/figure ---- *)

let micro_tests () =
  (* prebuilt inputs so the timed body is only the stage under test *)
  let aoi = Circuits.benchmark "adder8" in
  let maj = Aoi_to_maj.convert aoi in
  let aqfp = Synth_flow.run_quiet aoi in
  let placed () =
    let p = Problem.of_netlist Tech.default aqfp in
    ignore (Placer.place Placer.Superflow p);
    p
  in
  let p_placed = placed () in
  let routed = Router.route_all ~algorithm:router_alg p_placed in
  let layout = Layout.build p_placed routed in
  Test.make_grouped ~name:"superflow"
    [
      (* Table II: the synthesis stage *)
      Test.make ~name:"table2:synthesis(adder8)"
        (Staged.stage (fun () -> ignore (Synth_flow.run aoi)));
      Test.make ~name:"table2:aoi-to-maj(adder8)"
        (Staged.stage (fun () -> ignore (Aoi_to_maj.convert aoi)));
      Test.make ~name:"table2:insertion(adder8)"
        (Staged.stage (fun () -> ignore (Insertion.insert maj)));
      (* Table III: the three placement pipelines *)
      Test.make ~name:"table3:place-gordian(adder8)"
        (Staged.stage (fun () ->
             let p = Problem.of_netlist Tech.default aqfp in
             ignore (Placer.place Placer.Gordian p)));
      Test.make ~name:"table3:place-taas(adder8)"
        (Staged.stage (fun () ->
             let p = Problem.of_netlist Tech.default aqfp in
             ignore (Placer.place Placer.Taas p)));
      Test.make ~name:"table3:place-superflow(adder8)"
        (Staged.stage (fun () ->
             let p = Problem.of_netlist Tech.default aqfp in
             ignore (Placer.place Placer.Superflow p)));
      Test.make ~name:"table3:sta(adder8)"
        (Staged.stage (fun () -> ignore (Sta.analyze p_placed)));
      (* Table IV: routing *)
      Test.make ~name:"table4:route(adder8)"
        (Staged.stage (fun () ->
             let p = placed () in
             ignore (Router.route_all ~algorithm:router_alg p)));
      (* Fig. 4: detailed placement (the ablated stage) *)
      Test.make ~name:"fig4:detailed-mixed(adder8)"
        (Staged.stage (fun () ->
             let p = Problem.of_netlist Tech.default aqfp in
             Quadratic.solve p ~net_weight:(fun _ -> 1.0);
             Legalize.run p;
             ignore (Detailed.run p)));
      (* Fig. 5: layout generation + GDS serialization + DRC *)
      Test.make ~name:"fig5:gds-emit(adder8)"
        (Staged.stage (fun () -> ignore (Gds.to_bytes (Layout.to_gds layout))));
      Test.make ~name:"fig5:drc(adder8)"
        (Staged.stage (fun () -> ignore (Drc.check layout)));
    ]

let scaling_study () =
  print_endline "Extension: flow runtime scaling with design size";
  let t =
    Table.create
      ~headers:[ "circuit"; "cells"; "nets"; "synth (s)"; "place (s)"; "route (s)"; "total (s)" ]
  in
  List.iter
    (fun name ->
      let r, total =
        Wallclock.time (fun () -> Flow.run ~router:router_alg (Circuits.benchmark name))
      in
      Table.add_row t
        [
          name;
          Table.fmt_int (Array.length r.Flow.problem.Problem.cells);
          Table.fmt_int (Array.length r.Flow.problem.Problem.nets);
          Table.fmt_float ~dec:2 r.Flow.times.Flow.synth_s;
          Table.fmt_float ~dec:2 r.Flow.times.Flow.place_s;
          Table.fmt_float ~dec:2 r.Flow.times.Flow.route_s;
          Table.fmt_float ~dec:2 total;
        ])
    (if quick then [ "adder8"; "apc32" ] else [ "adder8"; "apc32"; "c432"; "sorter32"; "apc128"; "c1908" ]);
  Table.print t;
  print_newline ()

let run_micro () =
  print_endline "Micro-benchmarks (bechamel, monotonic clock):";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let t = Table.create ~headers:[ "stage"; "time/run" ] in
  Table.set_align t [ Table.Left; Table.Right ];
  List.iter
    (fun (name, ols) ->
      let time_ns =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> est
        | _ -> nan
      in
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      Table.add_row t [ name; pretty ])
    (List.sort compare rows);
  Table.print t;
  print_newline ()

let speedup_only = Array.exists (fun a -> a = "speedup") Sys.argv

let () =
  if speedup_only then begin
    Format.printf "SuperFlow %s — multicore speedup@.@." Flow.version;
    speedup_table ();
    exit 0
  end;
  Format.printf "SuperFlow %s — paper table regeneration%s (router=%s)@.@."
    Flow.version
    (if quick then " (quick subset)" else "")
    router_name;
  Report.print_table1 ();
  Report.print_table2 table_circuits;
  Report.print_table3 table_circuits;
  Report.print_table4 ~router:router_alg table_circuits;
  Report.print_fig4 ablation_circuits;
  fig5 ();
  Report.print_claims table_circuits;
  run_ablations ();
  scaling_study ();
  speedup_table ();
  cache_study ();
  equiv_study ();
  absint_study ();
  (* EXPERIMENTS.md from the same (memoized) measurements *)
  if not quick then begin
    let md = Report.experiments_markdown table_circuits in
    let oc = open_out "EXPERIMENTS.md" in
    output_string oc md;
    close_out oc;
    print_endline "EXPERIMENTS.md regenerated.\n"
  end;
  run_micro ()
