type synth_row = { s_name : string; jjs : int; nets : int; delay : int }

type place_row = {
  p_name : string;
  algorithm : Placer.algorithm;
  hpwl : float;
  buffers : int;
  wns : float option;
  runtime_s : float;
}

type route_row = {
  r_name : string;
  r_jjs : int;
  r_nets : int;
  routed_wl : float;
  r_jjs_resyn : int;
  r_depth_resyn : int;
  r_depth : int;
}

type fig4_row = {
  mixed : bool;
  f_hpwl : float;
  f_wns : float;
  f_violations : int;
  moves : int;
}

(* ---- paper reference values ---- *)

let paper_table2 =
  [
    ("adder8", (960, 462, 23));
    ("apc32", (746, 513, 21));
    ("apc128", (5048, 2355, 45));
    ("decoder", (2210, 989, 19));
    ("sorter32", (3788, 1474, 30));
    ("c432", (2500, 1048, 40));
    ("c499", (4946, 2202, 31));
    ("c1355", (4996, 2236, 31));
    ("c1908", (4716, 2182, 34));
  ]

let paper_table3 =
  [
    ("adder8", ((10948., 24, None), (12360., 24, None), (11850., 16, None, 12.1)));
    ("apc32", ((15915., 26, None), (15915., 26, None), (15530., 26, None, 13.8)));
    ( "apc128",
      ( (254068., 117, Some (-40.7)),
        (245416., 110, Some (-10.1)),
        (177620., 67, Some (-9.6), 374.8) ) );
    ( "decoder",
      ( (141151., 34, Some (-8.8)),
        (156213., 33, Some (-1.4)),
        (153030., 43, Some (-1.0), 162.5) ) );
    ( "sorter32",
      ( (168208., 29, Some (-6.9)),
        (180427., 29, Some (-3.3)),
        (132640., 29, Some (-2.3), 113.4) ) );
    ("c432", ((51009., 46, None), (52208., 45, None), (36050., 29, None, 50.1)));
    ( "c499",
      ( (430658., 62, Some (-29.9)),
        (431108., 62, Some (-8.9)),
        (385845., 59, Some (-6.7), 517.5) ) );
    ( "c1355",
      ( (422556., 58, Some (-31.4)),
        (426099., 58, Some (-9.1)),
        (396640., 56, Some (-8.9), 690.9) ) );
    ( "c1908",
      ( (358271., 67, Some (-25.5)),
        (361071., 66, Some (-6.9)),
        (357570., 68, Some (-6.9), 353.3) ) );
  ]

let paper_table4 =
  [
    ("adder8", (2170, 1064, 21100.));
    ("apc32", (2040, 986, 22510.));
    ("apc128", (13860, 6761, 260770.));
    ("decoder", (7896, 3807, 252050.));
    ("sorter32", (8768, 3938, 218210.));
    ("c432", (5286, 2531, 75710.));
    ("c499", (19050, 9329, 816240.));
    ("c1355", (21004, 10315, 932960.));
    ("c1908", (15408, 7574, 617350.));
  ]

(* ---- measurement (memoized: the bench harness prints tables and
   renders EXPERIMENTS.md from the same data) ---- *)

let memo (tbl : (string, 'a) Hashtbl.t) name f =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl name v;
      v

(* memo caches keyed by benchmark name; values are deterministic functions
   of the input deck, so sharing across table calls cannot change a row.
   sl-ignore: SL-GLOBAL-01 read-through memo cache, keyed deterministically *)
let t2_cache : (string, synth_row) Hashtbl.t = Hashtbl.create 16
let t3_cache : (string, place_row list) Hashtbl.t = Hashtbl.create 16 (* sl-ignore: SL-GLOBAL-01 same memo cache as t2_cache *)
let t4_cache : (string, route_row) Hashtbl.t = Hashtbl.create 16 (* sl-ignore: SL-GLOBAL-01 same memo cache as t2_cache *)
let f4_cache : (string, fig4_row list) Hashtbl.t = Hashtbl.create 16 (* sl-ignore: SL-GLOBAL-01 same memo cache as t2_cache *)

let measure_table2 name =
  memo t2_cache name (fun () ->
      let aoi = Circuits.benchmark name in
      let _, r = Synth_flow.run aoi in
      { s_name = name; jjs = r.Synth_flow.jjs; nets = r.Synth_flow.nets;
        delay = r.Synth_flow.delay })

let wns_option sta =
  if Sta.meets_timing sta then None else Some sta.Sta.wns_ps

(* every table is measured at one fixed seed: the memo caches above are
   keyed by name (and router), not by seed *)
let seed = 1

let measure_table3 name =
  memo t3_cache name @@ fun () ->
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  List.map
    (fun algorithm ->
      let p = Problem.of_netlist Tech.default aqfp in
      let r = Placer.place ~seed algorithm p in
      let sta = Sta.analyze p in
      {
        p_name = name;
        algorithm;
        hpwl = r.Placer.hpwl;
        buffers = r.Placer.buffer_lines;
        wns = wns_option sta;
        runtime_s = r.Placer.runtime_s;
      })
    [ Placer.Gordian; Placer.Taas; Placer.Superflow ]

let router_tag = function
  | Router.Sequential -> "seq"
  | Router.Negotiated -> "neg"

let measure_table4 ?(router = Router.Sequential) name =
  memo t4_cache (name ^ "#" ^ router_tag router) @@ fun () ->
  let aoi = Circuits.benchmark name in
  let r = Flow.run ~seed ~router aoi in
  (* the resyn-on arm: same flow with the resynthesis stage at full
     effort, so the table shows the paper numbers against both *)
  let rr = Flow.run ~seed ~router ~resyn_effort:Resyn.Full aoi in
  {
    r_name = name;
    r_jjs = Problem.jj_count r.Flow.problem;
    r_nets = Array.length r.Flow.problem.Problem.nets;
    routed_wl = r.Flow.routing.Router.wirelength;
    r_jjs_resyn = Problem.jj_count rr.Flow.problem;
    r_depth_resyn = rr.Flow.resyn_report.Resyn.depth_after;
    r_depth = rr.Flow.resyn_report.Resyn.depth_before;
  }

let measure_fig4 name =
  memo f4_cache name @@ fun () ->
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  List.map
    (fun mixed ->
      let p = Problem.of_netlist Tech.default aqfp in
      Global.run ~options:{ Global.default_options with seed } p;
      Legalize.run p;
      let moves =
        Detailed.run
          ~options:{ Detailed.default_options with mixed_size = mixed }
          p
      in
      let sta = Sta.analyze p in
      {
        mixed;
        f_hpwl = Problem.hpwl p;
        f_wns = sta.Sta.wns_ps;
        f_violations = sta.Sta.violations;
        moves;
      })
    [ false; true ]

(* ---- printing ---- *)

let fmt_wns = function
  | None -> "-"
  | Some w -> Printf.sprintf "%.1f" w

let print_table1 () =
  print_endline "Table I: AQFP vs CMOS (technology model used by this flow)";
  let t =
    Table.create ~headers:[ "Property"; "AQFP (this flow)"; "CMOS" ]
  in
  Table.set_align t [ Table.Left; Table.Left; Table.Left ];
  List.iter (Table.add_row t)
    [
      [ "Active component"; "Josephson junction (JJ)"; "Transistor" ];
      [ "Passive component"; "Inductor"; "Capacitor" ];
      [ "Logic gate"; "Majority-based gates"; "And, or, inverter gates" ];
      [ "Data propagation"; "Current pulse"; "Voltage level" ];
      [ "Clocking"; "Four-phase clocking"; "Synchronous" ];
      [ "Fan-out"; "= 1 (splitters)"; ">= 1" ];
      [ "Power"; "Alternating current (AC)"; "Direct current (DC)" ];
    ];
  Table.print t;
  Format.printf "technology: %a@.@." Tech.pp Tech.default

let print_table2 names =
  print_endline "Table II: majority-based logic synthesis results (paper vs measured)";
  let t =
    Table.create
      ~headers:
        [ "Circuit"; "#JJs(paper)"; "#JJs"; "#Nets(paper)"; "#Nets"; "#Delay(paper)"; "#Delay" ]
  in
  List.iter
    (fun name ->
      let m = measure_table2 name in
      let pj, pn, pd =
        match List.assoc_opt name paper_table2 with
        | Some (a, b, c) -> (string_of_int a, string_of_int b, string_of_int c)
        | None -> ("?", "?", "?")
      in
      Table.add_row t
        [ name; pj; Table.fmt_int m.jjs; pn; Table.fmt_int m.nets; pd; string_of_int m.delay ])
    names;
  Table.print t;
  print_newline ()

let print_table3 names =
  print_endline
    "Table III: placement comparison GORDIAN-based / TAAS / SuperFlow (paper vs measured)";
  let t =
    Table.create
      ~headers:
        [ "Circuit"; "Placer"; "HPWL(paper)"; "HPWL"; "Buf(paper)"; "Buf";
          "WNS(paper)"; "WNS"; "Runtime(s)" ]
  in
  List.iter
    (fun name ->
      let rows = measure_table3 name in
      let paper = List.assoc_opt name paper_table3 in
      List.iter
        (fun r ->
          let p_hpwl, p_buf, p_wns =
            match (paper, r.algorithm) with
            | Some ((h, b, w), _, _), Placer.Gordian ->
                (Table.fmt_float ~dec:0 h, string_of_int b, fmt_wns w)
            | Some (_, (h, b, w), _), Placer.Taas ->
                (Table.fmt_float ~dec:0 h, string_of_int b, fmt_wns w)
            | Some (_, _, (h, b, w, _)), Placer.Superflow ->
                (Table.fmt_float ~dec:0 h, string_of_int b, fmt_wns w)
            | None, _ -> ("?", "?", "?")
          in
          Table.add_row t
            [
              r.p_name;
              Placer.algorithm_name r.algorithm;
              p_hpwl;
              Table.fmt_float ~dec:0 r.hpwl;
              p_buf;
              string_of_int r.buffers;
              p_wns;
              fmt_wns r.wns;
              Table.fmt_float r.runtime_s;
            ])
        rows;
      Table.add_sep t)
    names;
  Table.print t;
  print_newline ()

let print_table4 ?(router = Router.Sequential) names =
  print_endline "Table IV: routing results of SuperFlow (paper vs measured)";
  let t =
    Table.create
      ~headers:
        [ "Circuit"; "#JJs(paper)"; "#JJs"; "#JJs(resyn)"; "#Nets(paper)";
          "#Nets"; "WL um(paper)"; "WL um"; "Depth"; "Depth(resyn)" ]
  in
  List.iter
    (fun name ->
      let m = measure_table4 ~router name in
      let pj, pn, pw =
        match List.assoc_opt name paper_table4 with
        | Some (a, b, c) -> (string_of_int a, string_of_int b, Table.fmt_float ~dec:0 c)
        | None -> ("?", "?", "?")
      in
      Table.add_row t
        [
          name; pj; Table.fmt_int m.r_jjs; Table.fmt_int m.r_jjs_resyn; pn;
          Table.fmt_int m.r_nets; pw; Table.fmt_float ~dec:0 m.routed_wl;
          string_of_int m.r_depth; string_of_int m.r_depth_resyn;
        ])
    names;
  Table.print t;
  print_newline ()

let print_fig4 names =
  print_endline
    "Fig. 4 ablation: detailed placement with size-matched vs mixed-size candidates";
  let t =
    Table.create
      ~headers:[ "Circuit"; "Candidates"; "HPWL"; "WNS(ps)"; "Violations"; "Moves" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          Table.add_row t
            [
              name;
              (if r.mixed then "mixed-size" else "size-matched");
              Table.fmt_float ~dec:0 r.f_hpwl;
              Table.fmt_float r.f_wns;
              string_of_int r.f_violations;
              string_of_int r.moves;
            ])
        (measure_fig4 name);
      Table.add_sep t)
    names;
  Table.print t;
  print_newline ()

(* ---- automated claim checking ---- *)

type claim = { claim : string; holds : bool; evidence : string }

let check_claims names =
  let t3 = List.map (fun n -> (n, measure_table3 n)) names in
  let by_alg alg =
    List.map
      (fun (_, rows) -> List.find (fun r -> r.algorithm = alg) rows)
      t3
  in
  let sf = by_alg Placer.Superflow
  and taas = by_alg Placer.Taas
  and gor = by_alg Placer.Gordian in
  let geomean f rows = Stats.geomean (Array.of_list (List.map f rows)) in
  let hpwl_sf = geomean (fun r -> r.hpwl) sf in
  let hpwl_taas = geomean (fun r -> r.hpwl) taas in
  let hpwl_gor = geomean (fun r -> r.hpwl) gor in
  (* WNS: mean violation magnitude in ps (0 when timing is met) —
     the arithmetic mean matches how the paper's "Average" row treats
     mixed met/violated circuits *)
  let viol r = Float.max 0.0 (-.Option.value ~default:0.0 r.wns) in
  let mean f rows = Stats.mean (Array.of_list (List.map f rows)) in
  let wns_sf = mean viol sf
  and wns_taas = mean viol taas
  and wns_gor = mean viol gor in
  let buf_mean rows =
    Stats.mean (Array.of_list (List.map (fun r -> float_of_int r.buffers) rows))
  in
  let buf_sf = buf_mean sf and buf_taas = buf_mean taas and buf_gor = buf_mean gor in
  let t2 = List.map measure_table2 names in
  [
    {
      claim = "SuperFlow wirelength beats both baselines (geomean)";
      holds = hpwl_sf <= hpwl_taas && hpwl_sf <= hpwl_gor;
      evidence =
        Printf.sprintf "HPWL geomean: SF %.0f vs TAAS %.0f (%.1f%%), GORDIAN %.0f (%.1f%%)"
          hpwl_sf hpwl_taas
          (100.0 *. (hpwl_taas -. hpwl_sf) /. hpwl_taas)
          hpwl_gor
          (100.0 *. (hpwl_gor -. hpwl_sf) /. hpwl_gor);
    };
    {
      claim = "SuperFlow timing is best of the three (mean WNS violation)";
      holds = wns_sf <= wns_taas && wns_sf <= wns_gor;
      evidence =
        Printf.sprintf "mean WNS violation (ps): SF %.1f vs TAAS %.1f, GORDIAN %.1f"
          wns_sf wns_taas wns_gor;
    };
    {
      claim = "SuperFlow inserts the fewest buffer lines (mean)";
      holds = buf_sf <= buf_taas && buf_sf <= buf_gor;
      evidence =
        Printf.sprintf "buffer lines mean: SF %.1f vs TAAS %.1f, GORDIAN %.1f" buf_sf
          buf_taas buf_gor;
    };
    {
      claim = "synthesis yields more JJs than nets on every circuit";
      holds = List.for_all (fun r -> r.jjs > r.nets) t2;
      evidence =
        String.concat ", "
          (List.map (fun r -> Printf.sprintf "%s %d/%d" r.s_name r.jjs r.nets) t2);
    };
    {
      claim = "the wirelength-only GORDIAN baseline has the worst timing";
      holds = wns_gor >= wns_taas && wns_gor >= wns_sf;
      evidence =
        Printf.sprintf "mean WNS violation (ps): GORDIAN %.1f vs TAAS %.1f, SF %.1f"
          wns_gor wns_taas wns_sf;
    };
  ]

let print_claims names =
  print_endline "Reproduction verdicts (paper claims vs this implementation):";
  List.iter
    (fun c ->
      Printf.printf "  [%s] %s
        %s
"
        (if c.holds then "HOLDS" else "MISSES")
        c.claim c.evidence)
    (check_claims names);
  print_newline ()

(* ---- EXPERIMENTS.md rendering ---- *)

let experiments_markdown names =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# EXPERIMENTS — paper vs measured\n\n";
  add
    "Regenerated by `dune exec bench/main.exe`. Absolute numbers differ from\n\
     the paper because every substrate here is a from-scratch simulation\n\
     (see DESIGN.md §1): the benchmark netlists are structurally regenerated\n\
     (2-3x more cells after synthesis than the authors' netlists), the cell\n\
     library is parameterized from the dimensions stated in the paper, and\n\
     runtimes are CPU-only OCaml rather than the authors' GPU-backed Python.\n\
     The *shape* — which placer wins each metric, by roughly what factor,\n\
     and where timing breaks — is the reproduction target.\n\n";
  add "## Table II — synthesis (#JJs / #Nets / #Delay)\n\n";
  add "| circuit | JJs paper | JJs here | nets paper | nets here | delay paper | delay here |\n";
  add "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      let m = measure_table2 name in
      match List.assoc_opt name paper_table2 with
      | Some (pj, pn, pd) ->
          add "| %s | %d | %d | %d | %d | %d | %d |\n" name pj m.jjs pn m.nets pd m.delay
      | None -> add "| %s | ? | %d | ? | %d | ? | %d |\n" name m.jjs m.nets m.delay)
    names;
  add "\n## Table III — placement (HPWL um / buffer lines / WNS ps)\n\n";
  add "| circuit | placer | HPWL paper | HPWL here | buf paper | buf here | WNS paper | WNS here |\n";
  add "|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      let rows = measure_table3 name in
      let paper = List.assoc_opt name paper_table3 in
      List.iter
        (fun r ->
          let ph, pb, pw =
            match (paper, r.algorithm) with
            | Some ((h, b, w), _, _), Placer.Gordian -> (h, b, w)
            | Some (_, (h, b, w), _), Placer.Taas -> (h, b, w)
            | Some (_, _, (h, b, w, _)), Placer.Superflow -> (h, b, w)
            | None, _ -> (0., 0, None)
          in
          add "| %s | %s | %.0f | %.0f | %d | %d | %s | %s |\n" name
            (Placer.algorithm_name r.algorithm)
            ph r.hpwl pb r.buffers (fmt_wns pw) (fmt_wns r.wns))
        rows)
    names;
  add "\n## Table IV — routing (SuperFlow)\n\n";
  add
    "| circuit | JJs paper | JJs here | JJs resyn | nets paper | nets here \
     | routed WL paper | routed WL here | depth | depth resyn |\n";
  add "|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      let m = measure_table4 name in
      match List.assoc_opt name paper_table4 with
      | Some (pj, pn, pw) ->
          add "| %s | %d | %d | %d | %d | %d | %.0f | %.0f | %d | %d |\n" name
            pj m.r_jjs m.r_jjs_resyn pn m.r_nets pw m.routed_wl m.r_depth
            m.r_depth_resyn
      | None -> ())
    names;
  add "\n## Claim verdicts\n\n";
  List.iter
    (fun c ->
      add "- **%s** — %s (%s)\n" (if c.holds then "HOLDS" else "MISSES") c.claim
        c.evidence)
    (check_claims names);
  add "\n## Fig. 4 — mixed-cell-size detailed placement ablation\n\n";
  add "| circuit | candidates | HPWL | WNS ps | violations | moves |\n";
  add "|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          add "| %s | %s | %.0f | %.1f | %d | %d |\n" name
            (if r.mixed then "mixed-size" else "size-matched")
            r.f_hpwl r.f_wns r.f_violations r.moves)
        (measure_fig4 name))
    names;
  Buffer.contents buf
