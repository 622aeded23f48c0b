(* Benchmark harness: the paper's evaluation (§IV) on this
   implementation, and the QoR guard. Run from the repository root.

     dune exec bench/main.exe                # Tables I-IV, Fig. 4, Fig. 5 and the
                                             # claim verdicts; writes EXPERIMENTS.md
     dune exec bench/main.exe -- quick       # the same on three small circuits
     dune exec bench/main.exe -- negotiated  # Table IV and Fig. 5 with the
                                             # negotiated router
     dune exec bench/main.exe -- check       # QoR guard against
                                             # bench/qor_baselines.txt (make qor)

   EXPERIMENTS.md is the full run with the default sequential router;
   `quick` and `negotiated` only print. Timing views (stage wall
   times, CPU utilization, warm-cache and proof times) live in
   bench/perf. *)

let quick = Array.exists (fun a -> a = "quick") Sys.argv

let router_alg =
  if Array.exists (fun a -> a = "negotiated") Sys.argv then Router.Negotiated
  else Router.Sequential

let alg_name = function
  | Router.Sequential -> "sequential"
  | Router.Negotiated -> "negotiated"

(* ---- the paper's tables and figures ---- *)

(* Fig. 5: full layout of apc128 *)
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

(* every row is measured once and printed as soon as its table is
   complete; EXPERIMENTS.md is rendered from the same rows *)
let tables () =
  let names =
    if quick then [ "adder8"; "apc32"; "decoder" ] else Circuits.benchmark_names
  in
  Format.printf "SuperFlow %s — paper table regeneration%s (router=%s)@.@."
    Flow.version
    (if quick then " (quick subset)" else "")
    (alg_name router_alg);
  Report.print_table1 ();
  let table2 = List.map Report.measure_table2 names in
  Report.print_table2 table2;
  let table3 = List.map Report.measure_table3 names in
  Report.print_table3 table3;
  let table4 = List.map (Report.measure_table4 ~router:router_alg) names in
  Report.print_table4 table4;
  let fig4 = List.map (fun n -> (n, Report.measure_fig4 n)) names in
  Report.print_fig4 fig4;
  fig5 ();
  let rows = { Report.table2; table3; table4; fig4 } in
  Report.print_claims (Report.check_claims rows);
  if (not quick) && router_alg = Router.Sequential then begin
    Out_channel.with_open_text "EXPERIMENTS.md" (fun oc ->
        output_string oc (Report.experiments_markdown rows));
    print_endline "EXPERIMENTS.md regenerated."
  end

(* ---- check: the QoR guard ----

   Each case prints one line of deterministic counts on stdout,

     synth <circuit> jj=.. nets=.. delay=.. maj_gates=.. netlist=<md5>
     route <circuit> <algorithm> wirelength=.. vias=.. space_expansions=..
       node_expansions=..
     drc <circuit> <deck> tiles=.. violations=..
     resyn <circuit> jj_before=.. jj_after=.. depth_before=.. depth_after=..
       windows=.. proved=.. refused=..
     cec <circuit> outputs=.. sweep_sat=.. sweep_unsat=.. sweep_unknown=..
       merged_strash=.. merged_proof=.. final_solves=..

   and the set of printed lines must equal the non-comment lines of
   bench/qor_baselines.txt exactly: every baseline line measured, every
   measured case in the baseline, every count the same. Regenerating
   the file means pasting the printed lines. Wall times go to stderr
   and are never compared. Independently of the baseline, a case fails
   on an invalid routing; a warm DRC run that recomputes a tile or
   reports differently from the cold one; a warm resyn rerun that
   re-proves a window or builds a different netlist; a resyn result
   that is worse than its input in JJs or depth, or not proven
   equivalent to it; and an aoi->maj proof with an output not proven
   equal. Any failure exits 1. *)

let baseline_path = "bench/qor_baselines.txt"

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("qor: FAIL " ^ m))
    fmt

let case fmt =
  Printf.ksprintf
    (fun line ->
      Printf.printf "%s\n%!" line;
      line)
    fmt

let timed id f =
  let v, s = Wallclock.time f in
  Printf.eprintf "qor: %s %.3f s\n%!" id s;
  v

(* three decks: the flow's signoff deck; a stressed one whose spacing
   limit sits above the routing pitch — every adjacent track pair
   violates, so the reporting machinery runs under load, not just the
   clean path; and a dense one whose 5% metal-density limit makes most
   density windows fire, pinning the windowed density counts *)
let decks =
  let d = Drc.deck_of_tech Tech.default in
  [
    ("signoff", d);
    ("stress", { d with Drc.spacing = d.Drc.cell_spacing });
    ("dense", { d with Drc.max_density = 0.05 });
  ]

(* cold, then warm against the cold run's tile verdicts *)
let drc_cases name layout =
  List.map
    (fun (deck_name, deck) ->
      let id = Printf.sprintf "drc %s %s" name deck_name in
      let tbl = Hashtbl.create 1024 in
      let cache = { Memo.find = Hashtbl.find_opt tbl; store = Hashtbl.replace tbl } in
      let cold = timed (id ^ " cold") (fun () -> Drc.check ~deck ~cache layout) in
      let warm = timed (id ^ " warm") (fun () -> Drc.check ~deck ~cache layout) in
      if warm.Drc.stats.Drc.tiles_checked <> 0 then
        fail "%s: warm run recomputed %d tile(s)" id
          warm.Drc.stats.Drc.tiles_checked;
      if
        List.map Diag.to_string warm.Drc.diags
        <> List.map Diag.to_string cold.Drc.diags
      then fail "%s: warm report differs from cold" id;
      case "%s tiles=%d violations=%d" id cold.Drc.stats.Drc.tiles_total
        (List.length cold.Drc.diags))
    decks

(* synthesis alone: its counts and the MD5 of the synthesized
   netlist's artifact encoding, so any byte of the AQFP netlist that
   moves shows here even when the counts do not *)
let synth_case name =
  let id = "synth " ^ name in
  let aqfp, r = timed id (fun () -> Synth_flow.run (Circuits.benchmark name)) in
  case "%s jj=%d nets=%d delay=%d maj_gates=%d netlist=%s" id r.Synth_flow.jjs
    r.Synth_flow.nets r.Synth_flow.delay r.Synth_flow.maj_stats.Aoi_to_maj.maj_gates
    (Digest.to_hex (Digest.string (Artifact.netlist.Artifact.encode aqfp)))

(* both routers, each on a fresh placement (space expansion grows the
   row gaps it routes in); the DRC cases check the sequential layout *)
let route_cases name =
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
  List.concat_map
    (fun alg ->
      let id = Printf.sprintf "route %s %s" name (alg_name alg) in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place Placer.Superflow p);
      let r = timed id (fun () -> Router.route_all ~algorithm:alg p) in
      (match Router.check_routes p r with
      | Ok () -> ()
      | Error e -> fail "%s: invalid routing: %s" id e);
      let line =
        case "%s wirelength=%.0f vias=%d space_expansions=%d node_expansions=%d"
          id r.Router.wirelength r.Router.total_vias r.Router.expansions
          r.Router.node_expansions
      in
      match alg with
      | Router.Sequential -> line :: drc_cases name (Layout.build p r)
      | Router.Negotiated -> [ line ])
    [ Router.Sequential; Router.Negotiated ]

(* full-effort resynthesis twice over one window-verdict cache *)
let resyn_case name =
  let id = "resyn " ^ name in
  let aqfp0 = Synth_flow.run_quiet (Circuits.benchmark name) in
  let tbl = Hashtbl.create 256 in
  let cache = { Memo.find = Hashtbl.find_opt tbl; store = Hashtbl.replace tbl } in
  let run tag =
    timed (id ^ " " ^ tag) (fun () -> Resyn.run ~effort:Resyn.Full ~cache aqfp0)
  in
  let aqfp1, r = run "cold" in
  let aqfp1', warm = run "warm" in
  if warm.Resyn.cec.Resyn.proved > 0 then
    fail "%s: warm rerun re-proved %d window(s)" id warm.Resyn.cec.Resyn.proved;
  if Netlist.struct_hash aqfp1' <> Netlist.struct_hash aqfp1 then
    fail "%s: warm rerun built a different netlist" id;
  if r.Resyn.jj_after > r.Resyn.jj_before then
    fail "%s: JJ count worsened (%d -> %d)" id r.Resyn.jj_before r.Resyn.jj_after;
  if r.Resyn.depth_after > r.Resyn.depth_before then
    fail "%s: phase depth worsened (%d -> %d)" id r.Resyn.depth_before
      r.Resyn.depth_after;
  (match Cec.check aqfp0 aqfp1 with
  | Cec.Equal -> ()
  | Cec.Diff _ -> fail "%s: result is NOT equivalent to its input" id
  | Cec.Unknown _ -> fail "%s: equivalence to its input unknown" id);
  let cec = r.Resyn.cec in
  case
    "%s jj_before=%d jj_after=%d depth_before=%d depth_after=%d windows=%d \
     proved=%d refused=%d"
    id r.Resyn.jj_before r.Resyn.jj_after r.Resyn.depth_before r.Resyn.depth_after
    cec.Resyn.windows cec.Resyn.proved cec.Resyn.failed

(* the SAT proof of the aoi->maj synthesis guard, cold: what the
   fraig sweep asked and merged *)
let cec_case name =
  let id = "cec " ^ name in
  let aoi = Opt.optimize (Circuits.benchmark name) in
  let a, b = Equiv.sat_pair aoi (Aoi_to_maj.convert aoi) in
  let verdicts, s = timed id (fun () -> Cec.check_outputs_stats a b) in
  if Array.exists (fun v -> v <> Cec.Equal) verdicts then
    fail "%s: aoi->maj not proven equal" id;
  case
    "%s outputs=%d sweep_sat=%d sweep_unsat=%d sweep_unknown=%d merged_strash=%d \
     merged_proof=%d final_solves=%d"
    id (Array.length verdicts) s.Cec.sweep_sat s.Cec.sweep_unsat s.Cec.sweep_unknown
    s.Cec.merged_strash s.Cec.merged_proof s.Cec.final_solves

let load_baseline () =
  In_channel.with_open_text baseline_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* the case a line measures: its words before the first count *)
let case_of line =
  String.split_on_char ' ' line
  |> List.filter (fun w -> not (String.contains w '='))
  |> String.concat " "

(* every baseline line must be measured, every measured line must be in
   the baseline, and a case's two lines must be equal strings; returns
   the number of offending lines *)
let compare_baseline baseline measured =
  let problems = ref 0 in
  let report fmt =
    Printf.ksprintf
      (fun m ->
        incr problems;
        prerr_endline ("qor: " ^ m))
      fmt
  in
  let for_case lines l = List.filter (fun b -> case_of b = case_of l) lines in
  List.iter
    (fun b -> if for_case measured b = [] then report "not measured: %s" b)
    baseline;
  List.iter
    (fun m ->
      match for_case baseline m with
      | [] -> report "no baseline line: %s" m
      | bs ->
          List.iter
            (fun b ->
              if b <> m then report "differs: %s\n       baseline: %s" m b)
            bs)
    measured;
  !problems

let check () =
  let synth = List.map synth_case Circuits.benchmark_names in
  let routed = List.concat_map route_cases [ "adder8"; "apc32" ] in
  let resyn = List.map resyn_case Circuits.benchmark_names in
  let cec = List.map cec_case Circuits.benchmark_names in
  let measured = synth @ routed @ resyn @ cec in
  let problems = compare_baseline (load_baseline ()) measured in
  if !failures + problems > 0 then begin
    Printf.eprintf "qor: %d failed check(s), %d line(s) differ from %s\n"
      !failures problems baseline_path;
    exit 1
  end;
  Printf.eprintf "qor: OK, %d cases equal %s\n" (List.length measured)
    baseline_path

let () =
  if Array.exists (fun a -> a = "check") Sys.argv then check () else tables ()
