(* SuperFlow command-line interface.

   Subcommands that run the flow are views of one stage-graph run
   ([run_graph] over [Flow.run_staged]), stopped after the stage they
   report on:
     superflow synth   <input>                  — to synth: synthesis report
     superflow resyn   <input> [--effort ...]   — to resyn: resynthesis report
     superflow place   <input> [--placer ...]   — to place
     superflow timing  <input> [--placer ...]   — to place: static timing
     superflow route   <input> [--router ...]   — to route
     superflow drc     <input> [--db d]         — to layout, then full-deck DRC
     superflow flow    <input> [-o out.gds] [--check] [--to ...] [--db d]
     superflow check   <input> [--json] [--tier ...]  — to check: the gate
   The rest work beside the graph:
     superflow sanitize <input>                 — determinism fuzzing
     superflow sim     <input> [-n N]           — random-vector simulation
     superflow prove   <a> <b> [--budget N]     — complete equivalence proof
     superflow mlint   [root]                   — determinism lint of the sources
     superflow explain <RULE-ID>                — diagnostic rule registry
     superflow tables                           — regenerate the paper tables
     superflow bench-list                       — list built-in benchmarks

   <input> is either the name of a built-in benchmark (adder8, apc32,
   apc128, decoder, sorter32, c432, c499, c1355, c1908), a Verilog
   file (.v) or an ISCAS bench file (.bench). *)

let load_input input =
  match Circuits.benchmark input with
  | nl -> Ok nl
  | exception Not_found ->
  if Filename.check_suffix input ".v" then Verilog.parse_file input
  else if Filename.check_suffix input ".bench" then Bench_parser.parse_file input
  else
    Error
      (Printf.sprintf
         "unknown input %S (expected a benchmark name, a .v file or a .bench file)"
         input)

let placer_of_string = function
  | "superflow" -> Ok Placer.Superflow
  | "gordian" -> Ok Placer.Gordian
  | "taas" -> Ok Placer.Taas
  | s -> Error (Printf.sprintf "unknown placer %S (superflow|gordian|taas)" s)

let exit_err msg =
  Format.eprintf "error: %s@." msg;
  exit 1

let or_exit = function Ok v -> v | Error e -> exit_err e

(* File I/O on a user-named path: a path the system refuses is an
   [error:] line and exit 1, not an uncaught exception. *)
let io f = try f () with Sys_error e -> exit_err e

let write_text path text =
  io (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))

(* Proof verdicts found after the last stage (say, by [drc]'s own
   check) are appended to the database on every way out. *)
let open_db =
  Option.map (fun dir ->
      match Db.open_ dir with
      | Ok db ->
          at_exit (fun () ->
              try Db.flush db
              with Sys_error e ->
                Format.eprintf "warning: proof verdicts not saved: %s@." e);
          db
      | Error d -> exit_err (Diag.to_string d))

(* ---- the run harness ---- *)

(* The one way a subcommand runs the flow: the stage graph from
   [from_stage] to [to_stage] over [(aoi, config)], on the database and
   the determinism sanitizer [store] selects, with [jobs] workers. DSAN
   findings and healed cache entries go to stderr and a graph
   diagnostic exits 1; [k] then reports the run, and any DSAN finding
   exits 1 after it. *)
let run_graph ?(store = (None, false)) ?jobs ?from_stage ~to_stage
    (aoi, config) k =
  let db_dir, dsan = store in
  let db = open_db db_dir in
  Option.iter Parallel.set_jobs jobs;
  let run () = Flow.run_staged ~config ?db ?from_stage ~to_stage aoi in
  let staged, findings =
    if dsan then Dsan.with_sanitizer ~seed:0 run else (run (), [])
  in
  List.iter (fun f -> Format.eprintf "%a@." Diag.pp (Dsan.to_diag f)) findings;
  let staged =
    match staged with Ok s -> s | Error d -> exit_err (Diag.to_string d)
  in
  List.iter (fun d -> Format.eprintf "%a@." Diag.pp d) staged.Flow.db_warnings;
  k db staged;
  if findings <> [] then begin
    Format.eprintf "dsan: %d determinism finding(s)@." (List.length findings);
    exit 1
  end

(* The artifacts of a stage the run went through. *)
let ran = function
  | Some v -> v
  | None -> assert false (* [run_graph] stops after this stage, not before *)

(* ---- synth ---- *)

let cmd_synth design =
  let ((aoi, _) as design) = or_exit design in
  run_graph ~to_stage:Flow.Synth design (fun _ staged ->
      let aqfp, report = ran staged.Flow.synth in
      Format.printf "input: %a@." Netlist.pp_stats aoi;
      Format.printf "aqfp:  %a@." Netlist.pp_stats aqfp;
      Format.printf "%a@." Synth_flow.pp_report report;
      Format.printf "energy: %a@." Energy.pp (Energy.of_netlist Tech.default aqfp);
      Format.printf "structure: %a@." Netlist_stats.pp (Netlist_stats.analyze aqfp);
      Format.printf "balanced: %b, equivalence (sampled): %b@."
        (Netlist.is_balanced aqfp)
        (Sim.equivalent aoi aqfp))

(* ---- resyn ---- *)

let cmd_resyn design =
  run_graph ~to_stage:Flow.Resyn (or_exit design) (fun _ staged ->
      let aqfp0, _ = ran staged.Flow.synth in
      let aqfp1, r = ran staged.Flow.resyned in
      Format.printf "before: %a@." Netlist.pp_stats aqfp0;
      Format.printf "after:  %a@." Netlist.pp_stats aqfp1;
      Format.printf
        "effort %s: jj %d -> %d, phase depth %d -> %d, buffers %d -> %d, \
         majority gates %d -> %d (%d round(s))@."
        (Resyn.effort_name r.Resyn.effort)
        r.Resyn.jj_before r.Resyn.jj_after r.Resyn.depth_before
        r.Resyn.depth_after r.Resyn.buffers_before r.Resyn.buffers_after
        r.Resyn.maj_before r.Resyn.maj_after r.Resyn.rounds;
      List.iter
        (fun p ->
          Format.printf "pass %-8s x%d: %d tried, %d accepted@." p.Resyn.pass
            p.Resyn.iterations p.Resyn.tried p.Resyn.accepted)
        r.Resyn.passes;
      let c = r.Resyn.cec in
      Format.printf
        "cec windows: %d (%d proved, %d cached, %d memoized, %d refused)@."
        c.Resyn.windows c.Resyn.proved c.Resyn.cached c.Resyn.memoized
        c.Resyn.failed;
      List.iter (fun d -> Format.printf "%a@." Diag.pp d) r.Resyn.diags)

(* ---- place ---- *)

(* [place] and [timing] report the placed problem the flow routes:
   after buffer-line insertion and channel pre-sizing. *)
let cmd_place design =
  run_graph ~to_stage:Flow.Place (or_exit design) (fun _ staged ->
      let _, p, r, _ = ran staged.Flow.placed in
      Format.printf "%a@." Placer.pp_result r;
      Format.printf "%a@." Sta.pp_report (Sta.analyze p);
      Format.printf "%a@." Problem.pp_summary p)

(* ---- route ---- *)

let router_of_string = function
  | "sequential" -> Ok Router.Sequential
  | "negotiated" -> Ok Router.Negotiated
  | s -> Error (Printf.sprintf "unknown router %S (sequential|negotiated)" s)

let cmd_route design jobs =
  run_graph ?jobs ~to_stage:Flow.Route (or_exit design) (fun _ staged ->
      let routed, p, _, _ = ran staged.Flow.routed in
      Format.printf
        "routed %d nets: wirelength=%.0fum vias=%d space-expansions=%d (%.1fs)@."
        (Array.length routed.Router.routes)
        routed.Router.wirelength routed.Router.total_vias
        routed.Router.expansions routed.Router.runtime_s;
      match Router.check_routes p routed with
      | Ok () -> Format.printf "route check: clean@."
      | Error e -> Format.printf "route check: %s@." e)

(* ---- flow ---- *)

let load_tech = function
  | None -> Ok Tech.default
  | Some path -> Tech.of_file path

let stage_of_cli s =
  match Flow.stage_of_string (String.lowercase_ascii s) with
  | Ok st -> st
  | Error e -> exit_err e

let cmd_flow design store gds_out def_out jobs check from_opt to_opt
    resume check_out =
  let design = or_exit design in
  let ((db_dir, _) as store) = or_exit store in
  if db_dir = None && (from_opt <> None || resume) then
    exit_err "--from and --resume need a design database (--db DIR)";
  if resume then (
    match db_dir with
    | Some dir when not (Sys.file_exists (Filename.concat dir "meta")) ->
        exit_err
          (Printf.sprintf "--resume: %s holds no previous run to resume"
             dir)
    | _ -> ());
  let from_stage = Option.map stage_of_cli from_opt in
  let to_stage =
    match to_opt with
    | Some s -> stage_of_cli s
    | None -> if check then Flow.Check else Flow.Layout
  in
  (* refuse, before running, an output the run stops short of *)
  List.iter
    (fun (flag, given, stage) ->
      if given && Flow.stage_rank to_stage < Flow.stage_rank stage then
        exit_err
          (Printf.sprintf "%s needs the %s stage but the run stops after %s"
             flag (Flow.stage_name stage) (Flow.stage_name to_stage)))
    [
      ("--check", check, Flow.Check);
      ("-o", gds_out <> None, Flow.Layout);
      ("--def", def_out <> None, Flow.Route);
      ("--check-out", check_out <> None, Flow.Check);
    ];
  run_graph ~store ?jobs ?from_stage ~to_stage design @@ fun db staged ->
  (match (def_out, staged.Flow.routed) with
  | Some path, Some (routing, p, _, _) ->
      io (fun () -> Def.write_file path (Def.of_design p routing))
  | _ -> ());
  (match (gds_out, staged.Flow.built) with
  | Some path, Some (layout, _, _) -> io (fun () -> Layout.write_gds path layout)
  | _ -> ());
  if db <> None then
    List.iter
      (fun (stage, outcome) ->
        match outcome with
        | Flow.Cached s ->
            Format.printf "stage %s: cache hit (%.2fs)@."
              (Flow.stage_name stage) s
        | Flow.Computed s ->
            Format.printf "stage %s: computed (%.2fs)@."
              (Flow.stage_name stage) s)
      staged.Flow.outcomes;
  (match staged.Flow.result with
  | Some r ->
      (match r.Flow.check_report with
      | Some rep ->
          List.iter (fun d -> Format.printf "%a@." Diag.pp d) rep.Check.diags
      | None -> ());
      Format.printf "%a@." Flow.pp_summary r
  | None ->
      (* partial run ([--to] before layout): report what exists *)
      (match staged.Flow.synth with
      | Some (aqfp0, report) ->
          Format.printf "synthesis: %a@." Synth_flow.pp_report report;
          Format.printf "aqfp:  %a@." Netlist.pp_stats aqfp0
      | None -> ());
      (match staged.Flow.resyned with
      | Some (_, rr) when rr.Resyn.effort <> Resyn.Off ->
          Format.printf
            "resyn (%s): jj %d -> %d, depth %d -> %d, %d/%d rewrites@."
            (Resyn.effort_name rr.Resyn.effort)
            rr.Resyn.jj_before rr.Resyn.jj_after rr.Resyn.depth_before
            rr.Resyn.depth_after
            (Resyn.rewrites_accepted rr)
            (Resyn.rewrites_tried rr)
      | _ -> ());
      (match staged.Flow.placed with
      | Some (_, _, placement, buffer_lines) ->
          Format.printf "placement: %a@." Placer.pp_result placement;
          Format.printf "buffer lines: %d@." buffer_lines
      | None -> ());
      (match staged.Flow.routed with
      | Some (routing, _, violations, rounds) ->
          Format.printf
            "routing: wl=%.0fum vias=%d expansions=%d@."
            routing.Router.wirelength routing.Router.total_vias
            routing.Router.expansions;
          Format.printf "drc: %d violation(s), %d fix round(s)@."
            (List.length violations) rounds
      | None -> ()));
  (match gds_out with
  | Some path -> Format.printf "GDSII written to %s@." path
  | None -> ());
  (match def_out with
  | Some path -> Format.printf "DEF written to %s@." path
  | None -> ());
  match staged.Flow.checked with
  | Some rep ->
      (match check_out with
      | Some path ->
          write_text path (Check.render_text rep);
          Format.printf "check report written to %s@." path
      | None -> ());
      if not (Check.ok rep) then exit 1
  | None -> ()

(* ---- check ---- *)

let cmd_check design store jobs json =
  let design = or_exit design in
  let store = or_exit store in
  run_graph ~store ?jobs ~to_stage:Flow.Check design (fun _ staged ->
      let rep = ran staged.Flow.checked in
      print_string
        (if json then Check.render_json rep else Check.render_text rep);
      if not json then
        Format.printf "check runtime: %.2fs over %d pass(es)@."
          (Check.total_seconds rep)
          (List.length rep.Check.stats);
      if not (Check.ok rep) then exit 1)

(* ---- sanitize ---- *)

let cmd_sanitize design seed schedules jobs =
  let aoi, config = or_exit design in
  match Sanitize.run ~config ~seed ~schedules ?jobs aoi with
  | Error d -> exit_err (Diag.to_string d)
  | Ok rep ->
      print_string (Sanitize.render_text rep);
      if rep.Sanitize.findings <> [] then exit 1

(* ---- drc ---- *)

(* The layout comes from the stage graph; the full-deck signoff then
   runs with the tile cache wired to the db. Tile statistics go to
   stderr so stdout (the report) is byte-comparable across cold/warm
   and --jobs runs. *)
let cmd_drc design jobs db_dir json =
  run_graph ~store:(db_dir, false) ?jobs ~to_stage:Flow.Layout (or_exit design)
    (fun db staged ->
      let layout, _, _ = ran staged.Flow.built in
      let cache = Option.map Flow.diag_memo db in
      let rep = Drc.check ?cache layout in
      let s = rep.Drc.stats in
      Format.eprintf "# drc: tiles total=%d checked=%d cached=%d density=%s@."
        s.Drc.tiles_total s.Drc.tiles_checked s.Drc.tiles_cached
        (if s.Drc.density_cached then "cached" else "checked");
      List.iter
        (fun d ->
          print_endline (if json then Diag.to_json d else Diag.to_string d))
        rep.Drc.diags;
      Format.printf "drc: %d violation(s)@." (List.length rep.Drc.diags);
      if rep.Drc.diags <> [] then exit 1)

(* ---- timing ---- *)

let cmd_timing design =
  run_graph ~to_stage:Flow.Place (or_exit design) (fun _ staged ->
      let _, p, _, _ = ran staged.Flow.placed in
      Format.printf "%a@." Sta.pp_report (Sta.analyze p);
      Format.printf "max frequency for this placement: %.2f GHz@.@." (Sta.fmax_ghz p);
      Format.printf "slack histogram (ps):@.%a@." Sta.pp_histogram
        (Sta.slack_histogram p);
      let per_row = Sta.per_row_wns p in
      Format.printf "most critical clock phases:@.";
      Array.to_list per_row
      |> List.mapi (fun r wns -> (r, wns))
      |> List.filter (fun (_, w) -> w < infinity)
      |> List.sort (fun (_, a) (_, b) -> compare a b)
      |> List.filteri (fun i _ -> i < 5)
      |> List.iter (fun (r, wns) -> Format.printf "  phase %d: wns %.1f ps@." r wns))

(* ---- sim ---- *)

let cmd_sim input n_vectors =
  match load_input input with
  | Error e -> exit_err e
  | Ok aoi ->
      let rng = Rng.create 42 in
      let n_in = List.length (Netlist.inputs aoi) in
      let vectors =
        List.init n_vectors (fun _ -> Array.init n_in (fun _ -> Rng.bool rng))
      in
      List.iteri
        (fun t v ->
          let outs = Sim.eval aoi v in
          let show bits =
            String.concat ""
              (List.map (fun b -> if b then "1" else "0") (Array.to_list bits))
          in
          Format.printf "#%d  in=%s  out=%s@." t (show v) (show outs))
        vectors

(* ---- prove ---- *)

let cmd_prove input_a input_b budget json =
  match (load_input input_a, load_input input_b) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok nl_a, Ok nl_b ->
      let diags =
        Equiv.check_pair ?conflict_budget:budget ~stage:"prove" nl_a nl_b
      in
      List.iter
        (fun d ->
          if json then print_endline (Diag.to_json d)
          else Format.printf "%a@." Diag.pp d)
        diags;
      let errors = Diag.count Diag.Error diags
      and unproven = Diag.count Diag.Warning diags in
      if errors > 0 then (
        if not json then Format.printf "NOT EQUIVALENT@.";
        exit 1)
      else if unproven > 0 then (
        if not json then
          Format.printf
            "UNPROVEN — %d output(s) fell back to simulation (raise --budget)@."
            unproven;
        exit 2)
      else if not json then
        Format.printf "EQUIVALENT (formally proven per output)@."

(* ---- mlint ---- *)

let cmd_mlint root json update_baseline baseline_opt =
  let known_ids = List.map (fun r -> r.Rules.id) Rules.all in
  let baseline_path =
    match baseline_opt with
    | Some p -> p
    | None -> Filename.concat root "mlint_baselines.txt"
  in
  let baseline =
    match Mlint.load_baseline baseline_path with
    | Ok lines -> lines
    | Error msg -> exit_err (Printf.sprintf "%s: %s" baseline_path msg)
  in
  let baseline = if update_baseline then [] else baseline in
  match io (fun () -> Mlint.run ~known_ids ~baseline ~root ()) with
  | Error msg -> exit_err msg
  | Ok rep ->
      if update_baseline then begin
        let lines = Mlint.baseline_lines rep.Mlint.findings in
        write_text baseline_path
          (String.concat ""
             ("# Grandfathered SL-* errors (regenerate: superflow mlint \
               --update-baseline).\n\
               # Keep this empty or near-empty: new code fixes or sl-ignores \
               its findings.\n"
             :: List.map (fun l -> l ^ "\n") lines));
        Format.eprintf "%s@." (Mlint.summary rep);
        Format.printf "baseline: %d entr%s written to %s@." (List.length lines)
          (if List.length lines = 1 then "y" else "ies")
          baseline_path
      end
      else begin
        List.iter
          (fun fd ->
            print_endline
              (if json then Mlint.render_json fd else Mlint.render_text fd))
          rep.Mlint.findings;
        List.iter
          (fun e -> Format.eprintf "# mlint: stale baseline entry: %s@." e)
          rep.Mlint.stale_baseline;
        Format.eprintf "%s@." (Mlint.summary rep);
        if rep.Mlint.errors > 0 then exit 1
      end

(* ---- explain ---- *)

let cmd_explain id_opt all markdown =
  if markdown then print_string (Rules.catalog_markdown ())
  else if all then
    List.iter
      (fun r ->
        match Rules.explain r.Rules.id with
        | Ok s -> print_endline s
        | Error e -> exit_err e)
      Rules.all
  else
    match id_opt with
    | None -> exit_err "explain: give a RULE-ID, or pass --all / --markdown"
    | Some id -> (
        match Rules.explain id with
        | Ok s -> print_endline s
        | Error e -> exit_err e)

(* ---- tables ---- *)

let cmd_tables circuits =
  let names = if circuits = [] then Circuits.benchmark_names else circuits in
  Report.print_table1 ();
  Report.print_table2 (List.map Report.measure_table2 names);
  Report.print_table3 (List.map Report.measure_table3 names);
  Report.print_table4 (List.map (fun n -> Report.measure_table4 n) names)

let cmd_bench_list () =
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      Format.printf "%-10s %a@." name Netlist.pp_stats nl)
    Circuits.benchmark_names

(* ---- cmdliner plumbing ---- *)

open Cmdliner

let input_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT"
         ~doc:"Benchmark name, Verilog (.v) or ISCAS (.bench) file.")

let placer_arg =
  Arg.(value & opt string "superflow" & info [ "placer"; "p" ] ~docv:"PLACER"
         ~doc:"Placement algorithm: superflow, gordian or taas.")

let gds_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the final layout as GDSII to $(docv).")

let circuits_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT"
         ~doc:"Circuits to include (default: all nine benchmarks).")

let resyn_cmd_effort_arg =
  Arg.(value & opt string "full" & info [ "effort" ] ~docv:"EFFORT"
         ~doc:"Resynthesis effort: none, fast or full (default full).")

let router_arg =
  Arg.(value & opt string "sequential" & info [ "router" ] ~docv:"ROUTER"
         ~doc:"Routing algorithm: sequential or negotiated.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for the parallel stages (routing, placement \
               gradients, STA, DRC). Defaults to the $(b,SF_JOBS) environment \
               variable, then the machine's core count. Results are \
               bit-identical for every value.")

let def_arg =
  Arg.(value & opt (some string) None & info [ "def" ] ~docv:"FILE"
         ~doc:"Also write a DEF-style placement/routing dump to $(docv).")

let tech_arg =
  Arg.(value & opt (some string) None & info [ "tech" ] ~docv:"FILE"
         ~doc:"Technology description (key = value lines; see Tech.of_string).")

let check_flag_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Run the static-verification gate (lint, AQFP legality, \
               equivalence guards, placement audit, route check, DRC, \
               LVS-lite) and fail on any error-severity diagnostic.")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
         ~doc:"Placement seed (default 1). Part of the place stage's cache \
               key.")

let db_arg =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
         ~doc:"Attach a design database at $(docv) (created if missing): \
               every stage becomes content-addressed — reruns with unchanged \
               inputs load their artifacts instead of recomputing, and runs \
               killed mid-flow resume from the last persisted stage.")

let from_arg =
  Arg.(value & opt (some string) None & info [ "from" ] ~docv:"STAGE"
         ~doc:"Require every stage before $(docv) (synth, resyn, place, \
               route, layout, check) to already be in the database — fail \
               instead of recomputing. Needs --db.")

let to_arg =
  Arg.(value & opt (some string) None & info [ "to" ] ~docv:"STAGE"
         ~doc:"Stop the flow after $(docv) (synth, resyn, place, route, \
               layout, check). $(b,--to check) implies $(b,--check).")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume a previous (possibly interrupted) run: the database \
               given with --db must already exist; persisted stages are \
               loaded, the rest recomputed.")

let check_out_arg =
  Arg.(value & opt (some string) None & info [ "check-out" ] ~docv:"FILE"
         ~doc:"Write the check stage's text report to $(docv) (needs --check \
               or --to check).")

let tier_arg =
  Arg.(value & opt string "fast" & info [ "tier" ] ~docv:"TIER"
         ~doc:"Check tier: fast (the dataflow analyses) or full (adds the \
               AIG/SAT-backed lints). Recorded in the check report's \
               header; part of the check stage's cache key.")

let resyn_effort_arg =
  Arg.(value & opt string "none" & info [ "resyn-effort" ] ~docv:"EFFORT"
         ~doc:"Cut-based majority resynthesis between mapping and placement: \
               none (identity, the default), fast (one CSE+rewrite round) or \
               full (all passes to a fixpoint). Every accepted rewrite \
               carries a window equivalence proof; part of the resyn stage's \
               cache key.")

let dsan_flag_arg =
  Arg.(value & flag & info [ "dsan" ]
         ~doc:"Arm the determinism sanitizer for this run: chunk execution \
               orders are fuzzed, nested parallel calls and stale router \
               arena reads are flagged, and every DSAN-* finding is \
               printed to stderr (exit 1 on any). Incompatible with --db: \
               sanitized runs are never cached.")

(* ---- the design and its Flow.config, shared by the flow subcommands ---- *)

(* A config flag: a term that sets its part of a [Flow.config]. *)
let setting parse set arg =
  Term.(const (fun v c -> Result.map (set c) (parse v)) $ arg)

let placer_t =
  setting placer_of_string
    (fun c algorithm -> { c with Flow.algorithm })
    placer_arg

let router_t =
  setting router_of_string (fun c router -> { c with Flow.router }) router_arg

let tech_t = setting load_tech (fun c tech -> { c with Flow.tech }) tech_arg

let tier_t =
  setting Check.tier_of_string
    (fun c check_tier -> { c with Flow.check_tier })
    tier_arg

let resyn_t =
  setting Resyn.effort_of_string (fun c resyn_effort ->
      { c with Flow.resyn_effort })

let seed_t =
  setting Result.ok
    (fun c seed ->
      { c with Flow.seed = Option.value seed ~default:c.Flow.seed })
    seed_arg

(* The input design and the config its flags select over
   [Flow.default]. Every flag is parsed; the error reported is the
   input's, else the first bad flag's in [settings] order. *)
let design_t settings =
  let config =
    List.fold_left
      (fun acc set -> Term.(const Result.bind $ acc $ set))
      (Term.const (Ok Flow.default)) settings
  in
  Term.(
    const (fun input config ->
        match (load_input input, config) with
        | Error e, _ | _, Error e -> Error e
        | Ok aoi, Ok c -> Ok (aoi, c))
    $ input_arg $ config)

(* --db with --dsan: sanitized runs are never cached *)
let store_t =
  Term.(
    const (fun db_dir dsan ->
        if dsan && db_dir <> None then
          Error
            "--dsan runs are never cached (a hit would mask the race being \
             hunted); drop --db"
        else Ok (db_dir, dsan))
    $ db_arg $ dsan_flag_arg)

let synth_cmd =
  Cmd.v (Cmd.info "synth" ~doc:"Run majority-based logic synthesis")
    Term.(const cmd_synth $ design_t [])

let resyn_cmd =
  Cmd.v
    (Cmd.info "resyn"
       ~doc:"Synthesize, then run the cut-based majority resynthesis engine \
             and report its QoR deltas, per-pass statistics and window-CEC \
             counts.")
    Term.(const cmd_resyn $ design_t [ resyn_t resyn_cmd_effort_arg ])

let place_cmd =
  Cmd.v (Cmd.info "place" ~doc:"Synthesize and place")
    Term.(const cmd_place $ design_t [ placer_t ])

let route_cmd =
  Cmd.v (Cmd.info "route" ~doc:"Synthesize, place and route")
    Term.(const cmd_route $ design_t [ placer_t; router_t ] $ jobs_arg)

let flow_cmd =
  Cmd.v (Cmd.info "flow" ~doc:"Full RTL-to-GDS flow")
    Term.(const cmd_flow
          $ design_t [ placer_t; router_t; tech_t; tier_t; resyn_t resyn_effort_arg; seed_t ]
          $ store_t $ gds_arg $ def_arg $ jobs_arg $ check_flag_arg
          $ from_arg $ to_arg $ resume_arg $ check_out_arg)

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit diagnostics as JSON lines instead of text.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the full flow gated by the sf_check static verifier: \
             netlist lints, AQFP legality, per-output formal equivalence, \
             placement audit, route connectivity, DRC and LVS-lite. Exits 1 \
             on any error-severity diagnostic.")
    Term.(const cmd_check $ design_t [ placer_t; router_t; tech_t; tier_t ]
          $ store_t $ jobs_arg $ json_arg)

let sanitize_seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
         ~doc:"Schedule-fuzzer seed (default 0). Every permutation replays \
               exactly from it.")

let schedules_arg =
  Arg.(value & opt int 4 & info [ "schedules" ] ~docv:"N"
         ~doc:"Fuzzed chunk-order permutations per arm (default 4).")

let sanitize_cmd =
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:"Hunt determinism bugs in the parallel substrate: run the flow \
             at jobs=1 (baseline), then under --schedules seeded \
             chunk-order permutations at jobs=1 and at --jobs, with the \
             sanitizer armed throughout. Artifact fingerprints (volatile \
             wall-clock fields zeroed) are compared against the baseline \
             and any divergence is traced to its first differing \
             stage/slot (DSAN-SCHED-01 / DSAN-DIVERGE-01); nested calls and \
             stale arena reads report as DSAN-NEST-01 / DSAN-EPOCH-01. \
             Exits 1 on any finding.")
    Term.(const cmd_sanitize $ design_t [ placer_t; router_t; tech_t ]
          $ sanitize_seed_arg $ schedules_arg $ jobs_arg)

let drc_cmd =
  Cmd.v
    (Cmd.info "drc"
       ~doc:"Full-deck design-rule signoff of the routed layout: exact \
             integer-nm geometry, every DRC-* rule in the registry, tiled \
             and sharded over --jobs with byte-identical reports at any \
             pool size. With --db, tile verdicts are memoized so an ECO \
             rerun re-checks only the tiles whose geometry changed (tile \
             statistics go to stderr). Exits 1 on any violation.")
    Term.(const cmd_drc $ design_t [ placer_t; router_t; tech_t ] $ jobs_arg
          $ db_arg $ json_arg)

let timing_cmd =
  Cmd.v (Cmd.info "timing" ~doc:"Static timing analysis of a placed design")
    Term.(const cmd_timing $ design_t [ placer_t ])

let input_b_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"INPUT2"
         ~doc:"Second design to compare.")

let sim_n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of random vectors.")

let sim_cmd =
  Cmd.v (Cmd.info "sim" ~doc:"Simulate random vectors")
    Term.(const cmd_sim $ input_arg $ sim_n_arg)

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"SAT conflict budget of the joint proof of all outputs \
               (default 200000): its node sweep spends \
               at most half, and each output's final solve may use what \
               the sweep left. Exhausting it yields EQ-TIMEOUT-01 and \
               exit code 2.")

let prove_cmd =
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove two designs equivalent, output by output, with the \
             flow's equivalence proof (one joint CDCL SAT proof with AIG \
             sweeping). Exit 0: every output proven equal; 1: a proven \
             difference (with a replayed counterexample); 2: unproven \
             (conflict budget exhausted).")
    Term.(const cmd_prove $ input_arg $ input_b_arg $ budget_arg
          $ json_arg)

let mlint_root_arg =
  Arg.(value & pos 0 string "." & info [] ~docv:"ROOT"
         ~doc:"Repository root to analyze (must contain lib/; bin/ is \
               included when present). Defaults to the current directory.")

let mlint_update_arg =
  Arg.(value & flag & info [ "update-baseline" ]
         ~doc:"Rewrite the baseline file with today's unsuppressed \
               error-severity findings instead of failing on them.")

let mlint_baseline_arg =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
         ~doc:"Baseline file of grandfathered findings (default \
               ROOT/mlint_baselines.txt).")

let mlint_cmd =
  Cmd.v
    (Cmd.info "mlint"
       ~doc:"Statically enforce the determinism/purity contract over the \
             flow's own OCaml sources: parse every lib/**/*.ml and bin/*.ml \
             (and bench/**/*.ml, for SL-TIME-01 only) with compiler-libs \
             and evaluate the SL-* rules (unordered \
             Hashtbl iteration, wall-clock and Marshal escapes, polymorphic \
             compares, unregistered global state, swallowed exceptions, \
             unlabeled Parallel sites, stdout prints, exit in libraries, \
             unregistered diagnostic ids). Suppress single sites with \
             (* sl-ignore: SL-XXX-NN reason *) comments. Exits 1 on any \
             unsuppressed, unbaselined error.")
    Term.(const cmd_mlint $ mlint_root_arg $ json_arg $ mlint_update_arg
          $ mlint_baseline_arg)

let explain_id_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"RULE-ID"
         ~doc:"A diagnostic rule id, e.g. AQFP-PHASE-01 or NL-DEAD-01.")

let explain_all_arg =
  Arg.(value & flag & info [ "all" ]
         ~doc:"Explain every registered rule, in id order.")

let explain_markdown_arg =
  Arg.(value & flag & info [ "markdown" ]
         ~doc:"Emit the registry as the markdown rule-catalog table \
               (what docs/ARCHITECTURE.md embeds).")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain a diagnostic rule id from the rule registry: severity, \
             owning pass, and what the finding means. Exits 1 on an unknown \
             id.")
    Term.(const cmd_explain $ explain_id_arg $ explain_all_arg
          $ explain_markdown_arg)

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate the paper's result tables")
    Term.(const cmd_tables $ circuits_arg)

let bench_list_cmd =
  Cmd.v (Cmd.info "bench-list" ~doc:"List built-in benchmark circuits")
    Term.(const cmd_bench_list $ const ())

let main =
  Cmd.group
    (Cmd.info "superflow" ~version:Flow.version
       ~doc:"Fully-customized RTL-to-GDS design automation flow for AQFP circuits")
    [ synth_cmd; resyn_cmd; place_cmd; route_cmd; flow_cmd; check_cmd; drc_cmd;
      sanitize_cmd; mlint_cmd; explain_cmd; timing_cmd; sim_cmd;
      prove_cmd; tables_cmd; bench_list_cmd ]

let () = exit (Cmd.eval main)
