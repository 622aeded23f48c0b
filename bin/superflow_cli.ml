(* SuperFlow command-line interface.

   Subcommands mirror the flow stages:
     superflow synth   <input>          — logic synthesis report
     superflow resyn   <input> [--effort ...]  — majority resynthesis report
     superflow place   <input> [--placer ...]
     superflow route   <input>
     superflow flow    <input> [-o out.gds] [--check] [--engine ...]
     superflow check   <input> [--json] [--engine ...]  — verification gate
     superflow prove   <a> <b> [--engine ...]  — complete equivalence proof
     superflow tables                    — regenerate the paper tables
     superflow bench-list                — list built-in benchmarks

   <input> is either the name of a built-in benchmark (adder8, apc32,
   apc128, decoder, sorter32, c432, c499, c1355, c1908), a Verilog
   file (.v) or an ISCAS bench file (.bench). *)

let load_input input =
  match Circuits.benchmark input with
  | nl -> Ok nl
  | exception Not_found ->
  if Filename.check_suffix input ".v" then
    match Verilog.parse_file input with
    | Ok nl -> Ok nl
    | Error e -> Error (Printf.sprintf "%s: %s" input e)
  else if Filename.check_suffix input ".bench" then
    match Bench_parser.parse_file input with
    | Ok nl -> Ok nl
    | Error e -> Error (Printf.sprintf "%s: %s" input e)
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

let engine_of_string s =
  match Equiv.engine_of_name s with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "unknown engine %S (auto|bdd|sat)" s)

(* An explicit --engine sat|auto opts into the Full check tier (the
   AIG/SAT-backed lints); the default and --engine bdd stay on the
   fast dataflow tier. *)
let engine_tier_of_opt = function
  | None -> Ok (`Auto, Check.Fast)
  | Some s -> (
      match engine_of_string s with
      | Error _ as e -> e
      | Ok e ->
          Ok
            ( e,
              match e with
              | `Sat | `Auto -> Check.Full
              | `Bdd -> Check.Fast ))

let exit_err msg =
  Format.eprintf "error: %s@." msg;
  exit 1

let or_exit = function Ok v -> v | Error e -> exit_err e

let open_db =
  Option.map (fun dir ->
      match Db.open_ dir with
      | Ok db -> db
      | Error d -> exit_err (Diag.to_string d))

(* ---- synth ---- *)

let cmd_synth input =
  match load_input input with
  | Error e -> exit_err e
  | Ok aoi ->
      let aqfp, report = Synth_flow.run aoi in
      Format.printf "input: %a@." Netlist.pp_stats aoi;
      Format.printf "aqfp:  %a@." Netlist.pp_stats aqfp;
      Format.printf "%a@." Synth_flow.pp_report report;
      Format.printf "energy: %a@." Energy.pp (Energy.of_netlist Tech.default aqfp);
      Format.printf "structure: %a@." Netlist_stats.pp (Netlist_stats.analyze aqfp);
      Format.printf "balanced: %b, equivalence (sampled): %b@."
        (Netlist.is_balanced aqfp)
        (Sim.equivalent aoi aqfp)

(* ---- resyn ---- *)

let cmd_resyn input effort_name =
  match (load_input input, Resyn.effort_of_string effort_name) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok aoi, Ok effort ->
      let aqfp0 = Synth_flow.run_quiet aoi in
      let aqfp1, r = Resyn.run ~effort aqfp0 in
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
      List.iter (fun d -> Format.printf "%a@." Diag.pp d) r.Resyn.diags

(* ---- place ---- *)

let cmd_place input placer_name =
  match (load_input input, placer_of_string placer_name) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok aoi, Ok algorithm ->
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      let r = Placer.place algorithm p in
      let sta = Sta.analyze p in
      Format.printf "%a@." Placer.pp_result r;
      Format.printf "%a@." Sta.pp_report sta;
      Format.printf "%a@." Problem.pp_summary p

(* ---- route ---- *)

let router_of_string = function
  | "sequential" -> Ok Router.Sequential
  | "negotiated" -> Ok Router.Negotiated
  | s -> Error (Printf.sprintf "unknown router %S (sequential|negotiated)" s)

let cmd_route design jobs =
  let aoi, config = or_exit design in
  Option.iter Parallel.set_jobs jobs;
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place config.Flow.algorithm p);
  let routed = Router.route_all ~algorithm:config.Flow.router p in
  Format.printf
    "routed %d nets: wirelength=%.0fum vias=%d space-expansions=%d (%.1fs)@."
    (Array.length routed.Router.routes)
    routed.Router.wirelength routed.Router.total_vias
    routed.Router.expansions routed.Router.runtime_s;
  match Router.check_routes p routed with
  | Ok () -> Format.printf "route check: clean@."
  | Error e -> Format.printf "route check: %s@." e

(* ---- flow ---- *)

let load_tech = function
  | None -> Ok Tech.default
  | Some path -> Tech.of_file path

let stage_of_cli s =
  match Flow.stage_of_string (String.lowercase_ascii s) with
  | Ok st -> st
  | Error e -> exit_err e

let cmd_flow design store gds_out def_out svg_out jobs check from_opt to_opt
    resume check_out =
  let aoi, config = or_exit design in
  let db_dir, dsan = or_exit store in
  if db_dir = None && (from_opt <> None || resume) then
    exit_err "--from and --resume need a design database (--db DIR)";
  if resume then (
    match db_dir with
    | Some dir when not (Sys.file_exists (Filename.concat dir "meta")) ->
        exit_err
          (Printf.sprintf "--resume: %s holds no previous run to resume"
             dir)
    | _ -> ());
  let from_stage =
    match from_opt with Some s -> stage_of_cli s | None -> Flow.Synth
  in
  let to_stage =
    match to_opt with
    | Some s -> stage_of_cli s
    | None -> if check then Flow.Check else Flow.Layout
  in
  if check && Flow.stage_rank to_stage < Flow.stage_rank Flow.Check then
    exit_err
      (Printf.sprintf "--check needs the full graph but --to %s stops early"
         (Flow.stage_name to_stage));
  let db = open_db db_dir in
  Option.iter Parallel.set_jobs jobs;
  let run () = Flow.run_staged ~config ?db ~from_stage ~to_stage aoi in
  let staged_res, dsan_findings =
    if dsan then Dsan.with_sanitizer ~seed:0 run else (run (), [])
  in
  let staged =
    match staged_res with
    | Ok s -> s
    | Error d -> exit_err (Diag.to_string d)
  in
  (match (def_out, staged.Flow.routed) with
  | Some path, Some (routing, p, _, _) ->
      Def.write_file path (Def.of_design ~design:"superflow" p routing)
  | _ -> ());
  (match (gds_out, staged.Flow.built) with
  | Some path, Some (layout, _, _) -> Layout.write_gds path layout
  | _ -> ());
  List.iter
    (fun f -> Format.eprintf "%a@." Diag.pp (Dsan.to_diag f))
    dsan_findings;
  List.iter
    (fun d -> Format.eprintf "%a@." Diag.pp d)
    staged.Flow.db_warnings;
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
      (match svg_out with
      | Some path ->
          Svg.write_file path r.Flow.layout;
          Format.printf "SVG written to %s@." path
      | None -> ());
      Format.printf "%a@." Flow.pp_summary r;
      (match gds_out with
      | Some path -> Format.printf "GDSII written to %s@." path
      | None -> ());
      (match def_out with
      | Some path -> Format.printf "DEF written to %s@." path
      | None -> ());
      (match (check_out, r.Flow.check_report) with
      | Some path, Some rep ->
          let oc = open_out path in
          output_string oc (Check.render_text rep);
          close_out oc;
          Format.printf "check report written to %s@." path
      | Some _, None ->
          exit_err "--check-out needs the check stage (--check or --to check)"
      | None, _ -> ());
      (match r.Flow.check_report with
      | Some rep when not (Check.ok rep) -> exit 1
      | _ -> ())
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
      | None -> ());
      (match def_out with
      | Some path when staged.Flow.routed <> None ->
          Format.printf "DEF written to %s@." path
      | _ -> ()));
  if dsan_findings <> [] then begin
    Format.eprintf "dsan: %d determinism finding(s)@."
      (List.length dsan_findings);
    exit 1
  end

(* ---- check ---- *)

let cmd_check design store jobs json =
  let aoi, config = or_exit design in
  let db_dir, dsan = or_exit store in
  let db = open_db db_dir in
  Option.iter Parallel.set_jobs jobs;
  let run () = Flow.run_staged ~config ?db ~to_stage:Flow.Check aoi in
  let staged, dsan_findings =
    if dsan then Dsan.with_sanitizer ~seed:0 run else (run (), [])
  in
  let rep =
    match staged with
    | Ok { Flow.checked = Some rep; _ } -> rep
    | Ok _ -> assert false (* the check stage always yields a report *)
    | Error d -> exit_err (Diag.to_string d)
  in
  List.iter
    (fun f -> Format.eprintf "%a@." Diag.pp (Dsan.to_diag f))
    dsan_findings;
  print_string
    (if json then Check.render_json rep else Check.render_text rep);
  if not json then
    Format.printf "check runtime: %.2fs over %d pass(es)@."
      (Check.total_seconds rep)
      (List.length rep.Check.stats);
  if (not (Check.ok rep)) || dsan_findings <> [] then exit 1

(* ---- sanitize ---- *)

let cmd_sanitize design seed schedules jobs =
  let aoi, config = or_exit design in
  match Sanitize.run ~config ~seed ~schedules ?jobs aoi with
  | Error d -> exit_err (Diag.to_string d)
  | Ok rep ->
      print_string (Sanitize.render_text rep);
      if rep.Sanitize.findings <> [] then exit 1

(* ---- drc ---- *)

let cmd_drc design jobs db_dir json =
  let aoi, config = or_exit design in
  let db = open_db db_dir in
  Option.iter Parallel.set_jobs jobs;
  (* build (or load) the layout through the stage graph, then run
     the full-deck signoff with the tile cache wired to the db.
     Tile statistics go to stderr so stdout (the report) is
     byte-comparable across cold/warm and --jobs runs. *)
  match Flow.run_staged ~config ?db ~to_stage:Flow.Layout aoi with
  | Error d -> exit_err (Diag.to_string d)
  | Ok staged ->
      let layout =
        match staged.Flow.built with
        | Some (layout, _, _) -> layout
        | None -> exit_err "drc: the flow produced no layout"
      in
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
      if rep.Drc.diags <> [] then exit 1

(* ---- timing ---- *)

let cmd_timing input placer_name =
  match (load_input input, placer_of_string placer_name) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok aoi, Ok algorithm ->
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place algorithm p);
      let sta = Sta.analyze p in
      Format.printf "%a@." Sta.pp_report sta;
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
      |> List.iter (fun (r, wns) -> Format.printf "  phase %d: wns %.1f ps@." r wns)

(* ---- sim ---- *)

let cmd_sim input n_vectors vcd_out =
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
        vectors;
      (match vcd_out with
      | Some path ->
          Vcd.write_file path aoi vectors;
          Format.printf "VCD written to %s@." path
      | None -> ())

(* ---- verify ---- *)

let cmd_verify input_a input_b =
  match (load_input input_a, load_input input_b) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok nl_a, Ok nl_b -> (
      match Bdd.check_equivalence nl_a nl_b with
      | Bdd.Equivalent ->
          Format.printf "EQUIVALENT (formally proven, BDD)@."
      | Bdd.Different cex ->
          Format.printf "DIFFERENT — counterexample inputs: %s@."
            (String.concat ""
               (List.map (fun b -> if b then "1" else "0") (Array.to_list cex)));
          exit 1
      | Bdd.Too_large ->
          let same = Sim.equivalent nl_a nl_b in
          Format.printf "%s (BDD too large; simulation%s)@."
            (if same then "equivalent" else "DIFFERENT")
            (if List.length (Netlist.inputs nl_a) <= 14 then ", exhaustive"
             else ", sampled");
          if not same then exit 1)

(* ---- prove ---- *)

let cmd_prove input_a input_b engine_opt budget json =
  let engine_name = Option.value engine_opt ~default:"auto" in
  match (load_input input_a, load_input input_b, engine_of_string engine_name)
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> exit_err e
  | Ok nl_a, Ok nl_b, Ok engine ->
      let diags =
        Equiv.check_pair ~engine ?conflict_budget:budget ~stage:"prove" nl_a
          nl_b
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
            "UNPROVEN — %d output(s) fell back to simulation (raise the \
             budget or try --engine sat)@."
            unproven;
        exit 2)
      else if not json then
        Format.printf "EQUIVALENT (formally proven per output, engine %s)@."
          (Equiv.engine_name engine)

(* ---- atpg ---- *)

let cmd_atpg input out_file =
  match load_input input with
  | Error e -> exit_err e
  | Ok aoi ->
      let aqfp = Synth_flow.run_quiet aoi in
      let t = Fault.generate ~seed:1 aqfp in
      Format.printf "%d vectors, %.2f%% stuck-at coverage, %d undetected fault(s)@."
        (List.length t.Fault.vectors)
        (100.0 *. t.Fault.achieved)
        (List.length t.Fault.undetected);
      (match out_file with
      | Some path ->
          let oc = open_out path in
          List.iter
            (fun v ->
              Array.iter (fun b -> output_char oc (if b then '1' else '0')) v;
              output_char oc '\n')
            t.Fault.vectors;
          close_out oc;
          Format.printf "vectors written to %s@." path
      | None -> ())

(* ---- report ---- *)

let cmd_report input placer_name html_out jobs =
  match (load_input input, placer_of_string placer_name) with
  | Error e, _ | _, Error e -> exit_err e
  | Ok aoi, Ok algorithm ->
      let r = Flow.run ~algorithm ?jobs aoi in
      let rep = Chip_report.of_flow r in
      Chip_report.print rep;
      (match html_out with
      | Some path ->
          let svg = Svg.render r.Flow.layout in
          let oc = open_out path in
          output_string oc (Chip_report.to_html ~svg ~title:("SuperFlow: " ^ input) rep);
          close_out oc;
          Format.printf "HTML report written to %s@." path
      | None -> ())

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
  match Mlint.run ~known_ids ~baseline ~root () with
  | Error msg -> exit_err msg
  | Ok rep ->
      if update_baseline then begin
        let lines = Mlint.baseline_lines rep.Mlint.findings in
        let oc = open_out baseline_path in
        output_string oc
          "# Grandfathered SL-* errors (regenerate: superflow mlint \
           --update-baseline).\n\
           # Keep this empty or near-empty: new code fixes or sl-ignores its \
           findings.\n";
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc;
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

let synth_cmd =
  Cmd.v (Cmd.info "synth" ~doc:"Run majority-based logic synthesis")
    Term.(const cmd_synth $ input_arg)

let resyn_cmd_effort_arg =
  Arg.(value & opt string "full" & info [ "effort" ] ~docv:"EFFORT"
         ~doc:"Resynthesis effort: none, fast or full (default full).")

let resyn_cmd =
  Cmd.v
    (Cmd.info "resyn"
       ~doc:"Synthesize, then run the cut-based majority resynthesis engine \
             and report its QoR deltas, per-pass statistics and window-CEC \
             counts.")
    Term.(const cmd_resyn $ input_arg $ resyn_cmd_effort_arg)

let place_cmd =
  Cmd.v (Cmd.info "place" ~doc:"Synthesize and place")
    Term.(const cmd_place $ input_arg $ placer_arg)

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

let svg_arg =
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE"
         ~doc:"Also render the layout as SVG to $(docv).")

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

let engine_arg =
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Equivalence-proof engine: auto (BDD first, SAT on blow-up), \
               bdd, or sat. Part of the synth stage's cache key. Giving \
               $(b,sat) or $(b,auto) explicitly also selects the $(b,full) \
               check tier (AIG/SAT-backed lints); the default runs the fast \
               dataflow tier with engine auto.")

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
               orders are fuzzed, tracked shared arrays check their \
               ownership discipline, and every DSAN-* finding is printed to \
               stderr (exit 1 on any). Incompatible with --db: sanitized \
               runs are never cached.")

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

let engine_t =
  setting engine_tier_of_opt
    (fun c (equiv_engine, check_tier) ->
      { c with Flow.equiv_engine; check_tier })
    engine_arg

let resyn_t =
  setting Resyn.effort_of_string
    (fun c resyn_effort -> { c with Flow.resyn_effort })
    resyn_effort_arg

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

let route_cmd =
  Cmd.v (Cmd.info "route" ~doc:"Synthesize, place and route")
    Term.(const cmd_route $ design_t [ placer_t; router_t ] $ jobs_arg)

let flow_cmd =
  Cmd.v (Cmd.info "flow" ~doc:"Full RTL-to-GDS flow")
    Term.(const cmd_flow
          $ design_t [ placer_t; router_t; tech_t; engine_t; resyn_t; seed_t ]
          $ store_t $ gds_arg $ def_arg $ svg_arg $ jobs_arg $ check_flag_arg
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
    Term.(const cmd_check $ design_t [ placer_t; router_t; tech_t; engine_t ]
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
             race detector armed throughout. Artifact fingerprints \
             (volatile wall-clock fields zeroed) are compared against the \
             baseline and any divergence is binary-searched to its first \
             differing stage/slot (DSAN-SCHED-01 / DSAN-DIVERGE-01); \
             tracked shared arrays report ownership and overlap violations \
             (DSAN-OWN/WW/RW-01). Exits 1 on any finding.")
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
    Term.(const cmd_timing $ input_arg $ placer_arg)

let input_b_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"INPUT2"
         ~doc:"Second design to compare.")

let sim_n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of random vectors.")

let vcd_arg =
  Arg.(value & opt (some string) None & info [ "o"; "vcd" ] ~docv:"FILE"
         ~doc:"Write the waveform as VCD to $(docv).")

let sim_cmd =
  Cmd.v (Cmd.info "sim" ~doc:"Simulate random vectors (optionally dumping VCD)")
    Term.(const cmd_sim $ input_arg $ sim_n_arg $ vcd_arg)

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Formally check two designs for equivalence")
    Term.(const cmd_verify $ input_arg $ input_b_arg)

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"SAT conflict budget of the joint proof of all outputs the \
               SAT engine decides (default 200000): its node sweep spends \
               at most half, and each output's final solve may use what \
               the sweep left. Exhausting it yields EQ-TIMEOUT-01 and \
               exit code 2.")

let prove_cmd =
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove two designs equivalent, output by output, with the \
             complete decision engines (BDD and/or CDCL SAT with AIG \
             sweeping). Exit 0: every output proven equal; 1: a proven \
             difference (with a replayed counterexample); 2: unproven \
             (engine budget exhausted).")
    Term.(const cmd_prove $ input_arg $ input_b_arg $ engine_arg $ budget_arg
          $ json_arg)

let atpg_out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the generated test vectors (one per line) to $(docv).")

let atpg_cmd =
  Cmd.v (Cmd.info "atpg" ~doc:"Generate stuck-at manufacturing test vectors")
    Term.(const cmd_atpg $ input_arg $ atpg_out_arg)

let html_arg =
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE"
         ~doc:"Also write a self-contained HTML report (with the layout) to $(docv).")

let report_cmd =
  Cmd.v (Cmd.info "report" ~doc:"Full design signoff report (area/wiring/timing/energy)")
    Term.(const cmd_report $ input_arg $ placer_arg $ html_arg $ jobs_arg)

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
         ~doc:"A diagnostic rule id, e.g. AI-PHASE-01 or NL-DEAD-01.")

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
      sanitize_cmd; mlint_cmd; explain_cmd; timing_cmd; report_cmd; sim_cmd;
      verify_cmd; prove_cmd; atpg_cmd; tables_cmd; bench_list_cmd ]

let () = exit (Cmd.eval main)
