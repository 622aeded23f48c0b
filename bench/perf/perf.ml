(* Performance benchmark of the RTL-to-GDS flow.

   Each workload is a fixed set of design runs generated from a seed.
   The benchmark times back-to-back passes over the set (a closed loop
   from one client), checks every design run's outputs, and reports
   end-to-end metrics: wall time per pass, set-up time, peak memory and
   QoR. With tracing on it then replays the flow's stages through their
   public functions, with one span around each call, and reports per-
   layer self times and counters.

     dune exec bench/perf/perf.exe -- --seed 0                # every workload
     dune exec bench/perf/perf.exe -- --workload drc-large --seed 1 \
       --seconds 15 --trace 1 --json out.json --trace-dir traces
     dune exec bench/perf/perf.exe -- --self-test

   Every metric is printed as [METRIC <workload> <name> <value> <unit>];
   the last line is one JSON object with the end-to-end metrics
   ([--trace 0]), the per-layer ones ([--trace 1]) or both (no
   [--trace]). The exit code is 1 when a design run fails its checks
   or a determinism guard trips. bench/perf/README.md describes the
   workloads, the metrics and the method. *)

let t_start = Wallclock.now_s ()

(* ---- inputs ---- *)

(* The same circuit with its gates numbered in a topological order drawn
   from the seed. Inputs come first and outputs last, each in their
   original order, so the function and the ports are unchanged; only
   the flow's order-dependent choices see a different design. Seed 0
   is the design itself. *)
let relabel ~seed nl =
  if seed = 0 then nl
  else begin
    let rng = Random.State.make [| seed |] in
    let n = Netlist.size nl in
    let out = Netlist.create () and id = Array.make n (-1) in
    let copy i =
      id.(i) <-
        Netlist.add out ?name:(Netlist.name nl i) (Netlist.kind nl i)
          (Array.map (fun f -> id.(f)) (Netlist.fanins nl i))
    in
    let gate i =
      match Netlist.kind nl i with Netlist.Input | Netlist.Output -> false | _ -> true
    in
    let users = Netlist.fanouts nl in
    (* gate fan-ins not yet copied, counted per fan-out edge *)
    let pending = Array.make n 0 in
    Array.iteri
      (fun i us -> if gate i then List.iter (fun u -> pending.(u) <- pending.(u) + 1) us)
      users;
    let ready = Array.make n 0 and nready = ref 0 in
    let push i =
      ready.(!nready) <- i;
      incr nready
    in
    List.iter copy (Netlist.inputs nl);
    for i = 0 to n - 1 do
      if gate i && pending.(i) = 0 then push i
    done;
    while !nready > 0 do
      let k = Random.State.int rng !nready in
      let i = ready.(k) in
      decr nready;
      ready.(k) <- ready.(!nready);
      copy i;
      List.iter
        (fun u ->
          if gate u then begin
            pending.(u) <- pending.(u) - 1;
            if pending.(u) = 0 then push u
          end)
        users.(i)
    done;
    List.iter copy (Netlist.outputs nl);
    out
  end

let iscas = [ "c432"; "c499"; "c1355"; "c1908" ]

(* The seed relabels the ISCAS'85 stand-ins; the structured generators
   have no seed. *)
let design ~seed name =
  let nl = Circuits.benchmark name in
  if List.mem name iscas then relabel ~seed nl else nl

type design_run = {
  label : string;
  aoi : Netlist.t;
  router : Router.algorithm;
}

let design_run ?(router = Router.Sequential) label aoi = { label; aoi; router }

type kind =
  | Physical  (** [Flow.run], then the GDS bytes *)
  | Logic  (** synthesis, resynthesis and the proofs; no physical stage *)

type workload = {
  name : string;
  kind : kind;
  placer : Placer.algorithm;
  jobs : int;
  check : bool;  (** physical runs end at the check gate *)
  db : bool;  (** each pass writes a fresh sf_db; warm reruns read it *)
  runs : int -> design_run list;  (** the inputs, generated from the seed *)
}

let seeded names seed = List.map (fun n -> design_run n (design ~seed n)) names

let workloads =
  [
    {
      name = "signoff-small";
      kind = Physical;
      placer = Placer.Superflow;
      jobs = 1;
      check = true;
      db = true;
      runs = seeded [ "adder8"; "c432"; "apc32" ];
    };
    {
      name = "drc-large";
      kind = Physical;
      placer = Placer.Gordian;
      jobs = 2;
      check = false;
      db = false;
      runs =
        (fun seed ->
          seeded [ "c499" ] seed
          @ [ design_run "sorter32" (Circuits.benchmark "sorter32") ]);
    };
    {
      name = "route-congested";
      kind = Physical;
      placer = Placer.Gordian;
      jobs = 1;
      check = false;
      db = false;
      runs =
        (fun _ ->
          [
            design_run "decoder6" (Circuits.decoder 6);
            design_run ~router:Router.Negotiated "decoder6-negotiated"
              (Circuits.decoder 6);
          ]);
    };
    {
      name = "logic-resyn";
      kind = Logic;
      placer = Placer.Superflow;
      jobs = 1;
      check = true;
      db = false;
      (* apc128 first: the warm-up is the first design run, and apc128
         gives resynthesis and its proofs the most work *)
      runs =
        seeded ("apc128" :: List.filter (fun n -> n <> "apc128") Circuits.benchmark_names);
    };
  ]

(* ---- per-layer counters, read from the records each call returns ---- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counti name n = count name (float_of_int n)

(* ---- one design run ---- *)

type outcome = {
  failure : string option;  (** the first check the run failed *)
  fingerprint : string;  (** exact outputs and counters; must repeat *)
  jj : int;
  depth : int;
}

let digest s = Digest.to_hex (Digest.string s)
let jj_of nl = (Energy.of_netlist Tech.default nl).Energy.jj_count
let depth_of nl = Netlist.fold nl (fun d n -> max d n.Netlist.phase) 0
let first_failure checks = List.find_map (fun check -> check ()) checks

let gds_bytes layout = Bytes.to_string (Gds.to_bytes (Layout.to_gds layout))

let flow_run w ?db r =
  let res =
    Flow.run ~algorithm:w.placer ~router:r.router ~jobs:w.jobs ~check:w.check
      ?db r.aoi
  in
  (res, gds_bytes res.Flow.layout)

(* The stages of [Flow.run_staged] without a database, called one by
   one with the flow's arguments and in its order (lib/core/flow.ml). *)
let replay_flow w r =
  let tech = Tech.default in
  Parallel.set_jobs w.jobs;
  let aqfp0, synth_report =
    Span.record "synth" (fun () -> Synth_flow.run ~check:w.check r.aoi)
  in
  counti "synth.jj" synth_report.Synth_flow.jjs;
  let aqfp1, resyn_report = Span.record "resyn" (fun () -> Resyn.run aqfp0) in
  let p0 =
    Span.record "place.problem" (fun () -> Problem.of_netlist tech aqfp1)
  in
  let placement =
    Span.record "place.placer" (fun () ->
        Placer.place ~seed:1 w.placer p0)
  in
  let aqfp, p, buffer_lines =
    Span.record "place.bufferline" (fun () -> Bufferline.insert aqfp1 p0)
  in
  if buffer_lines > 0 then
    ignore
      (Span.record "place.settle" (fun () ->
           Detailed.run
             ~options:
               { Detailed.default_options with max_passes = 3; window = 2 }
             p));
  ignore (Span.record "place.preexpand" (fun () -> Congestion.preexpand p));
  counti "place.moves" placement.Placer.moves;
  count "place.hpwl_mm" (placement.Placer.hpwl /. 1000.0);
  counti "place.buffer_lines" buffer_lines;
  let route () =
    let rt =
      Span.record "route" (fun () -> Router.route_all ~algorithm:r.router p)
    in
    counti "route.calls" 1;
    counti "route.node_expansions" rt.Router.node_expansions;
    counti "route.space_expansions" rt.Router.expansions;
    counti "route.neg_rounds" rt.Router.neg_rounds;
    counti "route.neg_rerouted" rt.Router.neg_rerouted;
    count "route.grid_steps" (rt.Router.wirelength /. tech.Tech.grid);
    rt
  in
  let rec fix_loop routing rounds =
    let layout = Span.record "layout" (fun () -> Layout.build p routing) in
    let drc = Span.record "drc" (fun () -> Drc.check layout) in
    let st = drc.Drc.stats in
    counti "drc.tiles_total" st.Drc.tiles_total;
    counti "drc.tiles_checked" st.Drc.tiles_checked;
    counti "drc.tiles_cached" st.Drc.tiles_cached;
    counti "drc.shapes"
      (Array.length layout.Layout.cells + Array.length layout.Layout.wires
     + Array.length layout.Layout.vias);
    let violations = drc.Drc.diags in
    let stop () = (routing, layout, violations, rounds) in
    if violations = [] || rounds >= 3 then stop ()
    else
      match Span.record "drc.gap_hints" (fun () -> Drc.gap_hints p violations) with
      | [] -> stop ()
      | gaps ->
          List.iter
            (fun g ->
              if g >= 0 && g < Array.length p.Problem.row_gaps then
                p.Problem.row_gaps.(g) <- p.Problem.row_gaps.(g) +. tech.Tech.s_min)
            gaps;
          fix_loop (route ()) (rounds + 1)
  in
  let routing, layout, violations, rounds = fix_loop (route ()) 0 in
  counti "drc.fix_rounds" rounds;
  count "route.wirelength_mm" (routing.Router.wirelength /. 1000.0);
  counti "route.vias" routing.Router.total_vias;
  let sta = Span.record "sta" (fun () -> Sta.analyze_routed p routing) in
  count "sta.tns_ps" sta.Sta.tns_ps;
  let energy = Span.record "energy" (fun () -> Energy.of_netlist tech aqfp) in
  let gds = Span.record "gds" (fun () -> gds_bytes layout) in
  counti "gds.bytes" (String.length gds);
  let res =
    {
      Flow.aqfp_netlist = aqfp;
      problem = p;
      routing;
      layout;
      violations;
      synth_report;
      resyn_report;
      placement;
      sta;
      energy;
      buffer_lines;
      drc_fix_rounds = rounds;
      check_report = None;
      times =
        {
          Flow.synth_s = 0.0;
          resyn_s = 0.0;
          place_s = 0.0;
          route_s = 0.0;
          layout_s = 0.0;
          check_s = 0.0;
        };
    }
  in
  let check_report =
    if not w.check then None
    else
      Some
        (Span.record "check" (fun () ->
             Check.run
               ~header:[ ("tier", "fast"); ("engine", "auto") ]
               (Flow.check_passes res)))
  in
  Option.iter
    (fun rep -> counti "check.diags" (List.length rep.Check.diags))
    check_report;
  ({ res with Flow.check_report }, gds)

let physical_outcome w r (res : Flow.result) gds =
  let failure =
    first_failure
      [
        (fun () ->
          match Router.check_routes res.Flow.problem res.Flow.routing with
          | Ok () -> None
          | Error e -> Some ("route check: " ^ e));
        (fun () ->
          match res.Flow.violations with
          | [] -> None
          | d :: _ -> Some ("residual DRC violation: " ^ Diag.to_string d));
        (fun () ->
          match Gds.of_bytes (Bytes.of_string gds) with
          | Ok _ -> None
          | Error e -> Some ("GDS re-parse: " ^ e));
        (fun () ->
          if Sim.equivalent r.aoi res.Flow.aqfp_netlist then None
          else Some "final netlist differs from the input");
        (fun () ->
          match res.Flow.check_report with
          | None -> if w.check then Some "no check report" else None
          | Some rep -> (
              match List.find_opt (fun d -> d.Diag.severity = Diag.Error) rep.Check.diags with
              | Some d -> Some ("check: " ^ Diag.to_string d)
              | None -> None));
      ]
  in
  let rt = res.Flow.routing in
  {
    failure;
    fingerprint =
      Printf.sprintf
        "gds=%s route.node_expansions=%d route.space_expansions=%d \
         route.neg_rounds=%d route.neg_rerouted=%d place.moves=%d \
         place.buffer_lines=%d drc.fix_rounds=%d check=%s"
        (digest gds) rt.Router.node_expansions rt.Router.expansions
        rt.Router.neg_rounds rt.Router.neg_rerouted res.Flow.placement.Placer.moves
        res.Flow.buffer_lines res.Flow.drc_fix_rounds
        (match res.Flow.check_report with
        | Some rep -> digest (Check.render_text rep)
        | None -> "-");
    jj = jj_of res.Flow.aqfp_netlist;
    depth = depth_of res.Flow.aqfp_netlist;
  }

(* The [superflow resyn]/[prove] path: synthesis with SAT guards,
   full-effort resynthesis, its equivalence proof and the full-tier
   netlist checks. *)
let logic_run r =
  let aqfp0, srep =
    Span.record "synth" (fun () -> Synth_flow.run ~check:true ~engine:`Sat r.aoi)
  in
  let nl, rrep =
    Span.record "resyn" (fun () -> Resyn.run ~effort:Resyn.Full aqfp0)
  in
  let proof =
    Span.record "equiv" (fun () ->
        Equiv.check_pair ~engine:`Sat ~stage:"resyn" aqfp0 nl)
  in
  let report =
    Span.record "check" (fun () ->
        Check.run
          (Check.pass "lint" (fun () -> Lint.check ~tier:Check.Full nl)
          :: Absint_check.passes nl))
  in
  counti "synth.jj" srep.Synth_flow.jjs;
  counti "resyn.rounds" rrep.Resyn.rounds;
  counti "resyn.tried" (Resyn.rewrites_tried rrep);
  counti "resyn.accepted" (Resyn.rewrites_accepted rrep);
  counti "resyn.cec_windows" rrep.Resyn.cec.Resyn.windows;
  counti "resyn.cec_proved" rrep.Resyn.cec.Resyn.proved;
  counti "check.diags" (List.length report.Check.diags);
  (srep.Synth_flow.guard_diags @ rrep.Resyn.diags @ proof, nl, rrep, report)

let logic_outcome r (proofs, nl, rrep, report) =
  let is_proof_error d =
    d.Diag.severity = Diag.Error
    && (String.starts_with ~prefix:"EQ-" d.Diag.rule || d.Diag.rule = "RS-CEC-01")
  in
  let failure =
    first_failure
      [
        (fun () ->
          if Sim.equivalent r.aoi nl then None
          else Some "resynthesized netlist differs from the input");
        (fun () ->
          Option.map
            (fun d -> "proof: " ^ Diag.to_string d)
            (List.find_opt is_proof_error proofs));
      ]
  in
  {
    failure;
    fingerprint =
      Printf.sprintf
        "netlist=%s resyn.rounds=%d resyn.tried=%d resyn.accepted=%d \
         resyn.cec_windows=%d resyn.cec_proved=%d check=%s"
        (Netlist.struct_hash nl) rrep.Resyn.rounds (Resyn.rewrites_tried rrep)
        (Resyn.rewrites_accepted rrep) rrep.Resyn.cec.Resyn.windows
        rrep.Resyn.cec.Resyn.proved
        (digest (Check.render_text report));
    jj = jj_of nl;
    depth = depth_of nl;
  }

let crashed e =
  {
    failure = Some ("exception: " ^ Printexc.to_string e);
    fingerprint = "";
    jj = 0;
    depth = 0;
  }

(* Runs one design and returns the seconds spent in the program (the
   checks after it are not timed) with the checked outcome. *)
let exec (w : workload) ~replay ?db r =
  let t0 = Wallclock.now_s () in
  match w.kind with
  | Physical -> (
      match
        Span.run r.label (fun () ->
            if replay then replay_flow w r else flow_run w ?db r)
      with
      | res, gds -> (Wallclock.now_s () -. t0, physical_outcome w r res gds)
      | exception e -> (Wallclock.now_s () -. t0, crashed e))
  | Logic -> (
      match Span.run r.label (fun () -> logic_run r) with
      | out -> (Wallclock.now_s () -. t0, logic_outcome r out)
      | exception e -> (Wallclock.now_s () -. t0, crashed e))

(* ---- passes and the guards over them ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : string list;  (** determinism guard failures *)
  seen : (string, string) Hashtbl.t;  (** first fingerprint per design run *)
}

let observe (w : workload) tally r o =
  tally.attempted <- tally.attempted + 1;
  match o.failure with
  | Some why ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "FAIL %s %s: %s\n%!" w.name r.label why
  | None -> (
      match Hashtbl.find_opt tally.seen r.label with
      | None -> Hashtbl.replace tally.seen r.label o.fingerprint
      | Some fp when fp = o.fingerprint -> ()
      | Some fp ->
          let msg =
            Printf.sprintf "%s %s: outputs changed between passes\n  was %s\n  now %s"
              w.name r.label fp o.fingerprint
          in
          prerr_endline ("NONDETERMINISTIC " ^ msg);
          tally.broken <- msg :: tally.broken)

type pass = { wall : float; jj_sum : int; depth_sum : int }

let pass w tally ~replay ?db runs =
  List.fold_left
    (fun acc r ->
      let s, (o : outcome) = exec w ~replay ?db r in
      observe w tally r o;
      { wall = acc.wall +. s; jj_sum = acc.jj_sum + o.jj; depth_sum = acc.depth_sum + o.depth })
    { wall = 0.0; jj_sum = 0; depth_sum = 0 }
    runs

(* ---- the design database of the [db] workload ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec du path =
  if Sys.is_directory path then
    Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let scratch_root = "_perf"

let scratch_dir w =
  Filename.concat scratch_root (Printf.sprintf "%s-%d" w.name (Unix.getpid ()))

let open_fresh_db dir =
  rm_rf dir;
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  match Db.open_ dir with
  | Ok db -> db
  | Error d -> failwith (Diag.to_string d)

let cleanup dir =
  rm_rf dir;
  try Sys.rmdir scratch_root with Sys_error _ -> ()

(* ---- statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let a = sorted a and n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(a, n=4)] (the exclusive method). *)
let quartiles a =
  let d = sorted a and n = Array.length a in
  if n < 2 then (median a, median a)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

type metric = { name : string; unit : string; samples : float array }

let metric name unit samples = { name; unit; samples }
let one name unit v = metric name unit [| v |]

(* shortest decimal form that reads back to the same float *)
let num v =
  let v = if Float.is_finite v then v else 0.0 in
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb /. 1024.0)

(* ---- per-layer metrics ---- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Warm reruns of the design set against the last cold pass's
   database: every stage should be served from it. *)
let warm_reruns w tally runs db ~reruns =
  let walls = Array.make reruns 0.0 and loads = Array.make reruns 0.0 in
  for i = 0 to reruns - 1 do
    Db.reset_log db;
    walls.(i) <- (pass w tally ~replay:false ~db runs).wall;
    loads.(i) <-
      List.fold_left
        (fun acc (_, o, s) -> if o = Db.Hit then acc +. s else acc)
        0.0 (Db.outcomes db)
  done;
  [
    metric "db.load_s" "s" loads;
    metric "db.warm_s" "s" walls;
    one "db.hits" "count" (float_of_int (Db.hits db));
  ]

let layer_metrics (w : workload) spans ~overhead ~db_metrics =
  let selfs = Span.self_times spans in
  let self_if p =
    List.fold_left (fun acc (s, t) -> if p s then acc +. t else acc) 0.0 selfs
  in
  let layer l = self_if (fun s -> Span.layer s = l) in
  let named n = self_if (fun s -> s.Span.name = n) in
  let cpu_util l =
    let wall, cpu =
      List.fold_left
        (fun (wall, cpu) s ->
          if Span.layer s = l then (wall +. s.Span.t1 -. s.Span.t0, cpu +. s.Span.cpu)
          else (wall, cpu))
        (0.0, 0.0) spans
    in
    ratio cpu (wall *. float_of_int w.jobs)
  in
  let c n = Option.value ~default:0.0 (Hashtbl.find_opt counters n) in
  let db n unit =
    Option.value ~default:(one n unit 0.0)
      (List.find_opt (fun m -> m.name = n) db_metrics)
  in
  let s n v = one n "s" v and k n v = one n "count" v in
  [
    s "place.s" (layer "place");
    s "place.bufferline_s" (named "place.bufferline");
    s "place.settle_s" (named "place.settle");
    s "place.preexpand_s" (named "place.preexpand");
    k "place.moves" (c "place.moves");
    one "place.hpwl_mm" "mm" (c "place.hpwl_mm");
    k "place.buffer_lines" (c "place.buffer_lines");
    s "drc.s" (layer "drc");
    one "drc.ms_per_tile" "ms" (ratio (1000.0 *. layer "drc") (c "drc.tiles_checked"));
    k "drc.tiles_total" (c "drc.tiles_total");
    k "drc.tiles_checked" (c "drc.tiles_checked");
    k "drc.tiles_cached" (c "drc.tiles_cached");
    k "drc.shapes" (c "drc.shapes");
    k "drc.fix_rounds" (c "drc.fix_rounds");
    s "layout.s" (layer "layout");
    s "route.s" (layer "route");
    k "route.calls" (c "route.calls");
    k "route.node_expansions" (c "route.node_expansions");
    k "route.space_expansions" (c "route.space_expansions");
    k "route.neg_rounds" (c "route.neg_rounds");
    k "route.neg_rerouted" (c "route.neg_rerouted");
    one "route.exp_per_step" "ratio" (ratio (c "route.node_expansions") (c "route.grid_steps"));
    one "route.wirelength_mm" "mm" (c "route.wirelength_mm");
    k "route.vias" (c "route.vias");
    s "synth.s" (layer "synth");
    k "synth.jj" (c "synth.jj");
    s "resyn.s" (layer "resyn");
    k "resyn.rounds" (c "resyn.rounds");
    k "resyn.tried" (c "resyn.tried");
    k "resyn.accepted" (c "resyn.accepted");
    one "resyn.accept_ratio" "ratio" (ratio (c "resyn.accepted") (c "resyn.tried"));
    k "resyn.cec_windows" (c "resyn.cec_windows");
    k "resyn.cec_proved" (c "resyn.cec_proved");
    s "equiv.s" (layer "equiv");
    db "db.load_s" "s";
    db "db.warm_s" "s";
    db "db.hits" "count";
    db "db.misses" "count";
    db "db.bytes" "B";
    one "place.cpu_util" "ratio" (cpu_util "place");
    one "route.cpu_util" "ratio" (cpu_util "route");
    one "drc.cpu_util" "ratio" (cpu_util "drc");
    s "check.s" (layer "check");
    k "check.diags" (c "check.diags");
    s "sta.s" (layer "sta");
    one "sta.tns_ps" "ps" (c "sta.tns_ps");
    s "gds.s" (layer "gds");
    one "gds.bytes" "B" (c "gds.bytes");
    one "trace_overhead_frac" "ratio" overhead;
  ]

(* Each layer's share of the traced pass's self time; the glue between
   calls inside a design run's root span counts as "run". *)
let shares_line (w : workload) spans =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s, t) ->
      let l = if s.Span.parent < 0 then "run" else Span.layer s in
      Hashtbl.replace totals l (t +. Option.value ~default:0.0 (Hashtbl.find_opt totals l)))
    (Span.self_times spans);
  let all = List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq totals)) in
  let sum = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 all in
  Printf.sprintf "SHARES %s %s" w.name
    (String.concat " "
       (List.map (fun (l, t) -> Printf.sprintf "%s=%.1f%%" l (100.0 *. ratio t sum)) all))

(* ---- one workload in this process ---- *)

type options = {
  seed : int;
  seconds : float;
  min_passes : int;
  setup_samples : int;  (** set-ups measured, each in a fresh process *)
  reruns : int;  (** warm reruns of the [db] workload *)
  warm_up : bool;
  end_to_end : bool;
  per_layer : bool;
  trace_dir : string option;
}

(* Inputs, pool, database and one warm-up design run: everything the
   process does before its first timed pass. *)
let set_up (w : workload) tally ~seed ~warm_up =
  let runs = w.runs seed in
  Parallel.set_jobs w.jobs;
  let dir = scratch_dir w in
  let db () = if w.db then Some (open_fresh_db (Filename.concat dir "db")) else None in
  if warm_up then ignore (pass w tally ~replay:false ?db:(db ()) [ List.hd runs ]);
  (runs, db, dir)

let spawn_set_up (w : workload) ~seed =
  let args =
    [| Sys.executable_name; "--setup-only"; "--workload"; w.name; "--seed"; string_of_int seed |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, Scanf.sscanf_opt out "SETUP %f" Fun.id) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up of " ^ w.name ^ " failed")

let measure (w : workload) (o : options) =
  let tally = { attempted = 0; failed = 0; broken = []; seen = Hashtbl.create 16 } in
  let runs, db, dir = set_up w tally ~seed:o.seed ~warm_up:o.warm_up in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let setup = Wallclock.now_s () -. t_start in
  let t0 = Wallclock.now_s () in
  let rec timed acc =
    if List.length acc >= o.min_passes && Wallclock.now_s () -. t0 >= o.seconds
    then List.rev acc
    else
      let db, open_s = Wallclock.time db in
      let p = pass w tally ~replay:false ?db runs in
      timed ((p, db, open_s) :: acc)
  in
  let passes = timed [] in
  let walls = Array.of_list (List.map (fun (p, _, s) -> p.wall +. s) passes) in
  let last, last_db, _ = List.nth passes (List.length passes - 1) in
  let rss = peak_rss_mb () in
  let layer =
    if not o.per_layer then []
    else begin
      let db_metrics =
        match last_db with
        | None -> []
        | Some db ->
            let misses = Db.misses db and bytes = du (Db.dir db) in
            one "db.misses" "count" (float_of_int misses)
            :: one "db.bytes" "B" (float_of_int bytes)
            :: warm_reruns w tally runs db ~reruns:o.reruns
      in
      (* untraced, then traced: the per-layer counters must repeat *)
      Hashtbl.reset counters;
      let untraced = pass w tally ~replay:true runs in
      let reference = Hashtbl.copy counters in
      Hashtbl.reset counters;
      Span.reset ();
      Span.on := true;
      let traced = pass w tally ~replay:true runs in
      Span.on := false;
      let spans = !Span.spans in
      if Hashtbl.length reference <> Hashtbl.length counters then
        tally.broken <- (w.name ^ ": replays recorded different counters") :: tally.broken;
      Hashtbl.iter
        (fun k v ->
          if Hashtbl.find_opt counters k <> Some v then
            tally.broken <-
              Printf.sprintf "%s: counter %s changed between replays" w.name k
              :: tally.broken)
        reference;
      print_endline (shares_line w spans);
      Option.iter
        (fun d ->
          if not (Sys.file_exists d) then Sys.mkdir d 0o755;
          Span.write_chrome (Filename.concat d (w.name ^ ".json")) ~pid:1 spans)
        o.trace_dir;
      layer_metrics w spans
        ~overhead:(ratio traced.wall untraced.wall -. 1.0)
        ~db_metrics
    end
  in
  let e2e =
    if not o.end_to_end then []
    else
      let setups =
        setup
        :: List.init (o.setup_samples - 1) (fun _ -> spawn_set_up w ~seed:o.seed)
      in
      [
        metric "wall_s" "s" walls;
        metric "setup_s" "s" (Array.of_list setups);
        one "peak_rss_mb" "MB" rss;
        one "jj" "count" (float_of_int last.jj_sum);
        one "phase_depth" "count" (float_of_int last.depth_sum);
      ]
  in
  (tally, e2e, layer)

(* ---- output ---- *)

let metric_json m =
  Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num (median m.samples)) m.unit

let stats_json m =
  let q1, q3 = quartiles m.samples in
  Printf.sprintf "\"%s\": {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d, \"unit\": \"%s\"}"
    m.name (num (median m.samples)) (num q1) (num q3) (Array.length m.samples) m.unit

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " metrics)

let print_metrics (w : workload) tally metrics =
  List.iter
    (fun m ->
      Printf.printf "METRIC %s %s %s %s\n" w.name m.name (num (median m.samples)) m.unit)
    metrics;
  Printf.printf "METRIC %s fail_frac %s ratio\n" w.name
    (num (ratio (float_of_int tally.failed) (float_of_int tally.attempted)))

let run_one (w : workload) o ~trace ~json =
  let tally, e2e, layer = measure w o in
  let all = e2e @ layer in
  print_metrics w tally all;
  let correct = tally.failed = 0 && tally.broken = [] in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            "{\"workload\": \"%s\", \"seed\": %d, \"correct\": %b, \"attempted\": %d, \
             \"failed\": %d, \"metrics\": {\n  %s\n}}\n"
            w.name o.seed correct tally.attempted tally.failed
            (String.concat ",\n  " (List.map stats_json all))))
    json;
  let reported = match trace with Some true -> layer | Some false -> e2e | None -> all in
  print_endline
    (result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
       (List.map metric_json reported));
  if not correct then exit 1

(* Every workload, each in a fresh child process so that peak memory
   is per workload. *)
let run_all args ~json =
  let failed = ref false and attempted = ref 0 and bad = ref 0 and metrics = ref [] in
  let parts =
    List.map
      (fun (w : workload) ->
        let part = Option.map (fun j -> j ^ "." ^ w.name) json in
        let argv =
          Array.of_list
            ((Sys.executable_name :: "--workload" :: w.name :: args)
            @ Option.fold ~none:[] ~some:(fun p -> [ "--json"; p ]) part)
        in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let last = ref "" in
        In_channel.fold_lines
          (fun () line ->
            print_endline line;
            (match String.split_on_char ' ' line with
            | [ "METRIC"; wl; name; v; unit ] ->
                metrics := Printf.sprintf "\"%s/%s\": {\"value\": %s, \"unit\": \"%s\"}" wl name v unit :: !metrics
            | _ -> ());
            last := line)
          () ic;
        (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> failed := true);
        (match Scanf.sscanf_opt !last "{\"correct\": %_B, \"attempted\": %d, \"failed\": %d" (fun a f -> (a, f)) with
        | Some (a, f) ->
            attempted := !attempted + a;
            bad := !bad + f
        | None -> failed := true);
        part)
      workloads
  in
  Option.iter
    (fun path ->
      let bodies =
        List.filter_map
          (fun p ->
            match p with
            | Some p when Sys.file_exists p ->
                let s = In_channel.with_open_text p In_channel.input_all in
                Sys.remove p;
                Some (String.trim s)
            | _ -> None)
          parts
      in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" bodies)))
    json;
  print_endline
    (result_line ~correct:(not !failed) ~attempted:(max 1 !attempted) ~failed:!bad
       (List.rev !metrics));
  if !failed then exit 1

(* ---- self-test (the [runtest] rule) ---- *)

(* Names listed under [key] in BENCHMARK.json: every ["name": "..."]
   between the key and the closing bracket of its list. *)
let listed_names text key =
  let find sub from =
    let n = String.length text and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub text i m = sub then Some i
      else go (i + 1)
    in
    go from
  in
  match find ("\"" ^ key ^ "\"") 0 with
  | None -> []
  | Some start ->
      let stop = Option.value ~default:(String.length text) (find "]" start) in
      let rec names from acc =
        match find "\"name\"" from with
        | Some i when i < stop ->
            let b = String.index_from text (String.index_from text (i + 6) ':') '"' + 1 in
            let e = String.index_from text b '"' in
            names e (String.sub text b (e - b) :: acc)
        | _ -> List.rev acc
      in
      names start []

let self_test benchmark_json =
  let text = In_channel.with_open_text benchmark_json In_channel.input_all in
  let problems = ref [] in
  let expect ok msg = if not ok then problems := msg :: !problems in
  List.iter
    (fun n ->
      expect
        (Sim.equivalent (Circuits.benchmark n) (design ~seed:1 n))
        (n ^ ": relabelling changed the function"))
    iscas;
  expect
    (listed_names text "workloads" = List.map (fun (w : workload) -> w.name) workloads)
    "BENCHMARK.json workloads differ from the harness's";
  let w =
    {
      (List.hd workloads) with
      runs = (fun _ -> [ design_run "adder8" (Circuits.benchmark "adder8") ]);
    }
  in
  let tally, e2e, layer =
    measure w
      {
        seed = 0;
        seconds = 0.0;
        min_passes = 1;
        setup_samples = 1;
        reruns = 1;
        warm_up = false;
        end_to_end = true;
        per_layer = true;
        trace_dir = None;
      }
  in
  let names ms = List.map (fun m -> m.name) ms in
  expect (names e2e = listed_names text "end_to_end")
    "end-to-end metrics differ from BENCHMARK.json";
  expect (names layer = listed_names text "per_layer")
    "per-layer metrics differ from BENCHMARK.json";
  expect (tally.failed = 0) "adder8 failed its checks";
  (* one timed pass, two replays and one warm rerun, all identical *)
  expect (tally.attempted = 4 && tally.broken = []) "adder8 outputs did not repeat";
  match !problems with
  | [] -> print_endline "perf self-test: ok"
  | ps ->
      print_metrics w tally (e2e @ layer);
      List.iter (fun p -> prerr_endline ("perf self-test: " ^ p)) (List.rev ps);
      exit 1

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 15.0 and trace = ref None in
  let json = ref None and trace_dir = ref None in
  let self_test_json = ref None and setup_only = ref false in
  let forwarded = ref [] in
  let fwd flag v = forwarded := !forwarded @ [ flag; v ] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W run one workload in this process");
      ("--seed", Arg.Int (fun s -> seed := s; fwd "--seed" (string_of_int s)), "N input seed (default 0)");
      ("--seconds", Arg.Float (fun s -> seconds := s; fwd "--seconds" (string_of_float s)),
       "S length of the timed loop (default 15)");
      ("--trace", Arg.Int (fun t -> trace := Some (t <> 0); fwd "--trace" (string_of_int t)),
       "0|1 report the end-to-end (0) or per-layer (1) metrics; default both");
      ("--json", Arg.String (fun p -> json := Some p), "FILE write median, q1, q3 and n per metric");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d; fwd "--trace-dir" d),
       "DIR write one Chrome trace-event file per workload");
      ("--self-test", Arg.String (fun p -> self_test_json := Some p),
       "BENCHMARK.json check the harness on adder8 against the metric list");
      ("--setup-only", Arg.Set setup_only, " (internal) measure one set-up and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--trace-dir DIR]";
  let find name =
    match List.find_opt (fun (w : workload) -> w.name = name) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 2
  in
  match !self_test_json with
  | Some path -> self_test path
  | None when !setup_only ->
      let w = find !workload in
      let tally = { attempted = 0; failed = 0; broken = []; seen = Hashtbl.create 1 } in
      let _, _, dir = set_up w tally ~seed:!seed ~warm_up:true in
      let s = Wallclock.now_s () -. t_start in
      cleanup dir;
      Printf.printf "SETUP %s\n" (num s);
      if tally.failed > 0 then exit 1
  | None when !workload = "" -> run_all !forwarded ~json:!json
  | None ->
      let w = find !workload in
      run_one w
        {
          seed = !seed;
          seconds = !seconds;
          min_passes = 3;
          setup_samples = 5;
          reruns = 5;
          warm_up = true;
          end_to_end = !trace <> Some true;
          per_layer = !trace <> Some false;
          trace_dir = !trace_dir;
        }
        ~trace:!trace ~json:!json
