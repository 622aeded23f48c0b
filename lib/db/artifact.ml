(* Stage-handoff codecs. Each description below is the payload format of
   one artifact kind or of a part embedded in several; the frame
   (magic, kind, version, length, checksum) comes from Codec. Bump a
   codec's version whenever its payload layout changes — stale
   artifacts then fail loudly with DB-VERSION-01 instead of decoding
   garbage. *)

open Codec

type 'a codec = {
  kind : string;
  version : int;
  encode : 'a -> string;
  decode : string -> ('a, Diag.t) result;
}

let make ~kind ~version c =
  {
    kind;
    version;
    encode = Codec.encode ~kind ~version c;
    decode = Codec.decode ~kind ~version c;
  }

(* ---- netlist ---- *)

let gate_kind =
  enum "gate-kind"
    Netlist.
      [
        const 0 Input; const 1 Output; const 2 (Const false);
        const 3 (Const true); const 4 Buf; const 5 Not; const 6 And;
        const 7 Or; const 8 Nand; const 9 Nor; const 10 Xor; const 11 Xnor;
        const 12 Maj;
        case 13 int (fun k -> Splitter k) (function
          | Splitter k -> Some k | _ -> None);
      ]

(* one node: kind, fan-ins, name, phase *)
let node =
  record (fun kind fanins name phase -> (kind, fanins, name, phase))
  |+ (gate_kind, fun (k, _, _, _) -> k)
  |+ (array int, fun (_, f, _, _) -> f)
  |+ (option string, fun (_, _, n, _) -> n)
  |+ (int, fun (_, _, _, p) -> p)
  |> close

(* the node count, then every node in id order; reading rebuilds the
   netlist and refuses fan-ins outside the node range *)
let netlist_body =
  {
    write =
      (fun b nl ->
        int.write b (Netlist.size nl);
        Netlist.iter nl (fun nd ->
            node.write b
              Netlist.(nd.kind, nd.fanins, nd.name, nd.phase)));
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 then raise (Corrupt "negative node count");
        let nl = Netlist.create () in
        let fixups = ref [] in
        for id = 0 to n - 1 do
          let kind, fanins, name, phase = node.read r in
          Array.iter
            (fun f ->
              if f < 0 || f >= n then
                raise
                  (Corrupt
                     (Printf.sprintf "node %d: fanin %d out of range" id f)))
            fanins;
          (* fan-ins may point forward (insertion rewires edges), so add
             a placeholder first and wire the real fan-ins afterwards —
             the same two-pass scheme as [Netlist.copy] *)
          let placeholder =
            Array.map (fun f -> if f < id then f else 0) fanins
          in
          let id' = Netlist.add nl ?name kind placeholder in
          if id' <> id then raise (Corrupt "node id drift during rebuild");
          Netlist.set_phase nl id phase;
          fixups := (id, fanins) :: !fixups
        done;
        List.iter (fun (id, fanins) -> Netlist.set_fanins nl id fanins) !fixups;
        nl);
  }

(* ---- technology and library cells (embedded in problem/layout) ---- *)

let tech_body =
  record
    (fun grid s_min w_max row_gap clock_freq_ghz phases signal_velocity
         clock_velocity gate_delay_ps metal_layers ->
      { Tech.grid; s_min; w_max; row_gap; clock_freq_ghz; phases;
        signal_velocity; clock_velocity; gate_delay_ps; metal_layers })
  |+ (f64, fun t -> t.Tech.grid)
  |+ (f64, fun t -> t.Tech.s_min)
  |+ (f64, fun t -> t.Tech.w_max)
  |+ (f64, fun t -> t.Tech.row_gap)
  |+ (f64, fun t -> t.Tech.clock_freq_ghz)
  |+ (int, fun t -> t.Tech.phases)
  |+ (f64, fun t -> t.Tech.signal_velocity)
  |+ (f64, fun t -> t.Tech.clock_velocity)
  |+ (f64, fun t -> t.Tech.gate_delay_ps)
  |+ (int, fun t -> t.Tech.metal_layers)
  |> close

let cell =
  record (fun cell_name width height jj_count in_pins out_pins ->
      { Cell.cell_name; width; height; jj_count; in_pins; out_pins })
  |+ (string, fun c -> c.Cell.cell_name)
  |+ (f64, fun c -> c.Cell.width)
  |+ (f64, fun c -> c.Cell.height)
  |+ (int, fun c -> c.Cell.jj_count)
  |+ (array f64, fun c -> c.Cell.in_pins)
  |+ (array f64, fun c -> c.Cell.out_pins)
  |> close

(* ---- placement problem ---- *)

let problem_cell =
  record (fun node kind lib row x -> { Problem.node; kind; lib; row; x })
  |+ (int, fun (c : Problem.cell) -> c.Problem.node)
  |+ (gate_kind, fun c -> c.Problem.kind)
  |+ (cell, fun c -> c.Problem.lib)
  |+ (int, fun c -> c.Problem.row)
  |+ (f64, fun c -> c.Problem.x)
  |> close

let problem_net =
  record (fun src dst src_pin dst_pin ->
      { Problem.src; dst; src_pin; dst_pin })
  |+ (int, fun (n : Problem.net) -> n.Problem.src)
  |+ (int, fun n -> n.Problem.dst)
  |+ (int, fun n -> n.Problem.src_pin)
  |+ (int, fun n -> n.Problem.dst_pin)
  |> close

let problem_body =
  record (fun tech cells nets n_rows row_cells row_gaps row_height ->
      { Problem.tech; cells; nets; n_rows; row_cells; row_gaps; row_height })
  |+ (tech_body, fun p -> p.Problem.tech)
  |+ (array problem_cell, fun p -> p.Problem.cells)
  |+ (array problem_net, fun p -> p.Problem.nets)
  |+ (int, fun p -> p.Problem.n_rows)
  |+ (array (array int), fun p -> p.Problem.row_cells)
  |+ (array f64, fun p -> p.Problem.row_gaps)
  |+ (f64, fun p -> p.Problem.row_height)
  |> close

(* ---- placement report ---- *)

let placement_body =
  record
    (fun algorithm hpwl buffer_lines timing_cost runtime_s moves ->
      { Placer.algorithm; hpwl; buffer_lines; timing_cost; runtime_s; moves })
  |+ ( enum "placer"
         Placer.[ const 0 Superflow; const 1 Gordian; const 2 Taas ],
       fun (p : Placer.result) -> p.Placer.algorithm )
  |+ (f64, fun p -> p.Placer.hpwl)
  |+ (int, fun p -> p.Placer.buffer_lines)
  |+ (f64, fun p -> p.Placer.timing_cost)
  |+ (f64, fun p -> p.Placer.runtime_s)
  |+ (int, fun p -> p.Placer.moves)
  |> close

(* ---- routing ---- *)

let route =
  record (fun net points vias length -> { Router.net; points; vias; length })
  |+ (int, fun (rt : Router.route) -> rt.Router.net)
  |+ (list (pair f64 f64), fun rt -> rt.Router.points)
  |+ (int, fun rt -> rt.Router.vias)
  |+ (f64, fun rt -> rt.Router.length)
  |> close

let routing_body =
  record
    (fun routes expansions node_expansions neg_rounds neg_rerouted
         wirelength total_vias runtime_s ->
      { Router.routes; expansions; node_expansions; neg_rounds;
        neg_rerouted; wirelength; total_vias; runtime_s })
  |+ (array route, fun (res : Router.result) -> res.Router.routes)
  |+ (int, fun res -> res.Router.expansions)
  |+ (int, fun res -> res.Router.node_expansions)
  |+ (int, fun res -> res.Router.neg_rounds)
  |+ (int, fun res -> res.Router.neg_rerouted)
  |+ (f64, fun res -> res.Router.wirelength)
  |+ (int, fun res -> res.Router.total_vias)
  |+ (f64, fun res -> res.Router.runtime_s)
  |> close

(* ---- layout ---- *)

let point =
  map (fun (x, y) -> { Geom.x; y }) (fun p -> Geom.(p.x, p.y)) (pair f64 f64)

let wire =
  record (fun net layer a b -> { Layout.net; layer; a; b })
  |+ (int, fun (w : Layout.wire) -> w.Layout.net)
  |+ (int, fun w -> w.Layout.layer)
  |+ (point, fun w -> w.Layout.a)
  |+ (point, fun w -> w.Layout.b)
  |> close

let placed_cell =
  record (fun lib node name origin -> { Layout.lib; node; name; origin })
  |+ (cell, fun (c : Layout.placed_cell) -> c.Layout.lib)
  |+ (int, fun c -> c.Layout.node)
  |+ (option string, fun c -> c.Layout.name)
  |+ (point, fun c -> c.Layout.origin)
  |> close

let via =
  record (fun net at -> { Layout.net; at })
  |+ (int, fun (v : Layout.via) -> v.Layout.net)
  |+ (point, fun v -> v.Layout.at)
  |> close

let die =
  record (fun lx ly hx hy -> { Geom.lx; ly; hx; hy })
  |+ (f64, fun d -> d.Geom.lx)
  |+ (f64, fun d -> d.Geom.ly)
  |+ (f64, fun d -> d.Geom.hx)
  |+ (f64, fun d -> d.Geom.hy)
  |> close

let layout_body =
  record (fun tech cells wires vias bias die ->
      { Layout.tech; cells; wires; vias; bias; die })
  |+ (tech_body, fun (l : Layout.t) -> l.Layout.tech)
  |+ (array placed_cell, fun l -> l.Layout.cells)
  |+ (array wire, fun l -> l.Layout.wires)
  |+ (array via, fun l -> l.Layout.vias)
  |+ (array wire, fun l -> l.Layout.bias)
  |+ (die, fun l -> l.Layout.die)
  |> close

(* ---- timing and energy ---- *)

let net_timing =
  record (fun net slack_ps flight_ps skew_ps ->
      { Sta.net; slack_ps; flight_ps; skew_ps })
  |+ (int, fun (nt : Sta.net_timing) -> nt.Sta.net)
  |+ (f64, fun nt -> nt.Sta.slack_ps)
  |+ (f64, fun nt -> nt.Sta.flight_ps)
  |+ (f64, fun nt -> nt.Sta.skew_ps)
  |> close

let sta_body =
  record (fun wns_ps tns_ps violations worst ->
      { Sta.wns_ps; tns_ps; violations; worst })
  |+ (f64, fun (s : Sta.report) -> s.Sta.wns_ps)
  |+ (f64, fun s -> s.Sta.tns_ps)
  |+ (int, fun s -> s.Sta.violations)
  |+ (list net_timing, fun s -> s.Sta.worst)
  |> close

let energy_body =
  record
    (fun jj_count gate_count energy_per_cycle_j power_w
         cmos_energy_per_cycle_j efficiency_gain ->
      { Energy.jj_count; gate_count; energy_per_cycle_j; power_w;
        cmos_energy_per_cycle_j; efficiency_gain })
  |+ (int, fun (e : Energy.report) -> e.Energy.jj_count)
  |+ (int, fun e -> e.Energy.gate_count)
  |+ (f64, fun e -> e.Energy.energy_per_cycle_j)
  |+ (f64, fun e -> e.Energy.power_w)
  |+ (f64, fun e -> e.Energy.cmos_energy_per_cycle_j)
  |+ (f64, fun e -> e.Energy.efficiency_gain)
  |> close

(* ---- diagnostics (embedded in reports) ---- *)

let loc =
  enum "location"
    Diag.
      [
        case 0 int (fun i -> Node i) (function Node i -> Some i | _ -> None);
        case 1 int (fun i -> Net i) (function Net i -> Some i | _ -> None);
        case 2 int (fun i -> Row i) (function Row i -> Some i | _ -> None);
        case 3 (pair f64 f64)
          (fun (x, y) -> At (x, y))
          (function At (x, y) -> Some (x, y) | _ -> None);
        const 4 Global;
      ]

let diag =
  record (fun rule severity loc message witness ->
      { Diag.rule; severity; loc; message; witness })
  |+ (string, fun (d : Diag.t) -> d.Diag.rule)
  |+ ( enum "severity" Diag.[ const 0 Error; const 1 Warning; const 2 Info ],
       fun d -> d.Diag.severity )
  |+ (loc, fun d -> d.Diag.loc)
  |+ (string, fun d -> d.Diag.message)
  |+ (list string, fun d -> d.Diag.witness)
  |> close

(* ---- synthesis report ---- *)

let opt_stats =
  record (fun nodes_before nodes_after iterations ->
      { Opt.nodes_before; nodes_after; iterations })
  |+ (int, fun (s : Opt.stats) -> s.Opt.nodes_before)
  |+ (int, fun s -> s.Opt.nodes_after)
  |+ (int, fun s -> s.Opt.iterations)
  |> close

let maj_stats =
  record (fun aoi_gates maj_gates jj_before jj_after ->
      { Aoi_to_maj.aoi_gates; maj_gates; jj_before; jj_after })
  |+ (int, fun (s : Aoi_to_maj.stats) -> s.Aoi_to_maj.aoi_gates)
  |+ (int, fun s -> s.Aoi_to_maj.maj_gates)
  |+ (int, fun s -> s.Aoi_to_maj.jj_before)
  |+ (int, fun s -> s.Aoi_to_maj.jj_after)
  |> close

let ins_stats =
  record (fun splitters buffers delay jj nets ->
      { Insertion.splitters; buffers; delay; jj; nets })
  |+ (int, fun (s : Insertion.stats) -> s.Insertion.splitters)
  |+ (int, fun s -> s.Insertion.buffers)
  |+ (int, fun s -> s.Insertion.delay)
  |+ (int, fun s -> s.Insertion.jj)
  |+ (int, fun s -> s.Insertion.nets)
  |> close

let synth_body =
  record (fun jjs nets delay opt_stats maj_stats ins_stats guard_diags ->
      { Synth_flow.jjs; nets; delay; opt_stats; maj_stats; ins_stats;
        guard_diags })
  |+ (int, fun (s : Synth_flow.report) -> s.Synth_flow.jjs)
  |+ (int, fun s -> s.Synth_flow.nets)
  |+ (int, fun s -> s.Synth_flow.delay)
  |+ (opt_stats, fun s -> s.Synth_flow.opt_stats)
  |+ (maj_stats, fun s -> s.Synth_flow.maj_stats)
  |+ (ins_stats, fun s -> s.Synth_flow.ins_stats)
  |+ (list diag, fun s -> s.Synth_flow.guard_diags)
  |> close

(* ---- resynthesis report ---- *)

let pass_stat =
  record (fun pass iterations tried accepted ->
      { Resyn.pass; iterations; tried; accepted })
  |+ (string, fun (p : Resyn.pass_stat) -> p.Resyn.pass)
  |+ (int, fun p -> p.Resyn.iterations)
  |+ (int, fun p -> p.Resyn.tried)
  |+ (int, fun p -> p.Resyn.accepted)
  |> close

let cec_stats =
  record (fun windows proved cached memoized failed ->
      { Resyn.windows; proved; cached; memoized; failed })
  |+ (int, fun (c : Resyn.cec_stats) -> c.Resyn.windows)
  |+ (int, fun c -> c.Resyn.proved)
  |+ (int, fun c -> c.Resyn.cached)
  |+ (int, fun c -> c.Resyn.memoized)
  |+ (int, fun c -> c.Resyn.failed)
  |> close

let resyn_body =
  record
    (fun effort rounds maj_before maj_after jj_before jj_after depth_before
         depth_after buffers_before buffers_after splitters_before
         splitters_after passes cec diags ->
      { Resyn.effort; rounds; maj_before; maj_after; jj_before; jj_after;
        depth_before; depth_after; buffers_before; buffers_after;
        splitters_before; splitters_after; passes; cec; diags })
  |+ ( enum "resyn effort" Resyn.[ const 0 Off; const 1 Fast; const 2 Full ],
       fun (s : Resyn.report) -> s.Resyn.effort )
  |+ (int, fun s -> s.Resyn.rounds)
  |+ (int, fun s -> s.Resyn.maj_before)
  |+ (int, fun s -> s.Resyn.maj_after)
  |+ (int, fun s -> s.Resyn.jj_before)
  |+ (int, fun s -> s.Resyn.jj_after)
  |+ (int, fun s -> s.Resyn.depth_before)
  |+ (int, fun s -> s.Resyn.depth_after)
  |+ (int, fun s -> s.Resyn.buffers_before)
  |+ (int, fun s -> s.Resyn.buffers_after)
  |+ (int, fun s -> s.Resyn.splitters_before)
  |+ (int, fun s -> s.Resyn.splitters_after)
  |+ (list pass_stat, fun s -> s.Resyn.passes)
  |+ (cec_stats, fun s -> s.Resyn.cec)
  |+ (list diag, fun s -> s.Resyn.diags)
  |> close

(* ---- checker report ---- *)

let pass_timing =
  record (fun pass_name n_diags seconds ->
      { Check.pass_name; n_diags; seconds })
  |+ (string, fun (s : Check.pass_stat) -> s.Check.pass_name)
  |+ (int, fun s -> s.Check.n_diags)
  |+ (f64, fun s -> s.Check.seconds)
  |> close

let check_body =
  record (fun header diags stats -> { Check.header; diags; stats })
  |+ (list (pair string string), fun (rep : Check.report) -> rep.Check.header)
  |+ (list diag, fun rep -> rep.Check.diags)
  |+ (list pass_timing, fun rep -> rep.Check.stats)
  |> close

(* ---- the artifact kinds ---- *)

let netlist = make ~kind:"netlist" ~version:1 netlist_body
let tech = make ~kind:"tech" ~version:1 tech_body
let problem = make ~kind:"problem" ~version:1 problem_body
let placement = make ~kind:"placement" ~version:1 placement_body
let routing = make ~kind:"routing" ~version:2 routing_body
let layout = make ~kind:"layout" ~version:1 layout_body
let sta = make ~kind:"sta" ~version:1 sta_body
let energy = make ~kind:"energy" ~version:1 energy_body

(* v2: embedded diagnostics gained the witness field *)
let synth_report = make ~kind:"synth-report" ~version:2 synth_body
let resyn_report = make ~kind:"resyn-report" ~version:1 resyn_body

(* v2: report header (tier/engine) + diagnostic witnesses *)
let check_report = make ~kind:"check-report" ~version:2 check_body

(* v2: full witness-carrying diagnostics (the old ad-hoc
   rule/point/detail triple is gone with the string-rule checker) *)
let drc = make ~kind:"drc" ~version:2 (list diag)

(* bare diagnostic lists: the absint memo entries in the proof store *)
let diags = make ~kind:"diags" ~version:1 (list diag)
