type algorithm = Superflow | Gordian | Taas

let algorithm_name = function
  | Superflow -> "SuperFlow"
  | Gordian -> "GORDIAN-based"
  | Taas -> "TAAS"

type result = {
  algorithm : algorithm;
  hpwl : float;
  buffer_lines : int;
  timing_cost : float;
  runtime_s : float;
  moves : int;
}

(* One full SuperFlow placement from one seed: timing-aware global
   placement, legalization, then the swap search and the exact per-row
   DP alternated to a fixpoint, closed by a slack/W_max-focused
   polish. *)
let superflow_run_once ~seed p =
  Global.run ~seed p;
  Legalize.run p;
  let total = ref 0 in
  let rec refine round =
    let moved = Detailed.run p + Row_dp.run p in
    total := !total + moved;
    if moved > 0 && round < 3 then refine (round + 1)
  in
  refine 1;
  let slack_opts =
    { Detailed.default_options with Detailed.lambda_slack = 120.0; lambda_wmax = 20.0 }
  in
  total := !total + Detailed.run ~options:slack_opts p;
  total :=
    !total
    + Row_dp.run
        ~options:
          { Row_dp.default_options with Row_dp.lambda_slack = 120.0; lambda_wmax = 20.0 }
        p;
  !total

(* the worst per-net timing violation at the current positions, in ps *)
let worst_violation p =
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let tech = p.Problem.tech in
  Array.fold_left
    (fun acc e ->
      let sc = p.Problem.cells.(e.Problem.src) in
      let xs = sc.Problem.x +. sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin) in
      let dc = p.Problem.cells.(e.Problem.dst) in
      let pins = dc.Problem.lib.Cell.in_pins in
      let xd = dc.Problem.x +. pins.(e.Problem.dst_pin mod Array.length pins) in
      let base =
        match ((sc.Problem.row mod 4) + 4) mod 4 with
        | 0 -> xd -. xs
        | 1 -> xd +. xs
        | 2 -> -.xd +. xs
        | 3 -> (2.0 *. row_width) -. xd -. xs
        | _ -> assert false
      in
      let slack =
        Tech.phase_window_ps tech -. tech.Tech.gate_delay_ps
        -. (Problem.net_length p e /. tech.Tech.signal_velocity)
        -. (Float.max 0.0 base /. tech.Tech.clock_velocity)
      in
      Float.max acc (-.slack))
    0.0 p.Problem.nets

(* Multi-start: the pipeline is cheap relative to the paper's
   runtimes, so run it from a few seeds and keep the best placement —
   worst violation first, wirelength as the tie-breaker. *)
let superflow_pipeline ~seed p =
  let best = ref None in
  let moves = ref 0 in
  List.iter
    (fun s ->
      let m = superflow_run_once ~seed:s p in
      moves := !moves + m;
      let score = (Float.round (worst_violation p *. 10.0), Problem.hpwl p) in
      match !best with
      | Some (best_score, _) when best_score <= score -> ()
      | _ -> best := Some (score, Problem.copy_positions p))
    [ seed; seed + 37; seed + 101 ];
  (match !best with
  | Some (_, xs) -> Problem.restore_positions p xs
  | None -> ());
  !moves

let place ?(seed = 1) algorithm p =
  let t0 = Wallclock.now_s () in
  let moves =
    match algorithm with
    | Gordian ->
        Baselines.gordian p;
        0
    | Taas ->
        Baselines.taas p;
        0
    | Superflow ->
        superflow_pipeline ~seed p
  in
  (match Problem.check_legal p with
  | Ok () -> ()
  | Error msg -> failwith ("Placer: illegal result: " ^ msg));
  {
    algorithm;
    hpwl = Problem.hpwl p;
    buffer_lines = Problem.buffer_lines p;
    timing_cost = Problem.timing_cost p ();
    runtime_s = Wallclock.now_s () -. t0;
    moves;
  }

let pp_result ppf r =
  Format.fprintf ppf "%s: hpwl=%.0fum buffers=%d timing=%.0f (%.1fs, %d moves)"
    (algorithm_name r.algorithm) r.hpwl r.buffer_lines r.timing_cost r.runtime_s
    r.moves
