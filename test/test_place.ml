(* Tests for the placement stack: problem construction, the WA model
   and its gradients, global placement, legalization, detailed
   placement, the baselines, and buffer-line insertion. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_problem () =
  let aoi = Circuits.kogge_stone_adder 4 in
  let aqfp = Synth_flow.run_quiet aoi in
  Problem.of_netlist Tech.default aqfp

let medium_problem () =
  let aoi = Circuits.benchmark "apc32" in
  let aqfp = Synth_flow.run_quiet aoi in
  Problem.of_netlist Tech.default aqfp

(* the objective detailed placement and the row DP minimise *)
let place_cost p ~lambda_t ~lambda_wmax ~lambda_slack =
  Place_cost.total p { Place_cost.lambda_t; lambda_wmax; lambda_slack }

(* ---------- Problem ---------- *)

let test_problem_structure () =
  let p = small_problem () in
  checkb "has cells" true (Array.length p.Problem.cells > 0);
  checkb "has nets" true (Array.length p.Problem.nets > 0);
  (* every net spans exactly one row *)
  Array.iter
    (fun e ->
      let sr = p.Problem.cells.(e.Problem.src).Problem.row in
      let dr = p.Problem.cells.(e.Problem.dst).Problem.row in
      checki "adjacent rows" (sr + 1) dr)
    p.Problem.nets;
  (* initial placement is legal *)
  (match Problem.check_legal p with Ok () -> () | Error e -> Alcotest.fail e)

let test_problem_rejects_unbalanced () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Not [| a |] in
  let y = Netlist.add nl Netlist.And [| x; a |] in
  ignore (Netlist.add nl Netlist.Output [| y |]);
  ignore (Netlist.levelize nl);
  checkb "raises" true
    (try
       ignore (Problem.of_netlist Tech.default nl);
       false
     with Invalid_argument _ -> true)

let test_hpwl_positive_and_consistent () =
  let p = small_problem () in
  let h = Problem.hpwl p in
  checkb "non-negative" true (h >= 0.0);
  (* moving one cell by +10 changes HPWL by at most 10 * (number of its nets) *)
  let c = p.Problem.cells.(0) in
  let nets_of_c =
    Array.to_list p.Problem.nets
    |> List.filter (fun e -> e.Problem.src = 0 || e.Problem.dst = 0)
    |> List.length
  in
  c.Problem.x <- c.Problem.x +. 10.0;
  let h' = Problem.hpwl p in
  checkb "bounded change" true
    (Float.abs (h' -. h) <= (10.0 *. float_of_int nets_of_c) +. 1e-6)

let test_buffer_lines_counting () =
  let p = small_problem () in
  (* stretch one net beyond w_max: put its driver far right *)
  let e = p.Problem.nets.(0) in
  let src = p.Problem.cells.(e.Problem.src) in
  src.Problem.x <- 10_000.0;
  checkb "buffer lines appear" true (Problem.buffer_lines p > 0)

let test_check_legal_detects () =
  let p = small_problem () in
  (* create an overlap in row of cell 0 *)
  let c0 = p.Problem.cells.(p.Problem.row_cells.(2).(0)) in
  let c1 = p.Problem.cells.(p.Problem.row_cells.(2).(1)) in
  c1.Problem.x <- c0.Problem.x +. 10.0;
  (match Problem.check_legal p with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error _ -> ());
  (* fix overlap but violate spacing *)
  c1.Problem.x <- c0.Problem.x +. c0.Problem.lib.Cell.width +. 5.0;
  (match Problem.check_legal p with
  | Ok () -> Alcotest.fail "spacing not detected"
  | Error _ -> ())

(* [Global.sweep_cost] picks the best sweep by [Problem.timing_cost],
   so its float grouping is part of the placement's bits: nets summed
   in blocks of 2048, block totals added left to right. c499's placed
   problem has 2,779 nets, so its sum spans two blocks; the golden
   designs fit in one. On grid positions each per-net cost is an
   exactly representable square and every grouping sums exactly, so
   the cells move to random off-grid positions first. *)
let test_timing_cost_grouping () =
  let p =
    match Flow.run_staged ~to_stage:Flow.Place (Circuits.benchmark "c499") with
    | Ok { Flow.placed = Some (_, p, _, _); _ } -> p
    | _ -> Alcotest.fail "c499 did not place"
  in
  let n = Array.length p.Problem.nets in
  checki "c499 placed nets" 2779 n;
  let die = Problem.row_width p in
  let cost w (e : Problem.net) =
    let sc = p.Problem.cells.(e.Problem.src) and dc = p.Problem.cells.(e.Problem.dst) in
    let pins = dc.Problem.lib.Cell.in_pins in
    Clocking.timing_cost ~row_width:w ~phase:sc.Problem.row
      ~x_start:(sc.Problem.x +. sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin))
      ~x_end:(dc.Problem.x +. pins.(e.Problem.dst_pin mod Array.length pins))
      ~alpha:2.0
  in
  (* a single running sum can round to the same bits by chance, so
     several layouts are compared *)
  for seed = 1 to 4 do
    let rng = Random.State.make [| seed |] in
    Array.iter (fun c -> c.Problem.x <- Random.State.float rng die) p.Problem.cells;
    let costs = Array.map (cost (Problem.row_width p)) p.Problem.nets in
    let block b = Array.sub costs (b * 2048) (min 2048 (n - (b * 2048))) in
    let reference =
      List.init ((n + 2047) / 2048) (fun b -> Array.fold_left ( +. ) 0.0 (block b))
      |> List.fold_left ( +. ) 0.0
    in
    Alcotest.(check int64)
      (Printf.sprintf "timing_cost bits, layout %d" seed)
      (Int64.bits_of_float reference)
      (Int64.bits_of_float (Problem.timing_cost p ()))
  done

(* ---------- WA model ---------- *)

let test_wa_upper_bounds_hpwl () =
  let p = medium_problem () in
  let xs = Problem.copy_positions p in
  let hpwl = Problem.hpwl p in
  let wa2 = Wa_model.wa_wirelength p ~gamma:2.0 xs in
  let wa20 = Wa_model.wa_wirelength p ~gamma:20.0 xs in
  (* WA underestimates |dx| but approaches it as gamma shrinks *)
  checkb "wa2 close to hpwl" true (Float.abs (wa2 -. hpwl) /. Float.max 1.0 hpwl < 0.2);
  checkb "smaller gamma tighter" true
    (Float.abs (wa2 -. hpwl) <= Float.abs (wa20 -. hpwl) +. 1e-6)

let test_gradient_matches_finite_difference () =
  let p = small_problem () in
  let w = Wa_model.default_weights Tech.default in
  let w = { w with Wa_model.lambda_t = 0.01; lambda_w = 0.5; lambda_d = 0.1 } in
  let xs = Problem.copy_positions p in
  let _, grad = Wa_model.cost_and_grad p w xs in
  let rng = Rng.create 11 in
  for _ = 1 to 12 do
    let i = Rng.int rng (Array.length xs) in
    let h = 1e-3 in
    let save = xs.(i) in
    xs.(i) <- save +. h;
    let cp, _ = Wa_model.cost_and_grad p w xs in
    xs.(i) <- save -. h;
    let cm, _ = Wa_model.cost_and_grad p w xs in
    xs.(i) <- save;
    let fd = (cp -. cm) /. (2.0 *. h) in
    let ok =
      Float.abs (fd -. grad.(i)) <= 1e-3 +. (0.05 *. Float.max (Float.abs fd) (Float.abs grad.(i)))
    in
    checkb (Printf.sprintf "grad[%d] fd=%.4f got=%.4f" i fd grad.(i)) true ok
  done

let test_net_dys_tracks_row_gaps () =
  let p = medium_problem () in
  let per_net () = Array.map (Problem.net_dy p) p.Problem.nets in
  let same what = Alcotest.(check (array (float 0.0))) what (per_net ()) (Problem.net_dys p) in
  same "initial gaps";
  let before = Problem.net_dys p in
  p.Problem.row_gaps.(2) <- p.Problem.row_gaps.(2) +. 37.0;
  same "after a gap grows";
  checkb "a fresh call sees the new gap" true (before <> Problem.net_dys p)

(* The density term's row orders carried between calls: repairing any
   earlier order gives the cost and gradient of sorting every row from
   scratch, bit for bit, also where cells tie. *)
let test_density_order_repair () =
  let p = medium_problem () in
  let w = Wa_model.default_weights Tech.default in
  let rng = Rng.create 5 in
  let bits (c, g) = (Int64.bits_of_float c, Array.map Int64.bits_of_float g) in
  let same what orders xs =
    checkb what true
      (bits (Wa_model.cost_and_grad ~orders p w xs) = bits (Wa_model.cost_and_grad p w xs))
  in
  let scrambled () =
    Array.map
      (fun row ->
        let o = Array.copy row in
        Rng.shuffle rng o;
        o)
      p.Problem.row_cells
  in
  (* overlapping rows, distinct positions *)
  let xs = Array.map (fun _ -> Rng.float rng 300.0) p.Problem.cells in
  let orders = scrambled () in
  same "from a scrambled order" orders xs;
  (* an Adam-sized step from the order the last call left *)
  let moved = Array.map (fun x -> x +. Rng.float rng 20.0 -. 10.0) xs in
  same "from the previous order" orders moved;
  (* ties: every third cell clipped to x = 0, as Adam clips *)
  let clipped = Array.mapi (fun i x -> if i mod 3 = 0 then 0.0 else x) moved in
  same "ties, from the previous order" orders clipped;
  same "ties, from a scrambled order" (scrambled ()) clipped;
  same "ties, from the original order" (Array.map Array.copy p.Problem.row_cells) clipped

(* ---------- Legalize ---------- *)

let scramble p seed =
  let rng = Rng.create seed in
  Array.iter
    (fun c -> c.Problem.x <- Rng.float rng 2000.0)
    p.Problem.cells

let test_legalize_produces_legal () =
  let p = medium_problem () in
  scramble p 3;
  Legalize.run p;
  match Problem.check_legal p with Ok () -> () | Error e -> Alcotest.fail e

let test_legalize_preserves_order () =
  let p = small_problem () in
  scramble p 4;
  (* record pre-legalization order *)
  let order_of r =
    let o = Array.copy p.Problem.row_cells.(r) in
    Array.sort (fun a b -> compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x) o;
    o
  in
  let before = Array.init p.Problem.n_rows order_of in
  Legalize.run p;
  let after = Array.init p.Problem.n_rows order_of in
  for r = 0 to p.Problem.n_rows - 1 do
    checkb "order kept" true (before.(r) = after.(r))
  done

let prop_legalize_always_legal =
  QCheck.Test.make ~name:"legalization always yields a legal placement" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = small_problem () in
      scramble p seed;
      Legalize.run p;
      match Problem.check_legal p with Ok () -> true | Error _ -> false)

(* ---------- Detailed ---------- *)

let test_detailed_improves_and_stays_legal () =
  let p = medium_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  let opts = Detailed.default_options in
  let before =
    place_cost p ~lambda_t:opts.Detailed.lambda_t
      ~lambda_wmax:opts.Detailed.lambda_wmax ~lambda_slack:opts.Detailed.lambda_slack
  in
  let moves = Detailed.run p in
  let after =
    place_cost p ~lambda_t:opts.Detailed.lambda_t
      ~lambda_wmax:opts.Detailed.lambda_wmax ~lambda_slack:opts.Detailed.lambda_slack
  in
  checkb "made moves" true (moves > 0);
  checkb "cost not increased" true (after <= before +. 1e-6);
  (match Problem.check_legal p with Ok () -> () | Error e -> Alcotest.fail e)

let test_detailed_mixed_beats_matched () =
  (* the Fig. 4 claim: allowing mixed-size candidates reaches equal or
     better cost than size-matched-only swapping *)
  let run mixed =
    let p = medium_problem () in
    Quadratic.solve p ~net_weight:(fun _ -> 1.0);
    Legalize.run p;
    ignore
      (Detailed.run ~options:{ Detailed.default_options with mixed_size = mixed } p);
    place_cost p ~lambda_t:0.3 ~lambda_wmax:5.0 ~lambda_slack:20.0
  in
  checkb "mixed <= matched" true (run true <= run false +. 1e-6)

(* ---------- Row_dp ---------- *)

let test_row_dp_never_worsens () =
  let p = medium_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  let opts = Row_dp.default_options in
  let cost () =
    place_cost p ~lambda_t:opts.Row_dp.lambda_t
      ~lambda_wmax:opts.Row_dp.lambda_wmax ~lambda_slack:opts.Row_dp.lambda_slack
  in
  let before = cost () in
  let improved = Row_dp.run p in
  let after = cost () in
  checkb "rows improved" true (improved > 0);
  checkb "cost not increased" true (after <= before +. 1e-6);
  (match Problem.check_legal p with Ok () -> () | Error e -> Alcotest.fail e)

let test_row_dp_single_row_optimal_vs_shifts () =
  (* the DP is exact for a fixed order, so repeated shift moves cannot
     beat it on the same row *)
  let p = medium_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  ignore (Row_dp.run p);
  let opts = Row_dp.default_options in
  let cost () =
    place_cost p ~lambda_t:opts.Row_dp.lambda_t
      ~lambda_wmax:opts.Row_dp.lambda_wmax ~lambda_slack:opts.Row_dp.lambda_slack
  in
  let after_dp = cost () in
  (* shift-only detailed pass (window 0 disables swaps) *)
  let shift_opts =
    {
      Detailed.default_options with
      Detailed.window = 0;
      lambda_t = opts.Row_dp.lambda_t;
      lambda_wmax = opts.Row_dp.lambda_wmax;
      lambda_slack = opts.Row_dp.lambda_slack;
    }
  in
  ignore (Detailed.run ~options:shift_opts p);
  let after_shifts = cost () in
  checkb "shifts cannot find big gains after DP" true
    (after_shifts >= after_dp -. (0.01 *. after_dp))

let test_row_dp_converges () =
  (* repeated sweeps reach a fixpoint: each per-row solve is exact, so
     once no row improves, running again changes nothing *)
  let p = small_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  let rec settle k =
    if k = 0 then Alcotest.fail "row DP did not converge in 12 sweeps"
    else if Row_dp.run ~options:{ Row_dp.default_options with Row_dp.passes = 1 } p > 0
    then settle (k - 1)
  in
  settle 12;
  checki "fixpoint" 0
    (Row_dp.run ~options:{ Row_dp.default_options with Row_dp.passes = 1 } p)

let test_row_dp_run_matches_plain_sweeps () =
  (* [run] skips rows whose last solve found nothing and whose inputs
     have not changed since; a plain loop over the public per-row
     solve, in the same alternating order, must land on the same
     positions with the same improvement count *)
  let p = medium_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  ignore (Detailed.run p);
  let start = Problem.copy_positions p in
  let plain options =
    let improved = ref 0 in
    let solve r = if Row_dp.optimize_row ~options p r then incr improved in
    for pass = 1 to options.Row_dp.passes do
      if pass mod 2 = 1 then
        for r = 0 to p.Problem.n_rows - 1 do
          solve r
        done
      else
        for r = p.Problem.n_rows - 1 downto 0 do
          solve r
        done
    done;
    !improved
  in
  List.iter
    (fun (what, options) ->
      Problem.restore_positions p start;
      let n_run = Row_dp.run ~options p in
      let after_run = Problem.copy_positions p in
      Problem.restore_positions p start;
      let n_plain = plain options in
      checki (what ^ ": improvement count") n_plain n_run;
      checkb (what ^ ": rows improved") true (n_run > 0);
      checkb (what ^ ": positions") true (after_run = Problem.copy_positions p))
    [
      ("default", Row_dp.default_options);
      ( "slack polish",
        { Row_dp.default_options with Row_dp.lambda_slack = 120.0; lambda_wmax = 20.0 } );
    ]

(* The full-width row DP as it stood before the banded kernel: every
   cell over every grid position, costed net by net with [Float.max]
   and [**]. Kept as the oracle for [Row_dp.solve_row]. *)
module Reference_dp = struct
  type net_view = {
    own_offset : float;
    partner : float;
    moving_is_src : bool;
    phase : int;
    dy : float;
  }

  let net_views p nets_of ci =
    let c = p.Problem.cells.(ci) in
    List.map
      (fun ni ->
        let e = p.Problem.nets.(ni) in
        let moving_is_src = e.Problem.src = ci in
        let own_offset =
          if moving_is_src then c.Problem.lib.Cell.out_pins.(e.Problem.src_pin)
          else
            let pins = c.Problem.lib.Cell.in_pins in
            pins.(e.Problem.dst_pin mod Array.length pins)
        in
        let partner =
          if moving_is_src then Problem.pin_x p ni `Dst else Problem.pin_x p ni `Src
        in
        {
          own_offset;
          partner;
          moving_is_src;
          phase = p.Problem.cells.(e.Problem.src).Problem.row;
          dy = Problem.net_dy p e;
        })
      nets_of.(ci)

  let pins v x =
    let pin = x +. v.own_offset in
    if v.moving_is_src then (pin, v.partner) else (v.partner, pin)

  (* Eq. (2)'s base, written out independently of [Clocking] *)
  let skew_base ~row_width ~phase xs xd =
    match ((phase mod 4) + 4) mod 4 with
    | 0 -> xd -. xs
    | 1 -> xd +. xs
    | 2 -> -.xd +. xs
    | 3 -> (2.0 *. row_width) -. xd -. xs
    | _ -> assert false

  let net_cost tech (opts : Row_dp.options) ~row_width v x =
    let xs, xd = pins v x in
    let len = Float.abs (xd -. xs) +. v.dy in
    let base = skew_base ~row_width ~phase:v.phase xs xd in
    let timing = Float.max 0.0 base ** 2.0 in
    let excess = Float.max 0.0 (len -. tech.Tech.w_max) in
    let violation =
      if opts.Row_dp.lambda_slack = 0.0 then 0.0
      else
        let slack =
          Tech.phase_window_ps tech -. tech.Tech.gate_delay_ps
          -. (len /. tech.Tech.signal_velocity)
          -. (Float.max 0.0 base /. tech.Tech.clock_velocity)
        in
        Float.max 0.0 (-.slack)
    in
    len
    +. (opts.Row_dp.lambda_t *. timing /. Float.max 1.0 row_width)
    +. (opts.Row_dp.lambda_wmax *. excess)
    +. (opts.Row_dp.lambda_slack *. violation)

  (* the optimum cost and grid positions, [None] when nothing fits *)
  let solve_row (options : Row_dp.options) p r =
    let nets_of = Problem.cell_nets p in
    let tech = p.Problem.tech in
    let grid = tech.Tech.grid in
    let order = Array.copy p.Problem.row_cells.(r) in
    Array.sort
      (fun a b -> Float.compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x)
      order;
    let n = Array.length order in
    if n = 0 then None
    else begin
      let row_width = Float.max 1.0 (Problem.row_width p) in
      let positions = int_of_float ((row_width +. options.Row_dp.margin) /. grid) + 1 in
      let smin_g = int_of_float (tech.Tech.s_min /. grid +. 0.5) in
      let views = Array.map (fun ci -> Array.of_list (net_views p nets_of ci)) order in
      let cost i x_g =
        let x = float_of_int x_g *. grid in
        Array.fold_left
          (fun acc v -> acc +. net_cost tech options ~row_width v x)
          0.0 views.(i)
      in
      let prev = Array.make positions infinity in
      let parent = Array.make_matrix n positions (-1) in
      for x = 0 to positions - 1 do
        prev.(x) <- cost 0 x
      done;
      let prefix_min = Array.make positions 0 in
      for i = 1 to n - 1 do
        let w_prev_g =
          int_of_float (p.Problem.cells.(order.(i - 1)).Problem.lib.Cell.width /. grid +. 0.5)
        in
        let best_so_far = ref 0 in
        for x = 0 to positions - 1 do
          if prev.(x) < prev.(!best_so_far) then best_so_far := x;
          prefix_min.(x) <- !best_so_far
        done;
        let cur = Array.make positions infinity in
        for x = 0 to positions - 1 do
          let xa = x - w_prev_g in
          let xg = x - w_prev_g - smin_g in
          let via_abut = if xa >= 0 then prev.(xa) else infinity in
          let via_gap = if xg >= 0 then prev.(prefix_min.(xg)) else infinity in
          if via_abut < infinity || via_gap < infinity then begin
            if via_abut <= via_gap then begin
              cur.(x) <- cost i x +. via_abut;
              parent.(i).(x) <- xa
            end
            else begin
              cur.(x) <- cost i x +. via_gap;
              parent.(i).(x) <- prefix_min.(xg)
            end
          end
        done;
        Array.blit cur 0 prev 0 positions
      done;
      let best_end = ref 0 in
      for x = 1 to positions - 1 do
        if prev.(x) < prev.(!best_end) then best_end := x
      done;
      if prev.(!best_end) = infinity then None
      else begin
        let xs = Array.make n 0 in
        let pos = ref !best_end in
        for i = n - 1 downto 0 do
          xs.(i) <- !pos;
          if i > 0 then pos := parent.(i).(!pos)
        done;
        Some (prev.(!best_end), xs)
      end
    end
end

(* Random rows: every cell at a random grid position, each row in a
   random order with abutting or s_min-plus gaps, then every row solved
   by both DPs. The banded kernel must return the same positions and
   the same cost bits. A 2.5 µm grid puts pins off the integers, so the
   timing term's [**] fallback runs too. *)
let test_row_dp_banded_matches_full () =
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let bits = Option.map (fun (c, xs) -> (Int64.bits_of_float c, xs)) in
  List.iter
    (fun (what, tech) ->
      let p = Problem.of_netlist tech aqfp in
      let grid = tech.Tech.grid and s_min = tech.Tech.s_min in
      for seed = 1 to 3 do
        let rng = Random.State.make [| seed |] in
        Array.iter
          (fun row ->
            let row = Array.copy row in
            for i = Array.length row - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let t = row.(i) in
              row.(i) <- row.(j);
              row.(j) <- t
            done;
            let x = ref (float_of_int (Random.State.int rng 20) *. grid) in
            Array.iter
              (fun ci ->
                let c = p.Problem.cells.(ci) in
                c.Problem.x <- !x;
                let gap =
                  if Random.State.bool rng then 0.0
                  else Tech.snap_up tech s_min +. (float_of_int (Random.State.int rng 30) *. grid)
                in
                x := !x +. c.Problem.lib.Cell.width +. gap)
              row)
          p.Problem.row_cells;
        List.iter
          (fun options ->
            for r = 0 to p.Problem.n_rows - 1 do
              let want = bits (Reference_dp.solve_row options p r) in
              let got = bits (Row_dp.solve_row ~options p r) in
              checkb (Printf.sprintf "%s seed %d row %d" what seed r) true (want = got)
            done)
          [
            Row_dp.default_options;
            { Row_dp.default_options with Row_dp.lambda_slack = 120.0; lambda_wmax = 20.0 };
            { Row_dp.default_options with Row_dp.lambda_slack = 0.0; margin = 0.0 };
            (* plain length: integer costs, so the DP meets exact ties *)
            { Row_dp.default_options with Row_dp.lambda_t = 0.0; lambda_wmax = 0.0; lambda_slack = 0.0 };
          ]
      done)
    [ ("grid 10", Tech.default); ("grid 2.5", { Tech.default with Tech.grid = 2.5 }) ]

(* One net's cost from the kernel against the formula it replaced, on
   random doubles: [**] and [*.] disagree on some non-integers, so the
   kernel must fall back to [**] on exactly those. The formula's Eq. (2)
   base must also be [Clocking.skew_base], bit for bit, which ties the
   kernel's inlined copy to the one definition. *)
let test_kernel_matches_formula () =
  let rng = Random.State.make [| 2 |] in
  let tech = Tech.default in
  List.iter
    (fun options ->
      for _ = 1 to 20_000 do
        let f lo hi = lo +. Random.State.float rng (hi -. lo) in
        let row_width = f 1.0 5000.0 and x = f 0.0 5000.0 in
        let v =
          {
            Reference_dp.own_offset = f 0.0 40.0;
            partner = f 0.0 5000.0;
            moving_is_src = Random.State.bool rng;
            phase = Random.State.int rng 9 - 4;
            dy = f 0.0 200.0;
          }
        in
        let want = Reference_dp.net_cost tech options ~row_width v x in
        let xs, xd = Reference_dp.pins v x in
        let phase = v.Reference_dp.phase in
        let base = Reference_dp.skew_base ~row_width ~phase xs xd in
        let defined = Clocking.skew_base ~row_width ~phase ~x_start:xs ~x_end:xd in
        if Int64.bits_of_float base <> Int64.bits_of_float defined then
          Alcotest.failf "Clocking.skew_base %h, formula %h" defined base;
        let m =
          Place_cost.model tech
            {
              Place_cost.lambda_t = options.Row_dp.lambda_t;
              lambda_wmax = options.Row_dp.lambda_wmax;
              lambda_slack = options.Row_dp.lambda_slack;
            }
            ~row_width
        in
        let pin = x +. v.Reference_dp.own_offset in
        let got =
          if v.Reference_dp.moving_is_src then
            Place_cost.eval m ~phase:v.Reference_dp.phase ~dy:v.Reference_dp.dy pin
              v.Reference_dp.partner
          else
            Place_cost.eval m ~phase:v.Reference_dp.phase ~dy:v.Reference_dp.dy
              v.Reference_dp.partner pin
        in
        if Int64.bits_of_float want <> Int64.bits_of_float got then
          Alcotest.failf "cost %h, formula %h" got want
      done)
    [
      Row_dp.default_options;
      { Row_dp.default_options with Row_dp.lambda_slack = 0.0 };
    ]

(* The timing term squares with [b *. b] instead of [b ** 2.0] when b
   is an integer below 2^26, where the exact square fits a double. A
   libm whose [pow] is not exact there fails this test rather than
   moving placements. *)
let test_square_identity () =
  let same k =
    let b = float_of_int k in
    Int64.equal (Int64.bits_of_float (b ** 2.0)) (Int64.bits_of_float (b *. b))
  in
  for k = 0 to 1 lsl 20 do
    if not (same k) then Alcotest.failf "%d ** 2.0 <> %d *. %d" k k k
  done;
  let rng = Random.State.make [| 26 |] in
  for _ = 1 to 100_000 do
    let k = (1 lsl 20) + Random.State.int rng ((1 lsl 26) - (1 lsl 20)) in
    if not (same k) then Alcotest.failf "%d ** 2.0 <> %d *. %d" k k k
  done;
  checkb "largest" true (same ((1 lsl 26) - 1))

(* ---------- Place_cost ---------- *)

(* With every penalty weight at zero the cost model is plain Manhattan
   length, so [total] must equal Σ Problem.net_length; each penalty
   term is non-negative, so turning any weight on can only add. *)
let test_place_cost_terms () =
  let p = medium_problem () in
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  let zero = { Place_cost.lambda_t = 0.0; lambda_wmax = 0.0; lambda_slack = 0.0 } in
  let length = Array.fold_left (fun acc e -> acc +. Problem.net_length p e) 0.0 p.Problem.nets in
  let base = Place_cost.total p zero in
  Alcotest.(check (float 1e-6)) "zero weights = manhattan length" length base;
  List.iter
    (fun (name, w) -> checkb name true (Place_cost.total p w >= base -. 1e-9))
    [
      ("timing term non-negative", { zero with Place_cost.lambda_t = 1.0 });
      ("w_max term non-negative", { zero with Place_cost.lambda_wmax = 1.0 });
      ("slack term non-negative", { zero with Place_cost.lambda_slack = 1.0 });
      ("default weights", Place_cost.default_weights);
    ]

(* ---------- Global & baselines ---------- *)

let test_global_beats_initial () =
  let p = medium_problem () in
  let initial = Problem.hpwl p in
  Global.run p;
  checkb "legal" true (Problem.check_legal p = Ok ());
  checkb "improved" true (Problem.hpwl p < initial)

let test_all_placers_legal () =
  List.iter
    (fun alg ->
      let p = medium_problem () in
      let r = Placer.place alg p in
      checkb (Placer.algorithm_name alg ^ " legal") true (Problem.check_legal p = Ok ());
      checkb "hpwl positive" true (r.Placer.hpwl > 0.0))
    [ Placer.Gordian; Placer.Taas; Placer.Superflow ]

let test_superflow_timing_beats_gordian () =
  let aoi = Circuits.benchmark "apc32" in
  let aqfp = Synth_flow.run_quiet aoi in
  let wns alg =
    let p = Problem.of_netlist Tech.default aqfp in
    ignore (Placer.place alg p);
    (Sta.analyze p).Sta.wns_ps
  in
  checkb "superflow wns >= gordian wns" true (wns Placer.Superflow >= wns Placer.Gordian)

let test_placer_deterministic () =
  let run () =
    let p = medium_problem () in
    let r = Placer.place ~seed:5 Placer.Superflow p in
    r.Placer.hpwl
  in
  Alcotest.(check (float 1e-9)) "same result" (run ()) (run ())

(* Digests of the [%h]-printed final positions and the move counts of
   [Placer.place ~seed:1], recorded before the placer's exact
   speedups (row-local barycenter refresh, settled-row DP skip,
   per-call net dy); any change here means the placement moved. *)
let golden_placements =
  [
    ("adder8", Placer.Superflow, "0c544e3d9230b25428a7f302b951c793", 725);
    ("adder8", Placer.Taas, "261f8f7f54ed9bf28f511f7a1996a48c", 0);
    ("adder8", Placer.Gordian, "7ccdfcef81c723eb37e6e41b1163a998", 0);
    ("c432", Placer.Superflow, "79d78fd357b2091c066fe5bde1cb03ee", 1147);
    ("c432", Placer.Taas, "83f829dac44fba14dcc960748aa02f49", 0);
    ("c432", Placer.Gordian, "d0ffd1523a10607c1682e014026bab75", 0);
    ("apc32", Placer.Superflow, "e527a5d4982288d30f33245683863a8e", 628);
    ("apc32", Placer.Taas, "38ccc4423795efdf0502d6615a7fb429", 0);
    ("apc32", Placer.Gordian, "8eab492290fb492e72a7b2fca61fb830", 0);
  ]

let test_placer_golden () =
  List.iter
    (fun (name, alg, digest, moves) ->
      let p =
        Problem.of_netlist Tech.default (Synth_flow.run_quiet (Circuits.benchmark name))
      in
      let r = Placer.place alg p in
      let what = name ^ " " ^ Placer.algorithm_name alg in
      let got =
        Problem.copy_positions p |> Array.to_list
        |> List.map (Printf.sprintf "%h")
        |> String.concat "," |> Digest.string |> Digest.to_hex
      in
      Alcotest.(check string) (what ^ " positions") digest got;
      checki (what ^ " moves") moves r.Placer.moves)
    golden_placements

(* ---------- Bufferline ---------- *)

let test_bufferline_noop_when_short () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  if Problem.buffer_lines p = 0 then begin
    let _, _, lines = Bufferline.insert aqfp p in
    checki "no lines" 0 lines
  end

let test_bufferline_inserts_and_balances () =
  let aoi = Circuits.benchmark "apc32" in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Gordian p);
  let expected = Problem.buffer_lines p in
  let nl2, p2, lines = Bufferline.insert aqfp p in
  checkb "lines inserted when counting says so" true (expected = 0 || lines > 0);
  if lines > 0 then begin
    checkb "netlist grew" true (Netlist.size nl2 > Netlist.size aqfp);
    checkb "balanced" true (Netlist.is_balanced nl2);
    checkb "equivalent" true (Sim.equivalent aqfp nl2);
    checkb "legal" true (Problem.check_legal p2 = Ok ());
    (* the line count follows the placement-time estimate, and the
       re-threaded design does not need more lines than were inserted
       (a crowded buffer row can displace some hops, which is physical:
       a full line holds one buffer per crossing net) *)
    checkb "residual below inserted" true (Problem.buffer_lines p2 < lines);
    checkb "lengths under control" true
      (Problem.max_net_length p2
      <= Float.max (2.5 *. Problem.max_net_length p) (Problem.max_net_length p +. 500.0))
  end

let () =
  Alcotest.run "sf_place"
    [
      ( "problem",
        [
          Alcotest.test_case "structure" `Quick test_problem_structure;
          Alcotest.test_case "rejects unbalanced" `Quick test_problem_rejects_unbalanced;
          Alcotest.test_case "hpwl" `Quick test_hpwl_positive_and_consistent;
          Alcotest.test_case "buffer lines" `Quick test_buffer_lines_counting;
          Alcotest.test_case "check_legal" `Quick test_check_legal_detects;
          Alcotest.test_case "timing_cost grouping pinned" `Slow
            test_timing_cost_grouping;
          Alcotest.test_case "net_dys tracks row gaps" `Quick test_net_dys_tracks_row_gaps;
        ] );
      ( "wa_model",
        [
          Alcotest.test_case "wa bounds hpwl" `Quick test_wa_upper_bounds_hpwl;
          Alcotest.test_case "gradient" `Quick test_gradient_matches_finite_difference;
          Alcotest.test_case "density order repair" `Quick test_density_order_repair;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "legal" `Quick test_legalize_produces_legal;
          Alcotest.test_case "order preserved" `Quick test_legalize_preserves_order;
          QCheck_alcotest.to_alcotest prop_legalize_always_legal;
        ] );
      ( "detailed",
        [
          Alcotest.test_case "improves" `Quick test_detailed_improves_and_stays_legal;
          Alcotest.test_case "mixed beats matched" `Slow test_detailed_mixed_beats_matched;
        ] );
      ("place_costs", [ Alcotest.test_case "terms" `Quick test_place_cost_terms ]);
      ( "row_dp",
        [
          Alcotest.test_case "never worsens" `Quick test_row_dp_never_worsens;
          Alcotest.test_case "optimal vs shifts" `Slow test_row_dp_single_row_optimal_vs_shifts;
          Alcotest.test_case "converges" `Quick test_row_dp_converges;
          Alcotest.test_case "run matches plain sweeps" `Quick
            test_row_dp_run_matches_plain_sweeps;
          Alcotest.test_case "banded matches full width" `Quick
            test_row_dp_banded_matches_full;
          Alcotest.test_case "kernel matches formula bits" `Quick test_kernel_matches_formula;
          Alcotest.test_case "k ** 2.0 = k *. k below 2^26" `Quick test_square_identity;
        ] );
      ( "placers",
        [
          Alcotest.test_case "global beats initial" `Quick test_global_beats_initial;
          Alcotest.test_case "all legal" `Slow test_all_placers_legal;
          Alcotest.test_case "timing ordering" `Slow test_superflow_timing_beats_gordian;
          Alcotest.test_case "deterministic" `Slow test_placer_deterministic;
          Alcotest.test_case "golden placements" `Slow test_placer_golden;
        ] );
      ( "bufferline",
        [
          Alcotest.test_case "noop" `Quick test_bufferline_noop_when_short;
          Alcotest.test_case "insert+balance" `Slow test_bufferline_inserts_and_balances;
        ] );
    ]
