(* Adam steps, step scale (µm), relative timing-term weight after
   gradient normalization, max-wirelength weight, and the density
   weight's growth per Adam step *)
let iterations = 150
let learning_rate = 2.0
let timing_weight = 0.05
let wmax_weight = 1.0
let density_anneal = 1.02

(* Gradient-magnitude normalization (DREAMPlace-style): scale each
   secondary term so its initial gradient norm is a chosen fraction of
   the wirelength gradient norm. *)
let norm1 g = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 g

let calibrate p base_weights xs =
  let wl_only =
    { base_weights with Wa_model.lambda_t = 0.0; lambda_w = 0.0; lambda_d = 0.0 }
  in
  let _, g_wl = Wa_model.cost_and_grad p wl_only xs in
  let probe w =
    let _, g = Wa_model.cost_and_grad p w xs in
    let iso = Array.mapi (fun i x -> x -. g_wl.(i)) g in
    norm1 iso
  in
  let n_wl = Float.max 1e-9 (norm1 g_wl) in
  let n_t =
    probe { base_weights with Wa_model.lambda_t = 1.0; lambda_w = 0.0; lambda_d = 0.0 }
  in
  let n_w =
    probe { base_weights with Wa_model.lambda_t = 0.0; lambda_w = 1.0; lambda_d = 0.0 }
  in
  let n_d =
    probe { base_weights with Wa_model.lambda_t = 0.0; lambda_w = 0.0; lambda_d = 1.0 }
  in
  let safe num = if num < 1e-9 then 1.0 else n_wl /. num in
  {
    base_weights with
    Wa_model.lambda_t = timing_weight *. safe n_t;
    lambda_w = wmax_weight *. safe n_w;
    lambda_d = 0.2 *. safe n_d;
  }

(* One Adam refinement phase over continuous positions. *)
let adam_refine p ~seed =
  let n = Array.length p.Problem.cells in
  let xs = Problem.copy_positions p in
  let rng = Rng.create seed in
  Array.iteri (fun i x -> xs.(i) <- x +. Rng.float rng 1.0) xs;
  let weights = ref (calibrate p (Wa_model.default_weights p.Problem.tech) xs) in
  let m = Array.make n 0.0 and v = Array.make n 0.0 in
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  for it = 1 to iterations do
    let _, grad = Wa_model.cost_and_grad p !weights xs in
    let b1t = 1.0 -. (beta1 ** float_of_int it) in
    let b2t = 1.0 -. (beta2 ** float_of_int it) in
    for i = 0 to n - 1 do
      m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. grad.(i));
      v.(i) <- (beta2 *. v.(i)) +. ((1.0 -. beta2) *. grad.(i) *. grad.(i));
      let mh = m.(i) /. b1t and vh = v.(i) /. b2t in
      xs.(i) <- xs.(i) -. (learning_rate *. mh /. (sqrt vh +. eps));
      if xs.(i) < 0.0 then xs.(i) <- 0.0
    done;
    weights :=
      { !weights with Wa_model.lambda_d = !weights.Wa_model.lambda_d *. density_anneal }
  done;
  Problem.restore_positions p xs

(* Desired position of one cell: barycenter of its partner pins,
   optionally biased against the four-phase timing gradient. *)
let desired_one p nets_of ~timing_bias ~row_width ci =
  let c = p.Problem.cells.(ci) in
  match nets_of.(ci) with
  | [] -> c.Problem.x
  | nets ->
      let sum = ref 0.0 and count = ref 0 in
      let tgrad = ref 0.0 in
      List.iter
        (fun ni ->
          let e = p.Problem.nets.(ni) in
          let is_src = e.Problem.src = ci in
          let partner_pin =
            if is_src then Problem.pin_x p ni `Dst else Problem.pin_x p ni `Src
          in
          let own_offset =
            if is_src then c.Problem.lib.Cell.out_pins.(e.Problem.src_pin)
            else
              let pins = c.Problem.lib.Cell.in_pins in
              pins.(e.Problem.dst_pin mod Array.length pins)
          in
          sum := !sum +. (partner_pin -. own_offset);
          incr count;
          if timing_bias > 0.0 then begin
            let sc = p.Problem.cells.(e.Problem.src) in
            let xs_pin = Problem.pin_x p ni `Src and xd_pin = Problem.pin_x p ni `Dst in
            let base, dbs, dbd =
              match ((sc.Problem.row mod 4) + 4) mod 4 with
              | 0 -> (xd_pin -. xs_pin, -1.0, 1.0)
              | 1 -> (xd_pin +. xs_pin, 1.0, 1.0)
              | 2 -> (-.xd_pin +. xs_pin, 1.0, -1.0)
              | 3 -> ((2.0 *. row_width) -. xd_pin -. xs_pin, -1.0, -1.0)
              | _ -> assert false
            in
            if base > 0.0 then
              tgrad := !tgrad +. (base *. if is_src then dbs else dbd)
          end)
        nets;
      let bary = !sum /. float_of_int !count in
      (* the timing gradient has µm·µm units; dividing by net count
         and damping turns it into a bounded positional nudge *)
      let nudge = timing_bias *. !tgrad /. float_of_int !count in
      let nudge = Float.max (-50.0) (Float.min 50.0 nudge) in
      Float.max 0.0 (bary -. nudge)

let sweep_cost p ~timing_weight =
  let tc = Problem.timing_cost p () in
  let rw = Float.max 1.0 (Problem.row_width p) in
  let w_max = p.Problem.tech.Tech.w_max in
  let excess =
    Array.fold_left
      (fun acc e -> acc +. Float.max 0.0 (Problem.net_length p e -. w_max))
      0.0 p.Problem.nets
  in
  Problem.hpwl p +. (timing_weight *. tc /. rw) +. (5.0 *. excess)

(* Iterated barycenter ordering + Abacus legalization, row by row in
   alternating directions (Gauss-Seidel style — each row reads the
   already-updated neighbors, which kills the even/odd oscillation a
   simultaneous update suffers from). Every sweep ends legal; the best
   legal state encountered wins. *)
let barycenter_sweeps ?(sweeps = 40) ?(timing_bias = 0.0) ?(timing_weight = 0.0) p =
  let nets_of = Problem.cell_nets p in
  let best_cost = ref infinity in
  let best = ref (Problem.copy_positions p) in
  (* only the row being relaxed reads targets; they come from the
     positions and row width at that moment, all taken before any of
     the row's cells moves *)
  let relax_row damping r =
    let row = p.Problem.row_cells.(r) in
    let row_width = Float.max 1.0 (Problem.row_width p) in
    let desired = Array.map (desired_one p nets_of ~timing_bias ~row_width) row in
    Array.iteri
      (fun i ci ->
        let c = p.Problem.cells.(ci) in
        c.Problem.x <- (damping *. c.Problem.x) +. ((1.0 -. damping) *. desired.(i)))
      row;
    Legalize.legalize_row p r
  in
  for sweep = 1 to sweeps do
    let damping = if sweep <= 2 then 0.0 else 0.3 in
    (* relax rows in one direction; alternate directions between
       sweeps *)
    if sweep mod 2 = 1 then
      for r = 0 to p.Problem.n_rows - 1 do
        relax_row damping r
      done
    else
      for r = p.Problem.n_rows - 1 downto 0 do
        relax_row damping r
      done;
    let cost = sweep_cost p ~timing_weight in
    if cost < !best_cost then begin
      best_cost := cost;
      best := Problem.copy_positions p
    end
  done;
  Problem.restore_positions p !best

let run ?(seed = 1) p =
  if Array.length p.Problem.cells > 0 then begin
    (* 1. quadratic warm start *)
    Quadratic.solve p ~net_weight:(fun _ -> 1.0);
    (* 2. nonlinear refinement on the continuous solution (WA model,
       Eq. 2 timing, max-wirelength penalty, annealed density) *)
    adam_refine p ~seed;
    (* 3. ordering/legalization sweeps retain the analytical quality
       in a legal placement; timing bias mirrors the objective *)
    barycenter_sweeps ~sweeps:60 ~timing_bias:(timing_weight *. 2.0)
      ~timing_weight p
  end
