let gordian p =
  Quadratic.solve p ~net_weight:(fun _ -> 1.0);
  Legalize.run p;
  (* the published GORDIAN-style flow stops at legalized quadratic
     placement plus a greedy same-size cleanup; no timing objective *)
  let opts =
    {
      Detailed.lambda_t = 0.0;
      lambda_wmax = 0.0;
      lambda_slack = 0.0;
      mixed_size = false;
      window = 1;
      max_passes = 4;
    }
  in
  ignore (Detailed.run ~options:opts p)

let taas p =
  let n_nets = Array.length p.Problem.nets in
  let weights = Array.make n_nets 1.0 in
  for _round = 1 to 3 do
    Quadratic.solve p ~net_weight:(fun i -> weights.(i));
    (* reweight by the four-phase timing cost of the current solution *)
    let row_width = Float.max 1.0 (Problem.row_width p) in
    let costs =
      Array.map
        (fun e ->
          let sc = p.Problem.cells.(e.Problem.src) in
          let xs = sc.Problem.x +. sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin) in
          let dc = p.Problem.cells.(e.Problem.dst) in
          let pins = dc.Problem.lib.Cell.in_pins in
          let xd = dc.Problem.x +. pins.(e.Problem.dst_pin mod Array.length pins) in
          Clocking.timing_cost ~row_width ~phase:sc.Problem.row ~x_start:xs ~x_end:xd ~alpha:2.0)
        p.Problem.nets
    in
    let avg = Float.max 1e-9 (Stats.mean costs) in
    Array.iteri (fun i c -> weights.(i) <- 1.0 +. Float.min 4.0 (c /. avg)) costs
  done;
  (* a short timing-aware adjustment phase; candidates remain
     size-matched (the restriction SuperFlow's Fig. 4 lifts) *)
  Global.barycenter_sweeps ~sweeps:10 ~timing_bias:0.05 ~timing_weight:0.05 p;
  let opts =
    {
      Detailed.lambda_t = 0.3;
      lambda_wmax = 2.0;
      lambda_slack = 5.0;
      mixed_size = false;
      window = 2;
      max_passes = 6;
    }
  in
  ignore (Detailed.run ~options:opts p)
