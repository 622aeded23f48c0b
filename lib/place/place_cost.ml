type weights = { lambda_t : float; lambda_wmax : float; lambda_slack : float }

let default_weights = { lambda_t = 0.3; lambda_wmax = 5.0; lambda_slack = 20.0 }

let net_cost p w ~row_width ~dy e =
  let tech = p.Problem.tech in
  let sc = p.Problem.cells.(e.Problem.src) in
  let xs = sc.Problem.x +. sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin) in
  let dc = p.Problem.cells.(e.Problem.dst) in
  let pins = dc.Problem.lib.Cell.in_pins in
  let xd = dc.Problem.x +. pins.(e.Problem.dst_pin mod Array.length pins) in
  let len = Float.abs (xd -. xs) +. dy in
  let excess = Float.max 0.0 (len -. tech.Tech.w_max) in
  let timing =
    Clocking.timing_cost tech ~row_width ~phase:sc.Problem.row ~x_start:xs
      ~x_end:xd ~alpha:2.0
  in
  let violation =
    if w.lambda_slack = 0.0 then 0.0
    else begin
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
        -. (len /. tech.Tech.signal_velocity)
        -. (Float.max 0.0 base /. tech.Tech.clock_velocity)
      in
      Float.max 0.0 (-.slack)
    end
  in
  len
  +. (w.lambda_t *. timing /. Float.max 1.0 row_width)
  +. (w.lambda_wmax *. excess)
  +. (w.lambda_slack *. violation)

let total p w =
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let dys = Problem.net_dys p in
  let acc = ref 0.0 in
  Array.iteri
    (fun ni e -> acc := !acc +. net_cost p w ~row_width ~dy:dys.(ni) e)
    p.Problem.nets;
  !acc
