type weights = { lambda_t : float; lambda_wmax : float; lambda_slack : float }

let default_weights = { lambda_t = 0.3; lambda_wmax = 5.0; lambda_slack = 20.0 }

(* All-float, so ocamlopt stores it flat and field reads are unboxed. *)
type model = {
  lambda_t : float;
  lambda_wmax : float;
  lambda_slack : float;
  row_width : float;  (** Eq. (2)'s fold-back width for phase-3 nets *)
  norm : float;  (** max 1 row_width, the timing term's divisor *)
  w_max : float;
  window : float;  (** phase window minus gate delay, ps *)
  signal_velocity : float;
  clock_velocity : float;
}

let model tech (w : weights) ~row_width =
  {
    lambda_t = w.lambda_t;
    lambda_wmax = w.lambda_wmax;
    lambda_slack = w.lambda_slack;
    row_width;
    norm = Float.max 1.0 row_width;
    w_max = tech.Tech.w_max;
    window = Tech.phase_window_ps tech -. tech.Tech.gate_delay_ps;
    signal_velocity = tech.Tech.signal_velocity;
    clock_velocity = tech.Tech.clock_velocity;
  }

(* The kernel below is inlined into every loop of this module, where
   ocamlopt keeps its floats unboxed. Each float operation is the one,
   and in the order, of the formula it replaced, with two exact
   rewrites: [Float.max 0.0 v] is the comparison [pos] (the same double
   for every v but nan), and [b ** 2.0] is [b *. b] when b is an
   integer below 2^26, where both are the exact square. *)

let[@inline] pos v = if v > 0.0 then v else 0.0

let[@inline] square b =
  if b < 67108864.0 && Float.of_int (Float.to_int b) = b then b *. b
  else b ** 2.0

(* Eq. (2)'s clock-skew base of a net driven from row [phase]: the
   formula of [Clocking.skew_base], copied so that it inlines here *)
let[@inline] skew m ~phase xs xd =
  let q = phase land 3 in
  if q = 0 then xd -. xs
  else if q = 1 then xd +. xs
  else if q = 2 then -.xd +. xs
  else (2.0 *. m.row_width) -. xd -. xs

(* max(0, -slack_ps) of a net of length [len] *)
let[@inline] violation m ~len ~base =
  pos
    (-.(m.window -. (len /. m.signal_velocity) -. (pos base /. m.clock_velocity)))

let[@inline] cost m ~phase ~dy xs xd =
  let len = Float.abs (xd -. xs) +. dy in
  let base = skew m ~phase xs xd in
  let v = if m.lambda_slack = 0.0 then 0.0 else violation m ~len ~base in
  len
  +. (m.lambda_t *. square (pos base) /. m.norm)
  +. (m.lambda_wmax *. pos (len -. m.w_max))
  +. (m.lambda_slack *. v)

let eval m ~phase ~dy xs xd = cost m ~phase ~dy xs xd

let add_band m ~phase ~dy ~pin ~partner ~src ~grid ~lo ~hi
    (acc : float array) =
  if src then
    for x = lo to hi do
      let xs = (float_of_int x *. grid) +. pin in
      acc.(x - lo) <- acc.(x - lo) +. cost m ~phase ~dy xs partner
    done
  else
    for x = lo to hi do
      let xd = (float_of_int x *. grid) +. pin in
      acc.(x - lo) <- acc.(x - lo) +. cost m ~phase ~dy partner xd
    done

(* the two pin x of net [e] *)
let[@inline] src_x p (e : Problem.net) =
  let sc = p.Problem.cells.(e.Problem.src) in
  sc.Problem.x +. sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin)

let[@inline] dst_x p (e : Problem.net) =
  let dc = p.Problem.cells.(e.Problem.dst) in
  let pins = dc.Problem.lib.Cell.in_pins in
  dc.Problem.x +. pins.(e.Problem.dst_pin mod Array.length pins)

let[@inline] net_cost p m ~dy (e : Problem.net) =
  cost m
    ~phase:p.Problem.cells.(e.Problem.src).Problem.row
    ~dy (src_x p e) (dst_x p e)

let sum p m ~dys nets n =
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    let ni = nets.(k) in
    acc := !acc +. net_cost p m ~dy:dys.(ni) p.Problem.nets.(ni)
  done;
  !acc

let total p w =
  let m = model p.Problem.tech w ~row_width:(Float.max 1.0 (Problem.row_width p)) in
  let dys = Problem.net_dys p in
  let acc = ref 0.0 in
  for ni = 0 to Array.length p.Problem.nets - 1 do
    acc := !acc +. net_cost p m ~dy:dys.(ni) p.Problem.nets.(ni)
  done;
  !acc

let worst_violation p =
  let m =
    model p.Problem.tech default_weights
      ~row_width:(Float.max 1.0 (Problem.row_width p))
  in
  let dys = Problem.net_dys p in
  let worst = ref 0.0 in
  for ni = 0 to Array.length p.Problem.nets - 1 do
    let e = p.Problem.nets.(ni) in
    let xs = src_x p e and xd = dst_x p e in
    let len = Float.abs (xd -. xs) +. dys.(ni) in
    let phase = p.Problem.cells.(e.Problem.src).Problem.row in
    let v = violation m ~len ~base:(skew m ~phase xs xd) in
    if v > !worst then worst := v
  done;
  !worst
