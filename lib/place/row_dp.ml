type options = {
  lambda_t : float;
  lambda_wmax : float;
  lambda_slack : float;
  margin : float;
  passes : int;
}

let default_options =
  { lambda_t = 0.3; lambda_wmax = 5.0; lambda_slack = 20.0; margin = 300.0; passes = 2 }

(* Everything needed to cost one net as a function of the moving
   cell's x: the other endpoint is frozen. *)
type net_view = {
  own_offset : float;  (** pin offset on the moving cell *)
  partner : float;  (** absolute x of the frozen pin *)
  moving_is_src : bool;
  phase : int;  (** the driving cell's row (selects the Eq. 2 case) *)
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

let net_cost tech opts ~row_width v x =
  let pin = x +. v.own_offset in
  let xs, xd = if v.moving_is_src then (pin, v.partner) else (v.partner, pin) in
  let len = Float.abs (xd -. xs) +. v.dy in
  let base =
    match ((v.phase mod 4) + 4) mod 4 with
    | 0 -> xd -. xs
    | 1 -> xd +. xs
    | 2 -> -.xd +. xs
    | 3 -> (2.0 *. row_width) -. xd -. xs
    | _ -> assert false
  in
  let timing = Float.max 0.0 base ** 2.0 in
  let excess = Float.max 0.0 (len -. tech.Tech.w_max) in
  let violation =
    if opts.lambda_slack = 0.0 then 0.0
    else
      let slack =
        Tech.phase_window_ps tech -. tech.Tech.gate_delay_ps
        -. (len /. tech.Tech.signal_velocity)
        -. (Float.max 0.0 base /. tech.Tech.clock_velocity)
      in
      Float.max 0.0 (-.slack)
  in
  len
  +. (opts.lambda_t *. timing /. Float.max 1.0 row_width)
  +. (opts.lambda_wmax *. excess)
  +. (opts.lambda_slack *. violation)

let optimize_row_with ?(options = default_options) p nets_of r =
  let tech = p.Problem.tech in
  let grid = tech.Tech.grid in
  let order = Array.copy p.Problem.row_cells.(r) in
  Array.sort
    (fun a b -> Float.compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x)
    order;
  let n = Array.length order in
  if n = 0 then false
  else begin
    let row_width = Float.max 1.0 (Problem.row_width p) in
    let positions = int_of_float ((row_width +. options.margin) /. grid) + 1 in
    let smin_g = int_of_float (tech.Tech.s_min /. grid +. 0.5) in
    let views = Array.map (fun ci -> Array.of_list (net_views p nets_of ci)) order in
    let cost i x_g =
      let x = float_of_int x_g *. grid in
      Array.fold_left
        (fun acc v -> acc +. net_cost tech options ~row_width v x)
        0.0 views.(i)
    in
    (* current total, for the improvement decision *)
    let old_total =
      let acc = ref 0.0 in
      Array.iteri
        (fun i ci ->
          let x = p.Problem.cells.(ci).Problem.x in
          acc :=
            !acc
            +. Array.fold_left
                 (fun a v -> a +. net_cost tech options ~row_width v x)
                 0.0 views.(i))
        order;
      !acc
    in
    (* DP over (cell, left-edge grid position) *)
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
      (* prefix argmin of prev *)
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
    (* best end position, then backtrack *)
    let best_end = ref 0 in
    for x = 1 to positions - 1 do
      if prev.(x) < prev.(!best_end) then best_end := x
    done;
    let new_total = prev.(!best_end) in
    if new_total < old_total -. 1e-6 then begin
      let xs = Array.make n 0 in
      let pos = ref !best_end in
      for i = n - 1 downto 0 do
        xs.(i) <- !pos;
        if i > 0 then pos := parent.(i).(!pos)
      done;
      Array.iteri
        (fun i ci -> p.Problem.cells.(ci).Problem.x <- float_of_int xs.(i) *. grid)
        order;
      true
    end
    else false
  end

let optimize_row ?options p r =
  optimize_row_with ?options p (Problem.cell_nets p) r

(* Within one run only row r's own solve moves row r's cells, so a row
   whose last solve found nothing sees the same inputs again until a
   net partner moves or the row width changes; the deterministic DP
   would find nothing again. [settled.(r)] holds the row width at that
   last empty solve (nan: none since the last partner move). *)
let run ?(options = default_options) p =
  let nets_of = Problem.cell_nets p in
  let settled = Array.make p.Problem.n_rows Float.nan in
  let unsettle_partners r =
    Array.iter
      (fun ci ->
        List.iter
          (fun ni ->
            let e = p.Problem.nets.(ni) in
            settled.(p.Problem.cells.(e.Problem.src).Problem.row) <- Float.nan;
            settled.(p.Problem.cells.(e.Problem.dst).Problem.row) <- Float.nan)
          nets_of.(ci))
      p.Problem.row_cells.(r)
  in
  let improved = ref 0 in
  let solve r =
    let width = Problem.row_width p in
    if not (Float.equal settled.(r) width) then
      if optimize_row_with ~options p nets_of r then begin
        incr improved;
        unsettle_partners r
      end
      else settled.(r) <- width
  in
  for pass = 1 to options.passes do
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
