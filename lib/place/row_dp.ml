type options = {
  lambda_t : float;
  lambda_wmax : float;
  lambda_slack : float;
  margin : float;
  passes : int;
}

let default_options =
  { lambda_t = 0.3; lambda_wmax = 5.0; lambda_slack = 20.0; margin = 300.0; passes = 2 }

let weights o =
  { Place_cost.lambda_t = o.lambda_t; lambda_wmax = o.lambda_wmax; lambda_slack = o.lambda_slack }

(* Everything needed to cost one net as a function of the moving
   cell's x: the other endpoint is frozen. *)
type net_view = {
  own_offset : float;  (** pin offset on the moving cell *)
  partner : float;  (** absolute x of the frozen pin *)
  moving_is_src : bool;
  phase : int;  (** the driving cell's row (selects the Eq. 2 case) *)
  dy : float;
}

let net_views p nets_of ~dys ci =
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
        dy = dys.(ni);
      })
    nets_of.(ci)

(* [dys] is {!Problem.net_dys}: row DP moves no row *)
let views p nets_of ~dys order =
  Array.map (fun ci -> Array.of_list (net_views p nets_of ~dys ci)) order

(* The DP over a row of [n] cells in a fixed order. Cell i's left edge
   is at least lo_i (the widths before it, abutted) and at most hi_i
   (the last edge from which the rest of the row still fits in the
   position domain); every edge in between is reachable, and every
   band lo_i..hi_i has the same width, so the state is (cell, offset
   into its band). Abutting keeps the offset and a gap of at least
   s_min lowers it by s_min or more: both transitions stay inside the
   bands, and the optimum is the full-domain DP's, bit for bit.
   [width] is {!Problem.row_width}. *)
let solve options p ~width views order =
  let tech = p.Problem.tech in
  let grid = tech.Tech.grid in
  let n = Array.length order in
  let row_width = Float.max 1.0 width in
  let positions = int_of_float ((row_width +. options.margin) /. grid) + 1 in
  let smin_g = int_of_float (tech.Tech.s_min /. grid +. 0.5) in
  let width_g ci =
    int_of_float (p.Problem.cells.(ci).Problem.lib.Cell.width /. grid +. 0.5)
  in
  let lo = Array.make n 0 in
  for i = 1 to n - 1 do
    lo.(i) <- lo.(i - 1) + width_g order.(i - 1)
  done;
  (* the free grid steps: band width minus one *)
  let slack = positions - 1 - lo.(n - 1) in
  if slack < 0 then None
  else begin
    let m = Place_cost.model tech (weights options) ~row_width in
    let band = slack + 1 in
    let cost = Array.make band 0.0 in
    let costs i =
      Array.fill cost 0 band 0.0;
      Array.iter
        (fun v ->
          Place_cost.add_band m ~phase:v.phase ~dy:v.dy ~pin:v.own_offset
            ~partner:v.partner ~src:v.moving_is_src ~grid ~lo:lo.(i)
            ~hi:(lo.(i) + slack) cost)
        views.(i)
    in
    let prev = Array.make band 0.0 and cur = Array.make band 0.0 in
    let parent = Array.make_matrix n band (-1) in
    costs 0;
    Array.blit cost 0 prev 0 band;
    let prefix_min = Array.make band 0 in
    for i = 1 to n - 1 do
      (* prefix argmin of prev *)
      let best_so_far = ref 0 in
      for j = 0 to slack do
        if prev.(j) < prev.(!best_so_far) then best_so_far := j;
        prefix_min.(j) <- !best_so_far
      done;
      costs i;
      for j = 0 to slack do
        let via_abut = prev.(j) in
        let jg = j - smin_g in
        let via_gap = if jg >= 0 then prev.(prefix_min.(jg)) else infinity in
        if via_abut <= via_gap then begin
          cur.(j) <- cost.(j) +. via_abut;
          parent.(i).(j) <- j
        end
        else begin
          cur.(j) <- cost.(j) +. via_gap;
          parent.(i).(j) <- prefix_min.(jg)
        end
      done;
      Array.blit cur 0 prev 0 band
    done;
    (* best end offset, then backtrack *)
    let best_end = ref 0 in
    for j = 1 to slack do
      if prev.(j) < prev.(!best_end) then best_end := j
    done;
    let xs = Array.make n 0 in
    let j = ref !best_end in
    for i = n - 1 downto 0 do
      xs.(i) <- lo.(i) + !j;
      if i > 0 then j := parent.(i).(!j)
    done;
    Some (prev.(!best_end), xs)
  end

let row_order p r =
  let order = Array.copy p.Problem.row_cells.(r) in
  Array.sort
    (fun a b -> Float.compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x)
    order;
  order

let solve_row ?(options = default_options) p r =
  let order = row_order p r in
  if Array.length order = 0 then None
  else
    let views = views p (Problem.cell_nets p) ~dys:(Problem.net_dys p) order in
    solve options p ~width:(Problem.row_width p) views order

let optimize_row_with ~options p nets_of ~dys ~width r =
  let order = row_order p r in
  let n = Array.length order in
  if n = 0 then false
  else begin
    let views = views p nets_of ~dys order in
    (* current total, for the improvement decision *)
    let old_total =
      let m =
        Place_cost.model p.Problem.tech (weights options)
          ~row_width:(Float.max 1.0 width)
      in
      let acc = ref 0.0 in
      Array.iteri
        (fun i ci ->
          let x = p.Problem.cells.(ci).Problem.x in
          acc :=
            !acc
            +. Array.fold_left
                 (fun a v ->
                   let pin = x +. v.own_offset in
                   a
                   +.
                   if v.moving_is_src then
                     Place_cost.eval m ~phase:v.phase ~dy:v.dy pin v.partner
                   else Place_cost.eval m ~phase:v.phase ~dy:v.dy v.partner pin)
                 0.0 views.(i))
        order;
      !acc
    in
    match solve options p ~width views order with
    | Some (new_total, xs) when new_total < old_total -. 1e-6 ->
        let grid = p.Problem.tech.Tech.grid in
        Array.iteri
          (fun i ci -> p.Problem.cells.(ci).Problem.x <- float_of_int xs.(i) *. grid)
          order;
        true
    | _ -> false
  end

let optimize_row ?(options = default_options) p r =
  optimize_row_with ~options p (Problem.cell_nets p) ~dys:(Problem.net_dys p)
    ~width:(Problem.row_width p) r

(* Within one run only row r's own solve moves row r's cells, so a row
   whose last solve found nothing sees the same inputs again until a
   net partner moves or the row width changes; the deterministic DP
   would find nothing again. [settled.(r)] holds the row width at that
   last empty solve (nan: none since the last partner move). The width
   is the max of the row extents, each refreshed once its row moved. *)
let run ?(options = default_options) p =
  let nets_of = Problem.cell_nets p in
  let dys = Problem.net_dys p in
  let extents = Problem.row_extents p in
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
    let width = Array.fold_left Float.max 0.0 extents in
    if not (Float.equal settled.(r) width) then
      if optimize_row_with ~options p nets_of ~dys ~width r then begin
        incr improved;
        extents.(r) <- Problem.row_extent p r;
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
