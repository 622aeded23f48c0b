type options = {
  sweeps : int;
  t_steps : int;
  t_start_frac : float;
  cooling : float;
  weights : Place_cost.weights;
  seed : int;
}

let default_options =
  {
    sweeps = 4;
    t_steps = 30;
    t_start_frac = 0.3;
    cooling = 0.82;
    weights = Place_cost.default_weights;
    seed = 17;
  }

let gap_legal s_min g = g > -1e-6 && (g < 1e-6 || g >= s_min -. 1e-6)

let run ?(options = default_options) p =
  let tech = p.Problem.tech in
  let s_min = tech.Tech.s_min in
  let rng = Rng.create options.seed in
  let nets_of = Problem.cell_nets p in
  let n_cells = Array.length p.Problem.cells in
  if n_cells = 0 then 0
  else begin
    (* per-row order arrays, kept sorted by x *)
    let orders =
      Array.map
        (fun row ->
          let o = Array.copy row in
          Array.sort
            (fun a b -> Float.compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x)
            o;
          o)
        p.Problem.row_cells
    in
    let row_width = ref (Float.max 1.0 (Problem.row_width p)) in
    let dys = Problem.net_dys p in
    let eval_nets nets =
      List.fold_left
        (fun acc ni ->
          acc
          +. Place_cost.net_cost p options.weights ~row_width:!row_width ~dy:dys.(ni)
               p.Problem.nets.(ni))
        0.0 nets
    in
    (* temperature scale from the current mean net cost *)
    let mean_cost =
      Place_cost.total p options.weights /. float_of_int (Array.length p.Problem.nets)
    in
    let accepted = ref 0 in
    let best_cost = ref (Place_cost.total p options.weights) in
    let best = ref (Problem.copy_positions p) in
    let temp = ref (options.t_start_frac *. mean_cost) in
    let metropolis delta =
      delta < 0.0
      || (!temp > 1e-12 && Rng.float rng 1.0 < exp (-.delta /. !temp))
    in
    (* random slide of one cell inside its free slot *)
    let try_slide order i =
      let ci = order.(i) in
      let c = p.Problem.cells.(ci) in
      let w = c.Problem.lib.Cell.width in
      let lo =
        if i = 0 then 0.0
        else
          let prev = p.Problem.cells.(order.(i - 1)) in
          prev.Problem.x +. prev.Problem.lib.Cell.width
      in
      let hi =
        if i = Array.length order - 1 then c.Problem.x +. 300.0
        else p.Problem.cells.(order.(i + 1)).Problem.x
      in
      let span = hi -. w -. lo in
      if span < 0.0 then false
      else begin
        let x = Tech.snap tech (lo +. Rng.float rng (Float.max 1.0 span)) in
        let legal =
          x >= -1e-6
          && (i = 0 || gap_legal s_min (x -. lo))
          && gap_legal s_min (hi -. (x +. w))
        in
        if not legal then false
        else begin
          let old_x = c.Problem.x in
          let before = eval_nets nets_of.(ci) in
          c.Problem.x <- x;
          let after = eval_nets nets_of.(ci) in
          if metropolis (after -. before) then begin
            incr accepted;
            true
          end
          else begin
            c.Problem.x <- old_x;
            false
          end
        end
      end
    in
    (* swap two cells (mixed sizes allowed) within a small window *)
    let try_swap order i =
      let n = Array.length order in
      let d = 1 + Rng.int rng 3 in
      let j = i + d in
      if j >= n then false
      else begin
        let ci = order.(i) and cj = order.(j) in
        let a = p.Problem.cells.(ci) and b = p.Problem.cells.(cj) in
        let wa = a.Problem.lib.Cell.width and wb = b.Problem.lib.Cell.width in
        let xa_old = a.Problem.x and xb_old = b.Problem.x in
        let xb_new = xa_old in
        let xa_new = xb_old +. wb -. wa in
        let lo_i =
          if i = 0 then 0.0
          else
            let prev = p.Problem.cells.(order.(i - 1)) in
            prev.Problem.x +. prev.Problem.lib.Cell.width
        in
        let hi_i = if j = i + 1 then xa_new else p.Problem.cells.(order.(i + 1)).Problem.x in
        let lo_j =
          if j = i + 1 then xb_new +. wb
          else
            let prev = p.Problem.cells.(order.(j - 1)) in
            prev.Problem.x +. prev.Problem.lib.Cell.width
        in
        let hi_j =
          if j = n - 1 then infinity else p.Problem.cells.(order.(j + 1)).Problem.x
        in
        let ok =
          xa_new >= -1e-6 && xb_new >= -1e-6
          && (i = 0 || gap_legal s_min (xb_new -. lo_i))
          && gap_legal s_min (hi_i -. (xb_new +. wb))
          && gap_legal s_min (xa_new -. lo_j)
          && (hi_j = infinity || gap_legal s_min (hi_j -. (xa_new +. wa)))
          && Tech.on_grid tech xa_new && Tech.on_grid tech xb_new
        in
        if not ok then false
        else begin
          let nets = List.sort_uniq Int.compare (nets_of.(ci) @ nets_of.(cj)) in
          let before = eval_nets nets in
          a.Problem.x <- xa_new;
          b.Problem.x <- xb_new;
          let after = eval_nets nets in
          if metropolis (after -. before) then begin
            let tmp = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- tmp;
            incr accepted;
            true
          end
          else begin
            a.Problem.x <- xa_old;
            b.Problem.x <- xb_old;
            false
          end
        end
      end
    in
    for _step = 1 to options.t_steps do
      for _sweep = 1 to options.sweeps do
        Array.iter
          (fun order ->
            let n = Array.length order in
            if n > 0 then begin
              let i = Rng.int rng n in
              if Rng.bool rng then ignore (try_slide order i)
              else ignore (try_swap order i)
            end)
          orders
      done;
      row_width := Float.max 1.0 (Problem.row_width p);
      let cost = Place_cost.total p options.weights in
      if cost < !best_cost then begin
        best_cost := cost;
        best := Problem.copy_positions p
      end;
      temp := !temp *. options.cooling
    done;
    Problem.restore_positions p !best;
    !accepted
  end
