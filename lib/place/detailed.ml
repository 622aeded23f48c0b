type options = {
  lambda_t : float;
  lambda_wmax : float;
  lambda_slack : float;
  mixed_size : bool;
  window : int;
  max_passes : int;
}

let default_options =
  {
    lambda_t = 0.3;
    lambda_wmax = 5.0;
    lambda_slack = 20.0;
    mixed_size = true;
    window = 3;
    max_passes = 8;
  }

let gap_legal s_min g = g > -1e-6 && (g < 1e-6 || g >= s_min -. 1e-6)

let run ?(options = default_options) p =
  let tech = p.Problem.tech in
  let s_min = tech.Tech.s_min in
  let nets_of = Array.map Array.of_list (Problem.cell_nets p) in
  let dys = Problem.net_dys p in
  let weights =
    {
      Place_cost.lambda_t = options.lambda_t;
      lambda_wmax = options.lambda_wmax;
      lambda_slack = options.lambda_slack;
    }
  in
  let accepted = ref 0 in
  (* per-row order sorted by x (legal placements are strictly ordered) *)
  let orders =
    Array.map
      (fun row ->
        let o = Array.copy row in
        Array.sort (fun a b -> Float.compare p.Problem.cells.(a).Problem.x p.Problem.cells.(b).Problem.x) o;
        o)
      p.Problem.row_cells
  in
  (* a cell's nets come in descending index order; [union_nets a b]
     merges two cells' lists into [union] in ascending order without
     repeats and returns its length *)
  let union = Array.make (Array.length p.Problem.nets) 0 in
  let union_nets a b =
    let na = nets_of.(a) and nb = nets_of.(b) in
    let i = ref (Array.length na - 1) and j = ref (Array.length nb - 1) in
    let k = ref 0 in
    while !i >= 0 || !j >= 0 do
      let x = if !i >= 0 then na.(!i) else max_int in
      let y = if !j >= 0 then nb.(!j) else max_int in
      let ni = min x y in
      union.(!k) <- ni;
      incr k;
      if x = ni then decr i;
      if y = ni then decr j
    done;
    !k
  in
  (* preferred x for a cell: mean of its net partners' pin positions *)
  let desired_x c ci =
    let sum = ref 0.0 and count = ref 0 in
    Array.iter
      (fun ni ->
        let e = p.Problem.nets.(ni) in
        let partner_pin =
          if e.Problem.src = ci then Problem.pin_x p ni `Dst else Problem.pin_x p ni `Src
        in
        let own_offset =
          if e.Problem.src = ci then c.Problem.lib.Cell.out_pins.(e.Problem.src_pin)
          else
            let pins = c.Problem.lib.Cell.in_pins in
            pins.(e.Problem.dst_pin mod Array.length pins)
        in
        sum := !sum +. (partner_pin -. own_offset);
        incr count)
      nets_of.(ci);
    if !count = 0 then c.Problem.x else !sum /. float_of_int !count
  in
  let try_shift m order i =
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
      if i = Array.length order - 1 then infinity
      else p.Problem.cells.(order.(i + 1)).Problem.x
    in
    let desired = Tech.snap tech (desired_x c ci) in
    let candidates =
      [ lo; lo +. s_min; desired ]
      @ (if hi < infinity then [ hi -. w; hi -. w -. s_min ] else [])
    in
    let legal x =
      x >= -1e-6
      && (i = 0 || gap_legal s_min (x -. lo))
      && (hi = infinity || gap_legal s_min (hi -. (x +. w)))
      && Tech.on_grid tech x
    in
    let old_x = c.Problem.x in
    let nets = nets_of.(ci) in
    let eval () = Place_cost.sum p m ~dys nets (Array.length nets) in
    let base = eval () in
    let best = ref None in
    List.iter
      (fun x ->
        let x = Tech.snap tech x in
        if legal x && Float.abs (x -. old_x) > 1e-6 then begin
          c.Problem.x <- x;
          let v = eval () in
          c.Problem.x <- old_x;
          match !best with
          | Some (bv, _) when bv <= v -> ()
          | _ -> if v < base -. 1e-9 then best := Some (v, x)
        end)
      candidates;
    match !best with
    | Some (_, x) ->
        c.Problem.x <- x;
        incr accepted;
        true
    | None -> false
  in
  let try_swap m order i j =
    let ci = order.(i) and cj = order.(j) in
    let a = p.Problem.cells.(ci) and b = p.Problem.cells.(cj) in
    let wa = a.Problem.lib.Cell.width and wb = b.Problem.lib.Cell.width in
    if (not options.mixed_size) && wa <> wb then false
    else begin
      (* b takes a's left edge; a keeps b's right edge *)
      let xa_old = a.Problem.x and xb_old = b.Problem.x in
      let xb_new = xa_old in
      let xa_new = xb_old +. wb -. wa in
      (* legality around slot i (now holding b) and slot j (now a) *)
      let lo_i =
        if i = 0 then 0.0
        else
          let prev = p.Problem.cells.(order.(i - 1)) in
          prev.Problem.x +. prev.Problem.lib.Cell.width
      in
      let hi_i =
        if j = i + 1 then xa_new
        else p.Problem.cells.(order.(i + 1)).Problem.x
      in
      let lo_j =
        if j = i + 1 then xb_new +. wb
        else
          let prev = p.Problem.cells.(order.(j - 1)) in
          prev.Problem.x +. prev.Problem.lib.Cell.width
      in
      let hi_j =
        if j = Array.length order - 1 then infinity
        else p.Problem.cells.(order.(j + 1)).Problem.x
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
        let n = union_nets ci cj in
        let base = Place_cost.sum p m ~dys union n in
        a.Problem.x <- xa_new;
        b.Problem.x <- xb_new;
        let v = Place_cost.sum p m ~dys union n in
        if v < base -. 1e-9 then begin
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
  let pass () =
    let before = !accepted in
    let m = Place_cost.model tech weights ~row_width:(Problem.row_width p) in
    Array.iter
      (fun order ->
        let n = Array.length order in
        for i = 0 to n - 1 do
          ignore (try_shift m order i);
          for d = 1 to options.window do
            if i + d < n then ignore (try_swap m order i (i + d))
          done
        done)
      orders;
    !accepted > before
  in
  let continue = ref true in
  let passes = ref 0 in
  while !continue && !passes < options.max_passes do
    incr passes;
    continue := pass ()
  done;
  !accepted
