type weights = {
  lambda_t : float;
  lambda_w : float;
  lambda_d : float;
  gamma : float;
  alpha : float;
}

let default_weights tech =
  {
    lambda_t = 1.0;
    lambda_w = 1.0;
    lambda_d = 1.0;
    gamma = 2.0 *. tech.Tech.grid;
    alpha = 2.0;
  }

(* pin positions go through a getter so [cost_and_grad] can hand the
   chunks a sanitizer-tracked read-only view of [xs] *)
let src_pin_x p e get =
  let c = p.Problem.cells.(e.Problem.src) in
  get e.Problem.src +. c.Problem.lib.Cell.out_pins.(e.Problem.src_pin)

let dst_pin_x p e get =
  let c = p.Problem.cells.(e.Problem.dst) in
  let pins = c.Problem.lib.Cell.in_pins in
  get e.Problem.dst +. pins.(e.Problem.dst_pin mod Array.length pins)

(* Smooth two-pin |b - a| via the WA estimator, with d/da and d/db.
   For two pins the WA max/min expressions reduce to logistic blends. *)
let wa_abs gamma a b =
  let d = b -. a in
  (* max ~ (a e^{a/g} + b e^{b/g}) / (e^{a/g} + e^{b/g}); organize via
     the difference to stay numerically stable. *)
  let s = 1.0 /. (1.0 +. exp (-.d /. gamma)) in
  (* s = sigma(d/gamma); wa_max = a + d*s ; wa_min = a + d*(1-s) *)
  let value = d *. (2.0 *. s -. 1.0) in
  (* d(value)/dd = (2s - 1) + 2 d s(1-s)/gamma *)
  let dvalue_dd = (2.0 *. s -. 1.0) +. (2.0 *. d *. s *. (1.0 -. s) /. gamma) in
  (value, -.dvalue_dd, dvalue_dd)

let wa_wirelength p ~gamma xs =
  let get i = xs.(i) in
  Array.fold_left
    (fun acc e ->
      let xa = src_pin_x p e get and xb = dst_pin_x p e get in
      let v, _, _ = wa_abs gamma xa xb in
      acc +. v)
    0.0 p.Problem.nets

let timing_base phase ~row_width ~xs_pin ~xd_pin =
  (* Eq. (2) base and its (d/dxs, d/dxd) *)
  match ((phase mod 4) + 4) mod 4 with
  | 0 -> (xd_pin -. xs_pin, -1.0, 1.0)
  | 1 -> (xd_pin +. xs_pin, 1.0, 1.0)
  | 2 -> (-.xd_pin +. xs_pin, 1.0, -1.0)
  | 3 -> ((2.0 *. row_width) -. xd_pin -. xs_pin, -1.0, -1.0)
  | _ -> assert false

(* Repair [order], a permutation of [row], to ascending [xs] in place:
   the order [Array.sort] gives over [row]. Adam moves few cells past a
   neighbour per step, so insertion sort from the previous step's
   order is near-linear. With distinct keys the sorted order is
   unique; only the order of equal keys depends on the algorithm, so a
   repaired order with a tie is rebuilt by [Array.sort] over [row]. *)
let repair_order xs row order =
  let by_x a b = Float.compare xs.(a) xs.(b) in
  for i = 1 to Array.length order - 1 do
    let ci = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && by_x order.(!j) ci > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- ci
  done;
  let tie = ref false in
  for i = 0 to Array.length order - 2 do
    if by_x order.(i) order.(i + 1) = 0 then tie := true
  done;
  if !tie then begin
    Array.blit row 0 order 0 (Array.length row);
    Array.sort by_x order
  end

let cost_and_grad ?orders p w xs =
  let n = Array.length xs in
  let grad = Array.make n 0.0 in
  let cost = ref 0.0 in
  let row_width = Problem.row_width p in
  let dys = Problem.net_dys p in
  (* wirelength + timing + max-wirelength: map-reduce over net chunks.
     Each chunk accumulates into its own cost cell and full-size
     gradient buffer; buffers are summed left-to-right afterwards, so
     the result is independent of how many domains ran the chunks.
     (Chunk size is fixed, never derived from the pool size — that is
     the determinism contract of [Parallel.map_chunks].) *)
  let get i = xs.(i) in
  let net_chunk lo hi =
    let ccost = ref 0.0 in
    let cgrad = Array.make n 0.0 in
    for i = lo to hi - 1 do
      let e = p.Problem.nets.(i) in
      let xa = src_pin_x p e get and xb = dst_pin_x p e get in
      let v, dva, dvb = wa_abs w.gamma xa xb in
      ccost := !ccost +. v;
      cgrad.(e.Problem.src) <- cgrad.(e.Problem.src) +. dva;
      cgrad.(e.Problem.dst) <- cgrad.(e.Problem.dst) +. dvb;
      (* timing *)
      let phase = p.Problem.cells.(e.Problem.src).Problem.row in
      let base, dbs, dbd = timing_base phase ~row_width ~xs_pin:xa ~xd_pin:xb in
      if base > 0.0 then begin
        let t = base ** w.alpha in
        let dt = w.alpha *. (base ** (w.alpha -. 1.0)) in
        ccost := !ccost +. (w.lambda_t *. t);
        cgrad.(e.Problem.src) <- cgrad.(e.Problem.src) +. (w.lambda_t *. dt *. dbs);
        cgrad.(e.Problem.dst) <- cgrad.(e.Problem.dst) +. (w.lambda_t *. dt *. dbd)
      end;
      (* max-wirelength penalty on |dx| + dy *)
      let len = Float.abs (xb -. xa) +. dys.(i) in
      let excess = len -. p.Problem.tech.Tech.w_max in
      if excess > 0.0 then begin
        ccost := !ccost +. (w.lambda_w *. excess *. excess);
        let sign = if xb >= xa then 1.0 else -1.0 in
        let d = 2.0 *. w.lambda_w *. excess in
        cgrad.(e.Problem.src) <- cgrad.(e.Problem.src) -. (d *. sign);
        cgrad.(e.Problem.dst) <- cgrad.(e.Problem.dst) +. (d *. sign)
      end
    done;
    (!ccost, cgrad)
  in
  let parts =
    Parallel.map_chunks ~label:"place.grad" ~chunk:1024
      ~n:(Array.length p.Problem.nets) net_chunk
  in
  Array.iter
    (fun (ccost, cgrad) ->
      cost := !cost +. ccost;
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) +. cgrad.(i)
      done)
    parts;
  (* row-density: quadratic penalty on pairwise overlap of row
     neighbors (by current order in xs) *)
  Array.iteri
    (fun r row ->
      let order =
        match orders with
        | Some orders ->
            repair_order xs row orders.(r);
            orders.(r)
        | None ->
            let order = Array.copy row in
            Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
            order
      in
      for i = 0 to Array.length order - 2 do
        let a = order.(i) and b = order.(i + 1) in
        let wa_ = p.Problem.cells.(a).Problem.lib.Cell.width in
        let olap = xs.(a) +. wa_ -. xs.(b) in
        if olap > 0.0 then begin
          cost := !cost +. (w.lambda_d *. olap *. olap);
          let d = 2.0 *. w.lambda_d *. olap in
          grad.(a) <- grad.(a) +. d;
          grad.(b) <- grad.(b) -. d
        end
      done)
    p.Problem.row_cells;
  (!cost, grad)
