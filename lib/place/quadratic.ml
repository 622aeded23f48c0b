let spread_anchors p =
  let anchors = Array.make (Array.length p.Problem.cells) 0.0 in
  (* estimated chip width: widest row at abutted packing + slack *)
  let est_width =
    Array.fold_left
      (fun acc row ->
        let w =
          Array.fold_left
            (fun a ci -> a +. p.Problem.cells.(ci).Problem.lib.Cell.width)
            0.0 row
        in
        Float.max acc w)
      1.0 p.Problem.row_cells
  in
  let est_width = est_width *. 1.2 in
  Array.iter
    (fun row ->
      let n = Array.length row in
      Array.iteri
        (fun i ci ->
          let c = p.Problem.cells.(ci) in
          anchors.(ci) <-
            (est_width *. (float_of_int i +. 0.5) /. float_of_int (max 1 n))
            -. (c.Problem.lib.Cell.width /. 2.0))
        row)
    p.Problem.row_cells;
  anchors

(* [a], the anchor pull's weight, and the conjugate-gradient iteration
   cap *)
let anchor_weight = 0.01
let iterations = 200

(* y := A x where A is the quadratic form's Hessian (Laplacian of the
   weighted net graph + anchor diagonal). *)
let apply p ~net_weight x y =
  Array.fill y 0 (Array.length y) 0.0;
  Array.iteri
    (fun ni e ->
      let w = net_weight ni in
      let s = e.Problem.src and d = e.Problem.dst in
      let diff = x.(s) -. x.(d) in
      y.(s) <- y.(s) +. (w *. diff);
      y.(d) <- y.(d) -. (w *. diff))
    p.Problem.nets;
  Array.iteri (fun i xi -> y.(i) <- y.(i) +. (anchor_weight *. xi)) x

(* right-hand side: anchor pull + pin-offset corrections *)
let rhs p ~net_weight anchors =
  let b = Array.map (fun a -> anchor_weight *. a) anchors in
  Array.iteri
    (fun ni e ->
      let w = net_weight ni in
      let sc = p.Problem.cells.(e.Problem.src) in
      let dc = p.Problem.cells.(e.Problem.dst) in
      let o_s = sc.Problem.lib.Cell.out_pins.(e.Problem.src_pin) in
      let pins = dc.Problem.lib.Cell.in_pins in
      let o_d = pins.(e.Problem.dst_pin mod Array.length pins) in
      (* net term: w (x_s + o_s - x_d - o_d)^2; offset constant moves
         to the rhs *)
      let off = o_s -. o_d in
      b.(e.Problem.src) <- b.(e.Problem.src) -. (w *. off);
      b.(e.Problem.dst) <- b.(e.Problem.dst) +. (w *. off))
    p.Problem.nets;
  b

let solve p ~net_weight =
  let n = Array.length p.Problem.cells in
  if n > 0 then begin
    let anchors = spread_anchors p in
    let x = Array.map (fun c -> c.Problem.x) p.Problem.cells in
    let b = rhs p ~net_weight anchors in
    let ax = Array.make n 0.0 in
    apply p ~net_weight x ax;
    let r = Array.init n (fun i -> b.(i) -. ax.(i)) in
    let d = Array.copy r in
    let q = Array.make n 0.0 in
    let dot a b =
      let acc = ref 0.0 in
      Array.iteri (fun i ai -> acc := !acc +. (ai *. b.(i))) a;
      !acc
    in
    let rr = ref (dot r r) in
    let k = ref 0 in
    while !k < iterations && !rr > 1e-6 do
      apply p ~net_weight d q;
      let alpha = !rr /. Float.max 1e-30 (dot d q) in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. d.(i));
        r.(i) <- r.(i) -. (alpha *. q.(i))
      done;
      let rr' = dot r r in
      let beta = rr' /. Float.max 1e-30 !rr in
      for i = 0 to n - 1 do
        d.(i) <- r.(i) +. (beta *. d.(i))
      done;
      rr := rr';
      incr k
    done;
    Array.iteri
      (fun i c -> c.Problem.x <- Float.max 0.0 x.(i))
      p.Problem.cells
  end
