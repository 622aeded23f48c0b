type cell = {
  node : int;
  kind : Netlist.kind;
  lib : Cell.t;
  row : int;
  mutable x : float;
}

type net = { src : int; dst : int; src_pin : int; dst_pin : int }

type t = {
  tech : Tech.t;
  cells : cell array;
  nets : net array;
  n_rows : int;
  row_cells : int array array;
  mutable row_gaps : float array;
  row_height : float;
}

let of_netlist tech nl =
  if not (Netlist.is_balanced nl) then
    invalid_arg "Problem.of_netlist: netlist is not phase-balanced";
  let n = Netlist.size nl in
  (* Output markers live one row below their driver so every net spans
     exactly one row gap. *)
  let row_of = Array.make n 0 in
  let max_row = ref 0 in
  Netlist.iter nl (fun nd ->
      let r =
        match nd.Netlist.kind with
        | Netlist.Output -> nd.Netlist.phase + 1
        | _ -> nd.Netlist.phase
      in
      row_of.(nd.Netlist.id) <- r;
      if r > !max_row then max_row := r);
  let cell_index = Array.make n (-1) in
  let cells = Array.make n None in
  let k = ref 0 in
  Netlist.iter nl (fun nd ->
      cell_index.(nd.Netlist.id) <- !k;
      cells.(!k) <-
        Some
          {
            node = nd.Netlist.id;
            kind = nd.Netlist.kind;
            lib = Cell.of_kind nd.Netlist.kind;
            row = row_of.(nd.Netlist.id);
            x = 0.0;
          };
      incr k);
  let cells = Array.map Option.get cells in
  (* Nets: one per fan-in edge. Splitter output pins are allocated in
     consumer order. *)
  let out_pin_next = Array.make n 0 in
  let nets = ref [] in
  Netlist.iter nl (fun nd ->
      Array.iteri
        (fun dst_pin f ->
          let src_pin = out_pin_next.(f) in
          out_pin_next.(f) <- src_pin + 1;
          nets :=
            {
              src = cell_index.(f);
              dst = cell_index.(nd.Netlist.id);
              src_pin;
              dst_pin;
            }
            :: !nets)
        nd.Netlist.fanins);
  let nets = Array.of_list (List.rev !nets) in
  (* guard: a cell never drives more nets than it has output pins *)
  Array.iter
    (fun e ->
      let c = cells.(e.src) in
      if e.src_pin >= Array.length c.lib.Cell.out_pins then
        invalid_arg
          (Printf.sprintf "Problem.of_netlist: node %d (%s) drives %d+ nets"
             c.node (Netlist.kind_name c.kind) (e.src_pin + 1)))
    nets;
  let n_rows = !max_row + 1 in
  let row_cells = Array.make n_rows [] in
  Array.iteri (fun i c -> row_cells.(c.row) <- i :: row_cells.(c.row)) cells;
  let row_cells = Array.map (fun l -> Array.of_list (List.rev l)) row_cells in
  let row_height =
    Array.fold_left (fun acc c -> Float.max acc c.lib.Cell.height) 0.0 cells
  in
  let t =
    {
      tech;
      cells;
      nets;
      n_rows;
      row_cells;
      row_gaps = Array.make n_rows tech.Tech.row_gap;
      row_height;
    }
  in
  (* initial left-packed placement on the grid *)
  Array.iter
    (fun row ->
      let x = ref 0.0 in
      Array.iter
        (fun ci ->
          let c = t.cells.(ci) in
          c.x <- !x;
          x := Tech.snap_up tech (!x +. c.lib.Cell.width))
        row)
    t.row_cells;
  t

let row_pitch t r = t.row_height +. t.row_gaps.(r)

let row_top t r =
  let y = ref 0.0 in
  for i = 0 to r - 1 do
    y := !y +. row_pitch t i
  done;
  !y

let right_edge acc c = Float.max acc (c.x +. c.lib.Cell.width)

let row_width t = Array.fold_left right_edge 0.0 t.cells

let row_extent t r =
  Array.fold_left (fun acc ci -> right_edge acc t.cells.(ci)) 0.0 t.row_cells.(r)

let row_extents t = Array.init t.n_rows (row_extent t)

let pin_x t ni side =
  let e = t.nets.(ni) in
  match side with
  | `Src ->
      let c = t.cells.(e.src) in
      c.x +. c.lib.Cell.out_pins.(e.src_pin)
  | `Dst ->
      let c = t.cells.(e.dst) in
      let pins = c.lib.Cell.in_pins in
      c.x +. pins.(e.dst_pin mod Array.length pins)

let net_dx t e =
  let sc = t.cells.(e.src) and dc = t.cells.(e.dst) in
  let xs = sc.x +. sc.lib.Cell.out_pins.(e.src_pin) in
  let pins = dc.lib.Cell.in_pins in
  let xd = dc.x +. pins.(e.dst_pin mod Array.length pins) in
  xd -. xs

(* driver bottom edge to sink top edge *)
let dy_between top t e =
  let sc = t.cells.(e.src) and dc = t.cells.(e.dst) in
  let y_src = top sc.row +. sc.lib.Cell.height in
  let y_dst = top dc.row in
  Float.max 0.0 (y_dst -. y_src)

let net_dy t e = dy_between (row_top t) t e

(* the running sum adds the pitches in [row_top]'s order, so every top
   is the same float [row_top] returns *)
let net_dys t =
  let tops = Array.make (t.n_rows + 1) 0.0 in
  for r = 0 to t.n_rows - 1 do
    tops.(r + 1) <- tops.(r) +. row_pitch t r
  done;
  Array.map (dy_between (Array.get tops) t) t.nets

let net_length t e = Float.abs (net_dx t e) +. net_dy t e

(* Placement optimizes x only (rows are fixed by clocking), so the
   reported HPWL is the horizontal span, like the paper's Table III. *)
let hpwl t = Array.fold_left (fun acc e -> acc +. Float.abs (net_dx t e)) 0.0 t.nets

let timing_cost t ?(alpha = 2.0) () =
  let w = row_width t in
  (* hot inside the detailed-placement sweeps: map-reduce over fixed
     net chunks, partial sums combined left-to-right so the value does
     not depend on the domain count *)
  let parts =
    Parallel.map_chunks ~label:"place.timing" ~chunk:2048 ~n:(Array.length t.nets)
      (fun lo hi ->
        let acc = ref 0.0 in
        for i = lo to hi - 1 do
          let e = t.nets.(i) in
          let sc = t.cells.(e.src) in
          let xs = sc.x +. sc.lib.Cell.out_pins.(e.src_pin) in
          let dc = t.cells.(e.dst) in
          let pins = dc.lib.Cell.in_pins in
          let xd = dc.x +. pins.(e.dst_pin mod Array.length pins) in
          acc :=
            !acc
            +. Clocking.timing_cost ~row_width:w ~phase:sc.row
                 ~x_start:xs ~x_end:xd ~alpha
        done;
        !acc)
  in
  Array.fold_left ( +. ) 0.0 parts

let max_net_length t =
  Array.fold_left (fun acc e -> Float.max acc (net_length t e)) 0.0 t.nets

let buffer_lines t =
  let w_max = t.tech.Tech.w_max in
  let worst = Array.make (max 1 (t.n_rows - 1)) 0.0 in
  Array.iter
    (fun e ->
      let r = t.cells.(e.src).row in
      if r < Array.length worst then
        worst.(r) <- Float.max worst.(r) (net_length t e))
    t.nets;
  Array.fold_left
    (fun acc lmax -> acc + max 0 (int_of_float (ceil (lmax /. w_max)) - 1))
    0 worst

let check_legal t =
  let problems = ref [] in
  let push fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  Array.iteri
    (fun r row ->
      let sorted = Array.copy row in
      Array.sort (fun a b -> Float.compare t.cells.(a).x t.cells.(b).x) sorted;
      for i = 0 to Array.length sorted - 2 do
        let a = t.cells.(sorted.(i)) and b = t.cells.(sorted.(i + 1)) in
        let gap = b.x -. (a.x +. a.lib.Cell.width) in
        if gap < -1e-6 then push "row %d: cells %d/%d overlap (gap %.1f)" r a.node b.node gap
        else if gap > 1e-6 && gap < t.tech.Tech.s_min -. 1e-6 then
          push "row %d: cells %d/%d spacing %.1f < s_min" r a.node b.node gap
      done;
      Array.iter
        (fun ci ->
          let c = t.cells.(ci) in
          if not (Tech.on_grid t.tech c.x) then push "cell %d off grid (%.2f)" c.node c.x;
          if c.x < -1e-6 then push "cell %d negative x" c.node)
        row)
    t.row_cells;
  match List.rev !problems with
  | [] -> Ok ()
  | [ p ] -> Error p
  | first :: rest ->
      Error (Printf.sprintf "%s (and %d more)" first (List.length rest))

let cell_nets t =
  let m = Array.make (Array.length t.cells) [] in
  Array.iteri
    (fun ni e ->
      m.(e.src) <- ni :: m.(e.src);
      if e.dst <> e.src then m.(e.dst) <- ni :: m.(e.dst))
    t.nets;
  m

let copy_positions t = Array.map (fun c -> c.x) t.cells

let restore_positions t xs = Array.iteri (fun i c -> c.x <- xs.(i)) t.cells

let jj_count t =
  Array.fold_left (fun acc c -> acc + c.lib.Cell.jj_count) 0 t.cells

let pp_summary ppf t =
  Format.fprintf ppf "cells=%d nets=%d rows=%d width=%.0fum hpwl=%.0fum"
    (Array.length t.cells) (Array.length t.nets) t.n_rows (row_width t) (hpwl t)
