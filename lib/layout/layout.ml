type placed_cell = {
  lib : Cell.t;
  node : int;
  name : string option;
  origin : Geom.point;
}

type wire = { net : int; layer : int; a : Geom.point; b : Geom.point }

type via = { net : int; at : Geom.point }

type t = {
  tech : Tech.t;
  cells : placed_cell array;
  wires : wire array;
  vias : via array;
  bias : wire array;  (* clock/power distribution: two AC serpentines
                         and a DC trunk (paper Fig. 2) *)
  die : Geom.rect;
}

let wire_width = 2.0

let layer_outline = 1
let layer_jj = 2
let layer_pin = 3
let layer_m1 = 10
let layer_m2 = 11
let layer_via = 12
let layer_label = 20
let layer_ac1 = 21
let layer_ac2 = 22
let layer_dc = 23

(* The four-phase excitation (paper Fig. 2): every row carries both AC
   bias lines; each line snakes to the next row at alternating ends,
   and one DC trunk runs down the right edge. *)
let build_bias p =
  let width = Problem.row_width p +. 40.0 in
  let bias = ref [] in
  let add net layer x1 y1 x2 y2 =
    bias := { net; layer; a = Geom.pt x1 y1; b = Geom.pt x2 y2 } :: !bias
  in
  let line_y r frac = Problem.row_top p r +. (frac *. p.Problem.row_height) in
  for r = 0 to p.Problem.n_rows - 1 do
    let y1 = line_y r (1.0 /. 3.0) and y2 = line_y r (2.0 /. 3.0) in
    add (-1) layer_ac1 0.0 y1 width y1;
    add (-2) layer_ac2 0.0 y2 width y2;
    if r + 1 < p.Problem.n_rows then begin
      (* serpentine hop to the next row at alternating ends *)
      let x = if r mod 2 = 0 then width else 0.0 in
      add (-1) layer_ac1 x y1 x (line_y (r + 1) (1.0 /. 3.0));
      add (-2) layer_ac2 x y2 x (line_y (r + 1) (2.0 /. 3.0))
    end
  done;
  (* DC trunk along the right edge *)
  let y_top = 0.0 and y_bot = Problem.row_top p (p.Problem.n_rows - 1) +. p.Problem.row_height in
  add (-3) layer_dc (width +. 20.0) y_top (width +. 20.0) y_bot;
  Array.of_list (List.rev !bias)

let build p (routed : Router.result) =
  let cells =
    Array.map
      (fun c ->
        {
          lib = c.Problem.lib;
          node = c.Problem.node;
          name = None;
          origin =
            Geom.pt c.Problem.x (Problem.row_top p c.Problem.row);
        })
      p.Problem.cells
  in
  let wires = ref [] and vias = ref [] in
  Array.iter
    (fun rt ->
      let rec segments = function
        | (x1, y1) :: ((x2, y2) :: tail as rest) ->
            let layer = if y1 = y2 then layer_m1 else layer_m2 in
            wires :=
              { net = rt.Router.net; layer; a = Geom.pt x1 y1; b = Geom.pt x2 y2 }
              :: !wires;
            (match tail with
            | (_, y3) :: _ ->
                (* interior corner: layer change -> via *)
                if (y1 = y2) <> (y2 = y3) then
                  vias := { net = rt.Router.net; at = Geom.pt x2 y2 } :: !vias
            | [] -> ());
            segments rest
        | _ -> ()
      in
      segments rt.Router.points)
    routed.Router.routes;
  let die =
    Array.fold_left
      (fun acc c ->
        Geom.union_rect acc
          (Geom.rect_of_size ~x:c.origin.Geom.x ~y:c.origin.Geom.y
             ~w:c.lib.Cell.width ~h:c.lib.Cell.height))
      (Geom.rect 0.0 0.0 1.0 1.0) cells
  in
  {
    tech = p.Problem.tech;
    cells;
    wires = Array.of_list !wires;
    vias = Array.of_list !vias;
    bias = build_bias p;
    die;
  }

(* one GDS structure per distinct library cell: outline, a box per
   2-JJ SQUID, and pin markers *)
let cell_structure (c : Cell.t) =
  let outline =
    Gds.Boundary
      {
        layer = layer_outline;
        points =
          [ (0.0, 0.0); (c.Cell.width, 0.0); (c.Cell.width, c.Cell.height); (0.0, c.Cell.height) ];
      }
  in
  let n_squids = c.Cell.jj_count / 2 in
  let jjs =
    List.init n_squids (fun i ->
        let pitch = c.Cell.width /. float_of_int (n_squids + 1) in
        let cx = pitch *. float_of_int (i + 1) in
        let cy = c.Cell.height /. 2.0 in
        Gds.Boundary
          {
            layer = layer_jj;
            points =
              [ (cx -. 2.0, cy -. 2.0); (cx +. 2.0, cy -. 2.0);
                (cx +. 2.0, cy +. 2.0); (cx -. 2.0, cy +. 2.0) ];
          })
  in
  let pin_box x y =
    Gds.Boundary
      {
        layer = layer_pin;
        points = [ (x -. 1.0, y -. 1.0); (x +. 1.0, y -. 1.0); (x +. 1.0, y +. 1.0); (x -. 1.0, y +. 1.0) ];
      }
  in
  let in_pins = Array.to_list (Array.map (fun px -> pin_box px 0.0) c.Cell.in_pins) in
  let out_pins =
    Array.to_list (Array.map (fun px -> pin_box px c.Cell.height) c.Cell.out_pins)
  in
  { Gds.sname = c.Cell.cell_name; elements = (outline :: jjs) @ in_pins @ out_pins }

let to_gds t =
  let used : (string, Cell.t) Hashtbl.t = Hashtbl.create 16 in
  Array.iter (fun pc -> Hashtbl.replace used pc.lib.Cell.cell_name pc.lib) t.cells;
  let cell_structs =
    Hashtbl.fold (fun _ c acc -> cell_structure c :: acc) used []
    |> List.sort (fun a b -> String.compare a.Gds.sname b.Gds.sname)
  in
  let srefs =
    Array.to_list
      (Array.map
         (fun pc ->
           Gds.Sref
             { sname = pc.lib.Cell.cell_name; x = pc.origin.Geom.x; y = pc.origin.Geom.y })
         t.cells)
  in
  let wires =
    Array.to_list
      (Array.map
         (fun w ->
           Gds.Path
             {
               layer = w.layer;
               width = wire_width;
               points = [ (w.a.Geom.x, w.a.Geom.y); (w.b.Geom.x, w.b.Geom.y) ];
             })
         t.wires)
  in
  let vias =
    Array.to_list
      (Array.map
         (fun v ->
           let x = v.at.Geom.x and y = v.at.Geom.y in
           Gds.Boundary
             {
               layer = layer_via;
               points =
                 [ (x -. 1.5, y -. 1.5); (x +. 1.5, y -. 1.5); (x +. 1.5, y +. 1.5); (x -. 1.5, y +. 1.5) ];
             })
         t.vias)
  in
  let labels =
    Array.to_list t.cells
    |> List.filter_map (fun pc ->
           match pc.name with
           | Some n ->
               Some
                 (Gds.Text
                    { layer = layer_label; x = pc.origin.Geom.x; y = pc.origin.Geom.y; text = n })
           | None -> None)
  in
  let bias =
    Array.to_list
      (Array.map
         (fun w ->
           Gds.Path
             {
               layer = w.layer;
               width = 3.0;
               points = [ (w.a.Geom.x, w.a.Geom.y); (w.b.Geom.x, w.b.Geom.y) ];
             })
         t.bias)
  in
  let top = { Gds.sname = "TOP"; elements = srefs @ wires @ vias @ bias @ labels } in
  { Gds.libname = "SUPERFLOW"; structures = cell_structs @ [ top ] }

let write_gds path t = Gds.write_file path (to_gds t)

type stats = {
  n_cells : int;
  n_wires : int;
  n_vias : int;
  total_jj : int;
  wirelength : float;
  bias_wirelength : float;
  die_area_mm2 : float;
}

let stats t =
  {
    n_cells = Array.length t.cells;
    n_wires = Array.length t.wires;
    n_vias = Array.length t.vias;
    total_jj = Array.fold_left (fun acc c -> acc + c.lib.Cell.jj_count) 0 t.cells;
    wirelength =
      Array.fold_left
        (fun acc w -> acc +. Geom.dist_manhattan w.a w.b)
        0.0 t.wires;
    bias_wirelength =
      Array.fold_left
        (fun acc w -> acc +. Geom.dist_manhattan w.a w.b)
        0.0 t.bias;
    die_area_mm2 = Geom.area t.die /. 1e6;
  }

let pp_stats ppf s =
  Format.fprintf ppf "cells=%d wires=%d vias=%d jj=%d wl=%.0fum bias=%.0fum die=%.2fmm2"
    s.n_cells s.n_wires s.n_vias s.total_jj s.wirelength s.bias_wirelength
    s.die_area_mm2
