let cell_color (c : Cell.t) =
  match c.Cell.cell_name with
  | "buf" -> "#9fc5e8"
  | "not" -> "#6fa8dc"
  | "const" -> "#cccccc"
  | "spl2" | "spl3" -> "#ffd966"
  | "maj3" -> "#e06666"
  | "and2" | "or2" | "nand2" | "nor2" | "xor2" | "xnor2" -> "#93c47d"
  | "inport" | "outport" -> "#b4a7d6"
  | _ -> "#eeeeee"

let layer_color = function
  | 10 -> "#1155cc" (* metal1, horizontal *)
  | 11 -> "#38761d" (* metal2, vertical *)
  | 21 -> "#cc0000" (* AC1 *)
  | 22 -> "#e69138" (* AC2 *)
  | 23 -> "#000000" (* DC *)
  | _ -> "#999999"

(* pixels per µm *)
let scale = 0.2

let render (t : Layout.t) =
  let die = t.Layout.die in
  (* include the bias trunk that sits right of the die *)
  let margin = 80.0 in
  let w = Geom.width die +. (2.0 *. margin) in
  let h = Geom.height die +. (2.0 *. margin) in
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"%.1f %.1f %.1f %.1f\">\n"
    (w *. scale) (h *. scale)
    (die.Geom.lx -. margin)
    (die.Geom.ly -. margin)
    w h;
  add "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"#fafafa\"/>\n"
    (die.Geom.lx -. margin)
    (die.Geom.ly -. margin)
    w h;
  (* bias first so signal geometry draws over it *)
  Array.iter
    (fun (wire : Layout.wire) ->
      add
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"3\" stroke-opacity=\"0.25\"/>\n"
        wire.Layout.a.Geom.x wire.Layout.a.Geom.y wire.Layout.b.Geom.x
        wire.Layout.b.Geom.y
        (layer_color wire.Layout.layer))
    t.Layout.bias;
  Array.iter
    (fun (pc : Layout.placed_cell) ->
      add
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\" stroke=\"#444444\" stroke-width=\"0.5\"/>\n"
        pc.Layout.origin.Geom.x pc.Layout.origin.Geom.y pc.Layout.lib.Cell.width
        pc.Layout.lib.Cell.height
        (cell_color pc.Layout.lib))
    t.Layout.cells;
  Array.iter
    (fun (wire : Layout.wire) ->
      add
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"2\"/>\n"
        wire.Layout.a.Geom.x wire.Layout.a.Geom.y wire.Layout.b.Geom.x
        wire.Layout.b.Geom.y
        (layer_color wire.Layout.layer))
    t.Layout.wires;
  Array.iter
    (fun (v : Layout.via) ->
      add "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"#000000\"/>\n"
        v.Layout.at.Geom.x v.Layout.at.Geom.y)
    t.Layout.vias;
  add "</svg>\n";
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (render t);
  close_out oc

let render_placement p =
  let margin = 40.0 in
  let width = Problem.row_width p +. (2.0 *. margin) in
  let height =
    Problem.row_top p (p.Problem.n_rows - 1) +. p.Problem.row_height +. (2.0 *. margin)
  in
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"%.1f %.1f %.1f %.1f\">\n"
    (width *. scale) (height *. scale) (-.margin) (-.margin) width height;
  add "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"#fafafa\"/>\n"
    (-.margin) (-.margin) width height;
  Array.iter
    (fun c ->
      let y = Problem.row_top p c.Problem.row in
      add
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\" stroke=\"#444444\" stroke-width=\"0.5\"/>\n"
        c.Problem.x y c.Problem.lib.Cell.width c.Problem.lib.Cell.height
        (cell_color c.Problem.lib))
    p.Problem.cells;
  add "</svg>\n";
  Buffer.contents buf
