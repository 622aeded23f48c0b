type component = {
  comp_name : string;
  comp_cell : string;
  comp_x : float;
  comp_y : float;
}

type routed_segment = { seg_layer : string; seg_points : (float * float) list }

type def_net = {
  net_name : string;
  net_pins : (string * string) list;
  net_route : routed_segment list;
}

type t = {
  design : string;
  die : Geom.rect;
  components : component list;
  nets : def_net list;
}

let dbu = 1000.0

let of_design p (routed : Router.result) =
  let comp_name ci = Printf.sprintf "c%d" p.Problem.cells.(ci).Problem.node in
  let components =
    Array.to_list
      (Array.mapi
         (fun ci c ->
           {
             comp_name = comp_name ci;
             comp_cell = c.Problem.lib.Cell.cell_name;
             comp_x = c.Problem.x;
             comp_y = Problem.row_top p c.Problem.row;
           })
         p.Problem.cells)
  in
  let nets =
    Array.to_list
      (Array.mapi
         (fun ni e ->
           let route = routed.Router.routes.(ni) in
           (* split polyline into per-direction segments like DEF's
              NEW-layer continuations *)
           let rec segs = function
             | (x1, y1) :: ((x2, y2) :: _ as rest) ->
                 let layer = if y1 = y2 then "metal1" else "metal2" in
                 { seg_layer = layer; seg_points = [ (x1, y1); (x2, y2) ] } :: segs rest
             | _ -> []
           in
           {
             net_name = Printf.sprintf "n%d" ni;
             net_pins =
               [
                 (comp_name e.Problem.src, Printf.sprintf "out%d" e.Problem.src_pin);
                 (comp_name e.Problem.dst, Printf.sprintf "in%d" e.Problem.dst_pin);
               ];
             net_route = segs route.Router.points;
           })
         p.Problem.nets)
  in
  let die =
    Geom.rect 0.0 0.0
      (Float.max 1.0 (Problem.row_width p))
      (Float.max 1.0 (Problem.row_top p (p.Problem.n_rows - 1) +. p.Problem.row_height))
  in
  { design = "superflow"; die; components; nets }

let coord x = string_of_int (int_of_float (Float.round (x *. dbu)))

let to_string t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "VERSION 5.8 ;\n";
  add "DESIGN %s ;\n" t.design;
  add "UNITS DISTANCE MICRONS %d ;\n" (int_of_float dbu);
  add "DIEAREA ( %s %s ) ( %s %s ) ;\n" (coord t.die.Geom.lx) (coord t.die.Geom.ly)
    (coord t.die.Geom.hx) (coord t.die.Geom.hy);
  add "COMPONENTS %d ;\n" (List.length t.components);
  List.iter
    (fun c ->
      add "- %s %s + PLACED ( %s %s ) N ;\n" c.comp_name c.comp_cell (coord c.comp_x)
        (coord c.comp_y))
    t.components;
  add "END COMPONENTS\n";
  add "NETS %d ;\n" (List.length t.nets);
  List.iter
    (fun n ->
      add "- %s" n.net_name;
      List.iter (fun (c, pin) -> add " ( %s %s )" c pin) n.net_pins;
      add "\n";
      List.iteri
        (fun i s ->
          add "  %s %s" (if i = 0 then "+ ROUTED" else "  NEW") s.seg_layer;
          List.iter (fun (x, y) -> add " ( %s %s )" (coord x) (coord y)) s.seg_points;
          add "\n")
        n.net_route;
      add " ;\n")
    t.nets;
  add "END NETS\n";
  add "END DESIGN\n";
  Buffer.contents buf

(* ---- parser ---- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let tokens_of_string s =
  String.split_on_char '\n' s
  |> List.concat_map (fun line ->
         String.split_on_char ' ' line |> List.filter (fun t -> t <> ""))

let of_string source =
  try
    let toks = ref (tokens_of_string source) in
    let peek () = match !toks with [] -> "" | t :: _ -> t in
    let next () =
      match !toks with
      | [] -> fail "unexpected end of file"
      | t :: rest ->
          toks := rest;
          t
    in
    let expect t =
      let got = next () in
      if got <> t then fail "expected %S, got %S" t got
    in
    let num () =
      let t = next () in
      match int_of_string_opt t with
      | Some v -> v
      | None -> fail "expected number, got %S" t
    in
    let micron_scale = ref dbu in
    let um () = float_of_int (num ()) /. !micron_scale in
    let paren_pair () =
      expect "(";
      let x = um () in
      let y = um () in
      expect ")";
      (x, y)
    in
    expect "VERSION";
    let _version = next () in
    expect ";";
    expect "DESIGN";
    let design = next () in
    expect ";";
    expect "UNITS";
    expect "DISTANCE";
    expect "MICRONS";
    micron_scale := float_of_int (num ());
    expect ";";
    expect "DIEAREA";
    let lx, ly = paren_pair () in
    let hx, hy = paren_pair () in
    expect ";";
    expect "COMPONENTS";
    let n_comps = num () in
    expect ";";
    let components = ref [] in
    for _ = 1 to n_comps do
      expect "-";
      let comp_name = next () in
      let comp_cell = next () in
      expect "+";
      expect "PLACED";
      let comp_x, comp_y = paren_pair () in
      expect "N";
      expect ";";
      components := { comp_name; comp_cell; comp_x; comp_y } :: !components
    done;
    expect "END";
    expect "COMPONENTS";
    expect "NETS";
    let n_nets = num () in
    expect ";";
    let nets = ref [] in
    for _ = 1 to n_nets do
      expect "-";
      let net_name = next () in
      let pins = ref [] in
      while peek () = "(" do
        expect "(";
        let c = next () in
        let pin = next () in
        expect ")";
        pins := (c, pin) :: !pins
      done;
      let route = ref [] in
      let read_segment () =
        let seg_layer = next () in
        let points = ref [] in
        while peek () = "(" do
          points := paren_pair () :: !points
        done;
        route := { seg_layer; seg_points = List.rev !points } :: !route
      in
      if peek () = "+" then begin
        expect "+";
        expect "ROUTED";
        read_segment ();
        while peek () = "NEW" do
          expect "NEW";
          read_segment ()
        done
      end;
      expect ";";
      nets :=
        { net_name; net_pins = List.rev !pins; net_route = List.rev !route }
        :: !nets
    done;
    expect "END";
    expect "NETS";
    expect "END";
    expect "DESIGN";
    Ok
      {
        design;
        die = Geom.rect lx ly hx hy;
        components = List.rev !components;
        nets = List.rev !nets;
      }
  with
  | Bad msg -> Error msg
  | Invalid_argument msg -> Error msg

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let read_file path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    of_string content
  with Sys_error msg -> Error msg

let apply_placement p def =
  (* index problem cells by their DEF component name *)
  let by_name = Hashtbl.create 256 in
  Array.iter
    (fun c -> Hashtbl.replace by_name (Printf.sprintf "c%d" c.Problem.node) c)
    p.Problem.cells;
  let placed = ref 0 in
  let err = ref None in
  List.iter
    (fun comp ->
      if !err = None then
        match Hashtbl.find_opt by_name comp.comp_name with
        | None -> err := Some (Printf.sprintf "unknown component %s" comp.comp_name)
        | Some c ->
            if comp.comp_cell <> c.Problem.lib.Cell.cell_name then
              err :=
                Some
                  (Printf.sprintf "component %s is a %s here, %s in the DEF"
                     comp.comp_name c.Problem.lib.Cell.cell_name comp.comp_cell)
            else begin
              c.Problem.x <- comp.comp_x;
              incr placed
            end)
    def.components;
  match !err with Some e -> Error e | None -> Ok !placed
