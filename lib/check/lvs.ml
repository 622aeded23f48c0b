(* LVS-lite: extract connectivity back from the drawn geometry and
   diff it against the netlist's fan-in edges.

   Geometry nodes are quantized (point, layer) pairs. Wires connect
   their two endpoints on their own layer; vias connect the two
   routing layers at one point; a cell pin is a terminal connecting
   both layers at the pin coordinate (a wire may land on a pin on
   either layer). Net labels carried by the wires are deliberately
   ignored — only geometry speaks. *)

let layer_m1 = 10
let layer_m2 = 11

(* 1 nm quantization via the shared sf_geom snap: route endpoints equal
   pin coordinates to within the router's 1e-6 um tolerance, far inside
   one quantum *)
let quant = Igeom.of_um

type pinset = { mutable srcs : int list; mutable dsts : int list }

let check p layout =
  let nets = p.Problem.nets in
  let n_nets = Array.length nets in
  (* intern quantized (x, y, layer) keys *)
  let ids : (int * int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let next = ref 0 in
  let intern key =
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add ids key i;
        i
  in
  let key_of pt layer = (quant pt.Geom.x, quant pt.Geom.y, layer) in
  (* pass 1: intern every geometry node *)
  let wire_keys =
    Array.map
      (fun w -> (intern (key_of w.Layout.a w.Layout.layer),
                 intern (key_of w.Layout.b w.Layout.layer)))
      layout.Layout.wires
  in
  let via_keys =
    Array.map
      (fun v -> (intern (key_of v.Layout.at layer_m1),
                 intern (key_of v.Layout.at layer_m2)))
      layout.Layout.vias
  in
  (* pin coordinates, computed exactly as the router does: a driver
     pin sits on its cell's bottom edge, a sink pin on the top edge *)
  let pin_point ni side =
    let e = nets.(ni) in
    match side with
    | `Src ->
        let c = p.Problem.cells.(e.Problem.src) in
        ( Problem.pin_x p ni `Src,
          Problem.row_top p c.Problem.row +. c.Problem.lib.Cell.height )
    | `Dst ->
        let c = p.Problem.cells.(e.Problem.dst) in
        (Problem.pin_x p ni `Dst, Problem.row_top p c.Problem.row)
  in
  let pin_keys side =
    Array.init n_nets (fun ni ->
        let x, y = pin_point ni side in
        let a = intern (quant x, quant y, layer_m1) in
        let b = intern (quant x, quant y, layer_m2) in
        (a, b))
  in
  let src_keys = pin_keys `Src and dst_keys = pin_keys `Dst in
  (* pass 2: stitch *)
  let uf = Union_find.create !next in
  Array.iter (fun (a, b) -> Union_find.union uf a b) wire_keys;
  Array.iter (fun (a, b) -> Union_find.union uf a b) via_keys;
  Array.iter (fun (a, b) -> Union_find.union uf a b) src_keys;
  Array.iter (fun (a, b) -> Union_find.union uf a b) dst_keys;
  (* pass 3: component summaries *)
  let comp : (int, pinset) Hashtbl.t = Hashtbl.create 256 in
  let pins_of root =
    match Hashtbl.find_opt comp root with
    | Some ps -> ps
    | None ->
        let ps = { srcs = []; dsts = [] } in
        Hashtbl.add comp root ps;
        ps
  in
  let src_root = Array.map (fun (a, _) -> Union_find.find uf a) src_keys in
  let dst_root = Array.map (fun (a, _) -> Union_find.find uf a) dst_keys in
  Array.iteri (fun ni r -> (pins_of r).srcs <- ni :: (pins_of r).srcs) src_root;
  Array.iteri (fun ni r -> (pins_of r).dsts <- ni :: (pins_of r).dsts) dst_root;
  Hashtbl.iter
    (fun _ ps ->
      ps.srcs <- List.rev ps.srcs;
      ps.dsts <- List.rev ps.dsts)
    comp;
  (* per-component pin count and lowest involved net (for single-shot
     short reporting) *)
  let npins = Array.make !next 0 in
  let minnet = Array.make !next max_int in
  Hashtbl.iter
    (fun root ps ->
      npins.(root) <- List.length ps.srcs + List.length ps.dsts;
      List.iter (fun ni -> minnet.(root) <- min minnet.(root) ni) ps.srcs;
      List.iter (fun ni -> minnet.(root) <- min minnet.(root) ni) ps.dsts)
    comp;
  let comp_dsts = Array.make !next [] in
  let comp_all = Array.make !next [] in
  Hashtbl.iter
    (fun root ps ->
      comp_dsts.(root) <- ps.dsts;
      comp_all.(root) <- List.sort_uniq Int.compare (ps.srcs @ ps.dsts))
    comp;
  let node_of ni side =
    let e = nets.(ni) in
    let ci = match side with `Src -> e.Problem.src | `Dst -> e.Problem.dst in
    p.Problem.cells.(ci).Problem.node
  in
  (* pass 4: per-edge classification, in net-index order *)
  let edge_diags =
    let ds = ref [] in
    let push d = ds := d :: !ds in
    for ni = 0 to n_nets - 1 do
      let rs = src_root.(ni) and rd = dst_root.(ni) in
      (* short components report once, at their lowest net index *)
      let report_short root =
        if npins.(root) > 2 && minnet.(root) = ni then
          push
            (Diag.error ~rule:"LVS-SHORT-01" (Diag.Net ni)
               "drawn geometry shorts %d pins together (nets %s)"
               npins.(root)
               (String.concat ", "
                  (List.map string_of_int comp_all.(root))))
      in
      report_short rs;
      if rd <> rs then report_short rd;
      (* open/swap classification, suppressed on shorted nets to
         avoid cascading reports *)
      if npins.(rs) <= 2 && npins.(rd) <= 2 && rs <> rd then begin
        match List.filter (fun nj -> nj <> ni) comp_dsts.(rs) with
        | nj :: _ ->
            push
              (Diag.error ~rule:"LVS-SWAP-01" (Diag.Net ni)
                 "driver of node %d is wired to the sink of net %d \
                  (node %d) instead of node %d"
                 (node_of ni `Src) nj (node_of nj `Dst) (node_of ni `Dst))
        | [] ->
            push
              (Diag.error ~rule:"LVS-OPEN-01" (Diag.Net ni)
                 "no drawn connection from driver node %d to sink node %d"
                 (node_of ni `Src) (node_of ni `Dst))
      end
    done;
    List.rev !ds
  in
  (* floating geometry: components with wires but no pins *)
  let wire_root = Array.map (fun (a, _) -> Union_find.find uf a) wire_keys in
  let seen = Hashtbl.create 64 in
  let floats = ref [] in
  Array.iteri
    (fun wi root ->
      if npins.(root) = 0 && not (Hashtbl.mem seen root) then begin
        Hashtbl.add seen root ();
        let w = layout.Layout.wires.(wi) in
        floats :=
          Diag.warning ~rule:"LVS-FLOAT-01"
            (Diag.At (w.Layout.a.Geom.x, w.Layout.a.Geom.y))
            "drawn wires touch no pin (floating geometry)"
          :: !floats
      end)
    wire_root;
  edge_diags @ List.rev !floats
