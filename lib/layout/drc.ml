(* Tile-incremental, exact-integer DRC. See drc.mli for the rule list
   and the caching contract; docs/ARCHITECTURE.md for the tile/halo
   soundness argument. *)

type deck = {
  spacing : int;
  notch : int;
  min_width : int;
  min_area : int;
  eol : int;
  cell_spacing : int;
  zigzag : int;
  via_cut : int;
  via_enclosure : int;
  grid : int;
  max_density : float;
  density_window : int;
  tile : int;
}

let half_width = Igeom.of_um Layout.wire_width / 2

let deck_of_tech (tech : Tech.t) =
  let s_min = Igeom.of_um tech.Tech.s_min in
  let w = 2 * half_width in
  {
    spacing = s_min - w;
    notch = s_min - w;
    min_width = w;
    (* the smallest drawable shape (a degenerate segment's endcap
       square) sits exactly at the limit *)
    min_area = w * w;
    eol = s_min - w;
    cell_spacing = s_min;
    zigzag = s_min;
    via_cut = 500;
    via_enclosure = 500;
    grid = Igeom.of_um tech.Tech.grid;
    max_density = 0.9;
    density_window = 200 * Igeom.nm_per_um;
    tile = 120 * Igeom.nm_per_um;
  }

type stats = {
  tiles_total : int;
  tiles_checked : int;
  tiles_cached : int;
  density_cached : bool;
}

type report = { diags : Diag.t list; stats : stats }

(* ---- shape extraction (µm floats -> nm ints, once) ---- *)

type kind = Kcell | Kwire | Kvia

type shape = {
  kind : kind;
  layer : int;
  net : int; (* cells: node id *)
  r : Igeom.irect; (* drawn extent; wires include square endcaps *)
  ax : int;
  ay : int; (* wire endpoint a / via center / cell origin *)
  bx : int;
  by : int; (* wire endpoint b (= a for cells and vias) *)
}

let extract d (t : Layout.t) =
  let nm = Igeom.of_um in
  let cells =
    Array.map
      (fun (pc : Layout.placed_cell) ->
        let x = nm pc.Layout.origin.Geom.x and y = nm pc.Layout.origin.Geom.y in
        let w = nm pc.Layout.lib.Cell.width and h = nm pc.Layout.lib.Cell.height in
        {
          kind = Kcell;
          layer = Layout.layer_outline;
          net = pc.Layout.node;
          r = { Igeom.lx = x; ly = y; hx = x + w; hy = y + h };
          ax = x;
          ay = y;
          bx = x;
          by = y;
        })
      t.Layout.cells
  in
  let wires =
    Array.map
      (fun (w : Layout.wire) ->
        let ax = nm w.Layout.a.Geom.x and ay = nm w.Layout.a.Geom.y in
        let bx = nm w.Layout.b.Geom.x and by = nm w.Layout.b.Geom.y in
        {
          kind = Kwire;
          layer = w.Layout.layer;
          net = w.Layout.net;
          r =
            {
              Igeom.lx = min ax bx - half_width;
              ly = min ay by - half_width;
              hx = max ax bx + half_width;
              hy = max ay by + half_width;
            };
          ax;
          ay;
          bx;
          by;
        })
      t.Layout.wires
  in
  let vias =
    Array.map
      (fun (v : Layout.via) ->
        let x = nm v.Layout.at.Geom.x and y = nm v.Layout.at.Geom.y in
        {
          kind = Kvia;
          layer = Layout.layer_via;
          net = v.Layout.net;
          r =
            {
              Igeom.lx = x - d.via_cut;
              ly = y - d.via_cut;
              hx = x + d.via_cut;
              hy = y + d.via_cut;
            };
          ax = x;
          ay = y;
          bx = x;
          by = y;
        })
      t.Layout.vias
  in
  Array.concat [ cells; wires; vias ]

(* shapes compare structurally = by content, never by input position;
   everything downstream (pair order, messages, tile hashes) depends
   only on content, which is what makes tile verdicts cacheable *)
let sort_shapes a =
  let a = Array.copy a in
  (* the whole point is structural order over the full shape record.
     sl-ignore: SL-POLY-01 every field compares structurally, no floats *)
  Array.sort Stdlib.compare a;
  a

(* ---- rule emitters (shared verbatim by engine and brute force) ---- *)

let um = Igeom.um_str

let at px py = Diag.At (Igeom.to_um px, Igeom.to_um py)

let layer_str l =
  if l = Layout.layer_m1 then "m1"
  else if l = Layout.layer_m2 then "m2"
  else Printf.sprintf "layer%d" l

let rect_str (r : Igeom.irect) =
  Printf.sprintf "[%s,%s %s,%s]" (um r.Igeom.lx) (um r.Igeom.ly) (um r.Igeom.hx)
    (um r.Igeom.hy)

let wit s =
  match s.kind with
  | Kcell -> Printf.sprintf "cell %d %s" s.net (rect_str s.r)
  | Kwire -> Printf.sprintf "net %d %s %s" s.net (layer_str s.layer) (rect_str s.r)
  | Kvia -> Printf.sprintf "net %d via %s" s.net (rect_str s.r)

(* [a] precedes [b] in content order. Every emitted triple carries the
   violation's canonical nm point, which the tiled engine uses for
   ownership. *)
let pair_diags d a b push =
  match (a.kind, b.kind) with
  | Kcell, Kcell ->
      let px, py = Igeom.approach a.r b.r in
      if Igeom.overlaps a.r b.r then
        push
          ( px,
            py,
            Diag.error ~rule:"DRC-CELL-OVERLAP" ~witness:[ wit a; wit b ]
              (at px py) "cells %d/%d overlap" a.net b.net )
      else
        let gx = Igeom.gap_x a.r b.r and gy = Igeom.gap_y a.r b.r in
        if gy = 0 && gx > 0 && gx < d.cell_spacing then
          push
            ( px,
              py,
              Diag.error ~rule:"DRC-CELL-SPACING" ~witness:[ wit a; wit b ]
                (at px py) "cells %d/%d gap %sum < s_min %sum" a.net b.net
                (um gx) (um d.cell_spacing) )
  | Kwire, Kwire when a.layer = b.layer ->
      let px, py = Igeom.approach a.r b.r in
      if a.net <> b.net then begin
        if Igeom.overlaps a.r b.r then
          push
            ( px,
              py,
              Diag.error ~rule:"DRC-WIRE-OVERLAP" ~witness:[ wit a; wit b ]
                (at px py) "nets %d/%d short: %s metal overlaps" a.net b.net
                (layer_str a.layer) )
        else if Igeom.sep2 a.r b.r < d.spacing * d.spacing then
          push
            ( px,
              py,
              Diag.error ~rule:"DRC-WIRE-SPACING" ~witness:[ wit a; wit b ]
                (at px py) "nets %d/%d %.3fum apart (< %sum)" a.net b.net
                (sqrt (float_of_int (Igeom.sep2 a.r b.r)) /. 1000.0)
                (um d.spacing) )
      end
      else if
        (not (Igeom.touches a.r b.r)) && Igeom.sep2 a.r b.r < d.notch * d.notch
      then
        push
          ( px,
            py,
            Diag.error ~rule:"DRC-NOTCH-01" ~witness:[ wit a; wit b ] (at px py)
              "net %d notch %.3fum < %sum" a.net
              (sqrt (float_of_int (Igeom.sep2 a.r b.r)) /. 1000.0)
              (um d.notch) )
  | _ -> ()

(* neighbourhood oracles: the tiled engine answers from tile-local
   indexes, the brute-force reference from naive global scans *)
type view = {
  wire_layers_at : int -> int -> int -> int list; (* net x y -> layers *)
  via_at : int -> int -> int -> bool;
  wires_near : int -> Igeom.irect -> shape list; (* layer probe -> content order *)
}

let shape_diags d view s push =
  let off_grid x y = not (Igeom.on_grid ~grid:d.grid x && Igeom.on_grid ~grid:d.grid y) in
  match s.kind with
  | Kcell ->
      if off_grid s.ax s.ay then
        push
          ( s.ax,
            s.ay,
            Diag.error ~rule:"DRC-OFF-GRID" ~witness:[ wit s ] (at s.ax s.ay)
              "cell %d origin off the %sum grid" s.net (um d.grid) )
  | Kvia ->
      let layers = view.wire_layers_at s.net s.ax s.ay in
      if List.length layers < 2 then
        push
          ( s.ax,
            s.ay,
            Diag.error ~rule:"DRC-VIA-ALIGNMENT" ~witness:[ wit s ]
              (at s.ax s.ay) "net %d via does not join two layers" s.net );
      List.iter
        (fun l ->
          let req = Igeom.expand s.r d.via_enclosure in
          let covers =
            view.wires_near l req
            |> List.filter (fun w -> w.net = s.net)
            |> List.map (fun w -> w.r)
          in
          if not (Igeom.covered req covers) then
            push
              ( s.ax,
                s.ay,
                Diag.error ~rule:"DRC-VIA-ENCLOSE-01" ~witness:[ wit s ]
                  (at s.ax s.ay)
                  "net %d via cut not enclosed by %s metal (%sum margin)" s.net
                  (layer_str l) (um d.via_enclosure) ))
        [ Layout.layer_m1; Layout.layer_m2 ]
  | Kwire ->
      List.iter
        (fun (x, y) ->
          if off_grid x y then
            push
              ( x,
                y,
                Diag.error ~rule:"DRC-OFF-GRID" ~witness:[ wit s ] (at x y)
                  "net %d wire endpoint off grid" s.net ))
        (List.sort_uniq
           (fun (x1, y1) (x2, y2) ->
             match Int.compare x1 x2 with 0 -> Int.compare y1 y2 | c -> c)
           [ (s.ax, s.ay); (s.bx, s.by) ]);
      let cx = (s.r.Igeom.lx + s.r.Igeom.hx) / 2
      and cy = (s.r.Igeom.ly + s.r.Igeom.hy) / 2 in
      let wmin = min (Igeom.width s.r) (Igeom.height s.r) in
      if wmin < d.min_width then
        push
          ( cx,
            cy,
            Diag.error ~rule:"DRC-WIDTH-01" ~witness:[ wit s ] (at cx cy)
              "net %d drawn width %sum < %sum" s.net (um wmin) (um d.min_width)
          );
      if Igeom.area s.r < d.min_area then
        push
          ( cx,
            cy,
            Diag.error ~rule:"DRC-AREA-01" ~witness:[ wit s ] (at cx cy)
              "net %d shape area %.3fum2 below minimum" s.net
              (float_of_int (Igeom.area s.r) /. 1e6) );
      let len = abs (s.bx - s.ax) + abs (s.by - s.ay) in
      if
        len > 0 && len < d.zigzag
        && view.via_at s.net s.ax s.ay
        && view.via_at s.net s.bx s.by
      then
        push
          ( s.ax,
            s.ay,
            Diag.error ~rule:"DRC-ZIGZAG-SPACING" ~witness:[ wit s ]
              (at s.ax s.ay) "net %d bend-to-bend run %sum < s_min" s.net
              (um len) );
      (* end-of-line: foreign same-layer metal in the extension region
         ahead of each endcap *)
      let horiz = s.ay = s.by and vert = s.ax = s.bx in
      if horiz <> vert then begin
        let r = s.r in
        let ends =
          if horiz then
            [
              ( (max s.ax s.bx, s.ay),
                { r with Igeom.lx = r.Igeom.hx; hx = r.Igeom.hx + d.eol } );
              ( (min s.ax s.bx, s.ay),
                { r with Igeom.lx = r.Igeom.lx - d.eol; hx = r.Igeom.lx } );
            ]
          else
            [
              ( (s.ax, max s.ay s.by),
                { r with Igeom.ly = r.Igeom.hy; hy = r.Igeom.hy + d.eol } );
              ( (s.ax, min s.ay s.by),
                { r with Igeom.ly = r.Igeom.ly - d.eol; hy = r.Igeom.ly } );
            ]
        in
        List.iter
          (fun ((ex, ey), probe) ->
            view.wires_near s.layer probe
            |> List.iter (fun o ->
                   if o.net <> s.net && Igeom.overlaps o.r probe then
                     push
                       ( ex,
                         ey,
                         Diag.error ~rule:"DRC-EOL-01" ~witness:[ wit s; wit o ]
                           (at ex ey)
                           "net %d line end sees net %d metal within %sum" s.net
                           o.net (um d.eol) )))
          ends
      end

(* ---- oracle construction ---- *)

let endpoint_tables shapes =
  let ends : (int * int * int, int list) Hashtbl.t = Hashtbl.create 256 in
  let vias : (int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      match s.kind with
      | Kwire ->
          List.iter
            (fun k ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt ends k) in
              Hashtbl.replace ends k (s.layer :: cur))
            [ (s.net, s.ax, s.ay); (s.net, s.bx, s.by) ]
      | Kvia -> Hashtbl.replace vias (s.net, s.ax, s.ay) ()
      | Kcell -> ())
    shapes;
  let wire_layers_at net x y =
    Option.value ~default:[] (Hashtbl.find_opt ends (net, x, y))
    |> List.sort_uniq Int.compare
  in
  let via_at net x y = Hashtbl.mem vias (net, x, y) in
  (wire_layers_at, via_at)

(* the engine's view: interval-stabbing over the x-extents of each
   routing layer's wires, y filtered exactly *)
let tile_view (shapes : shape array) =
  let wire_layers_at, via_at = endpoint_tables shapes in
  let tree_of layer =
    let idxs = ref [] in
    Array.iteri
      (fun i s -> if s.kind = Kwire && s.layer = layer then idxs := i :: !idxs)
      shapes;
    let idxs = Array.of_list (List.rev !idxs) in
    let tree =
      Stab.build
        (Array.map (fun i -> (shapes.(i).r.Igeom.lx, shapes.(i).r.Igeom.hx)) idxs)
    in
    (idxs, tree)
  in
  let m1 = tree_of Layout.layer_m1 and m2 = tree_of Layout.layer_m2 in
  let wires_near layer (probe : Igeom.irect) =
    let idxs, tree =
      if layer = Layout.layer_m1 then m1
      else if layer = Layout.layer_m2 then m2
      else tree_of layer
    in
    let hits = ref [] in
    Stab.query tree probe.Igeom.lx probe.Igeom.hx (fun k ->
        let i = idxs.(k) in
        let r = shapes.(i).r in
        if r.Igeom.ly <= probe.Igeom.hy && r.Igeom.hy >= probe.Igeom.ly then
          hits := i :: !hits);
    List.sort Int.compare !hits |> List.map (fun i -> shapes.(i))
  in
  { wire_layers_at; via_at; wires_near }

let naive_view (shapes : shape array) =
  let wire_layers_at, via_at = endpoint_tables shapes in
  let wires_near layer probe =
    Array.to_list shapes
    |> List.filter (fun s ->
           s.kind = Kwire && s.layer = layer && Igeom.touches s.r probe)
  in
  { wire_layers_at; via_at; wires_near }

(* ---- density: a global sliding-window pass over the wire shapes ----

   Windows step by half a window across the metal bounding box, with a
   final right/top-aligned window so the box edges are always covered.
   Exact clipped rectangle areas; overlapping wires double-count (a
   conservative over-estimate, as in the original checker). *)

(* strictly increasing window origins along one axis *)
let anchors d lo hi =
  let w = d.density_window in
  let step = max 1 (w / 2) in
  if hi - lo <= w then [| lo |]
  else begin
    let acc = ref [] and p = ref lo in
    while !p + w < hi do
      acc := !p :: !acc;
      p := !p + step
    done;
    Array.of_list (List.rev ((hi - w) :: !acc))
  end

let window d ax ay =
  let win = d.density_window in
  { Igeom.lx = ax; ly = ay; hx = ax + win; hy = ay + win }

(* the windows over the wires' bounding box, [(xs, ys)] anchors; [None]
   without wires *)
let density_grid d wires =
  match wires with
  | [] -> None
  | w0 :: _ ->
      let bbox =
        List.fold_left
          (fun (acc : Igeom.irect) s ->
            {
              Igeom.lx = min acc.Igeom.lx s.r.Igeom.lx;
              ly = min acc.Igeom.ly s.r.Igeom.ly;
              hx = max acc.Igeom.hx s.r.Igeom.hx;
              hy = max acc.Igeom.hy s.r.Igeom.hy;
            })
          w0.r wires
      in
      Some
        ( anchors d bbox.Igeom.lx bbox.Igeom.hx,
          anchors d bbox.Igeom.ly bbox.Igeom.hy )

(* the one DRC-DENSITY emitter, given a window's exact metal area;
   callers visit windows row by row ([ay] outer, [ax] inner) *)
let density_emit d ax ay area push =
  let win = d.density_window in
  let density = float_of_int area /. (float_of_int win *. float_of_int win) in
  if density > d.max_density then begin
    let cx = ax + (win / 2) and cy = ay + (win / 2) in
    push
      ( cx,
        cy,
        Diag.error ~rule:"DRC-DENSITY"
          ~witness:[ Printf.sprintf "window %s" (rect_str (window d ax ay)) ]
          (at cx cy) "metal density %.0f%% > %.0f%%" (100.0 *. density)
          (100.0 *. d.max_density) )
  end

let wires_of (shapes : shape array) =
  Array.to_list shapes |> List.filter (fun s -> s.kind = Kwire)

(* reference: every window folds over every wire, O(windows × wires) *)
let density_scan d (shapes : shape array) push =
  let wires = wires_of shapes in
  match density_grid d wires with
  | None -> ()
  | Some (xs, ys) ->
      Array.iter
        (fun ay ->
          Array.iter
            (fun ax ->
              let w = window d ax ay in
              let area =
                List.fold_left (fun acc s -> acc + Igeom.inter_area s.r w) 0 wires
              in
              density_emit d ax ay area push)
            xs)
        ys

(* first index whose window [a, a + win] reaches past [lo]; [a + win]
   increases with [a], so the windows meeting [lo, ..] are a suffix *)
let first_reaching (a : int array) win lo =
  let rec go l h =
    if l >= h then l
    else
      let m = (l + h) / 2 in
      if a.(m) + win > lo then go l m else go (m + 1) h
  in
  go 0 (Array.length a)

(* engine: each wire adds its clipped area into only the windows it
   meets, O(wires × windows met per wire). Integer sums do not depend
   on the order they are taken in, and [inter_area] is 0 for a window
   the wire merely touches, so every window's area equals the scan's *)
let density_binned d (shapes : shape array) push =
  let wires = wires_of shapes in
  match density_grid d wires with
  | None -> ()
  | Some (xs, ys) ->
      let win = d.density_window in
      let nx = Array.length xs and ny = Array.length ys in
      let area = Array.make (nx * ny) 0 in
      List.iter
        (fun s ->
          let r = s.r in
          let i0 = first_reaching xs win r.Igeom.lx in
          let j = ref (first_reaching ys win r.Igeom.ly) in
          while !j < ny && ys.(!j) < r.Igeom.hy do
            let i = ref i0 in
            while !i < nx && xs.(!i) < r.Igeom.hx do
              let k = (!j * nx) + !i in
              area.(k) <- area.(k) + Igeom.inter_area r (window d xs.(!i) ys.(!j));
              incr i
            done;
            incr j
          done)
        wires;
      Array.iteri
        (fun j ay ->
          Array.iteri
            (fun i ax -> density_emit d ax ay area.((j * nx) + i) push)
            xs)
        ys

(* ---- content hashing for the tile cache ---- *)

let deck_fingerprint d =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d" d.spacing d.notch
    d.min_width d.min_area d.eol d.cell_spacing d.zigzag d.via_cut
    d.via_enclosure d.grid d.max_density d.density_window d.tile

let add_shape buf s =
  Buffer.add_string buf
    (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d;"
       (match s.kind with Kcell -> 0 | Kwire -> 1 | Kvia -> 2)
       s.layer s.net s.r.Igeom.lx s.r.Igeom.ly s.r.Igeom.hx s.r.Igeom.hy s.ax
       s.ay s.bx s.by)

let tile_key d tiling i (locals : shape array) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (deck_fingerprint d);
  let p = Tile.proper tiling i in
  Buffer.add_string buf
    (Printf.sprintf "|%d,%d,%d,%d|" p.Igeom.lx p.Igeom.ly p.Igeom.hx p.Igeom.hy);
  Array.iter (add_shape buf) locals;
  "drct1:" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

let density_key d (shapes : shape array) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (deck_fingerprint d);
  Buffer.add_char buf '|';
  Array.iter (fun s -> if s.kind = Kwire then add_shape buf s) shapes;
  "drcd1:" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- the tiled engine ---- *)

let halo_of d =
  List.fold_left max 0
    [
      d.cell_spacing;
      d.spacing;
      d.notch;
      d.zigzag + d.via_cut;
      d.eol + half_width;
      d.via_cut + d.via_enclosure;
    ]

let pair_dist d = max d.cell_spacing (max d.spacing d.notch)

let compute_tile d tiling (ls : shape array) i =
  let acc = ref [] in
  let push (px, py, diag) =
    if Tile.owner tiling px py = i then acc := diag :: !acc
  in
  let rects = Array.map (fun s -> s.r) ls in
  Sweep.close_pairs ~dist:(pair_dist d) rects (fun a b ->
      pair_diags d ls.(a) ls.(b) push);
  let view = tile_view ls in
  Array.iter (fun s -> shape_diags d view s push) ls;
  List.sort Diag.compare (List.rev !acc)

let check ?deck ?cache (t : Layout.t) =
  let d = match deck with Some d -> d | None -> deck_of_tech t.Layout.tech in
  let shapes = sort_shapes (extract d t) in
  if Array.length shapes = 0 then
    {
      diags = [];
      stats =
        {
          tiles_total = 0;
          tiles_checked = 0;
          tiles_cached = 0;
          density_cached = false;
        };
    }
  else begin
    let bbox =
      Array.fold_left
        (fun (acc : Igeom.irect) s ->
          {
            Igeom.lx = min acc.Igeom.lx s.r.Igeom.lx;
            ly = min acc.Igeom.ly s.r.Igeom.ly;
            hx = max acc.Igeom.hx s.r.Igeom.hx;
            hy = max acc.Igeom.hy s.r.Igeom.hy;
          })
        shapes.(0).r shapes
    in
    let tiling = Tile.make ~bbox ~size:d.tile ~halo:(halo_of d) in
    let ntiles = Tile.count tiling in
    let bins = Array.make ntiles [] in
    Array.iter
      (fun s -> Tile.iter_touching tiling s.r (fun i -> bins.(i) <- s :: bins.(i)))
      shapes;
    (* binned in content order because [shapes] is sorted *)
    let locals = Array.map (fun l -> Array.of_list (List.rev l)) bins in
    let cached = Array.make ntiles None in
    let keys = Array.make ntiles "" in
    (match cache with
    | None -> ()
    | Some c ->
        for i = 0 to ntiles - 1 do
          keys.(i) <- tile_key d tiling i locals.(i);
          cached.(i) <- c.Memo.find keys.(i)
        done);
    (* only cache misses hit the pool; results replayed in tile order.
       The tile bins and cache slots are shared inputs — the sanitizer
       sees them as read-only views *)
    let locals_v = Dsan.wrap ~label:"drc.tile.bins" ~mode:Dsan.Read_only locals in
    let cached_v = Dsan.wrap ~label:"drc.tile.cache" ~mode:Dsan.Read_only cached in
    let parts =
      Parallel.map_chunks ~label:"drc.tiles" ~chunk:4 ~n:ntiles (fun lo hi ->
          let out = ref [] in
          for i = lo to hi - 1 do
            if Dsan.get cached_v i = None then
              out := (i, compute_tile d tiling (Dsan.get locals_v i) i) :: !out
          done;
          List.rev !out)
    in
    let tile_diags = Array.make ntiles [] in
    let checked = ref 0 in
    Array.iter
      (fun part ->
        List.iter
          (fun (i, ds) ->
            incr checked;
            tile_diags.(i) <- ds;
            match cache with Some c -> c.Memo.store keys.(i) ds | None -> ())
          part)
      parts;
    Array.iteri
      (fun i c -> match c with Some ds -> tile_diags.(i) <- ds | None -> ())
      cached;
    let dkey = lazy (density_key d shapes) in
    let density_cached = ref false in
    let density =
      match
        match cache with Some c -> c.Memo.find (Lazy.force dkey) | None -> None
      with
      | Some ds ->
          density_cached := true;
          ds
      | None ->
          let acc = ref [] in
          density_binned d shapes (fun (_, _, diag) -> acc := diag :: !acc);
          let ds = List.rev !acc in
          (match cache with
          | Some c -> c.Memo.store (Lazy.force dkey) ds
          | None -> ());
          ds
    in
    let diags =
      List.sort Diag.compare
        (List.concat (Array.to_list tile_diags) @ density)
    in
    {
      diags;
      stats =
        {
          tiles_total = ntiles;
          tiles_checked = !checked;
          tiles_cached = ntiles - !checked;
          density_cached = !density_cached;
        };
    }
  end

(* ---- the O(n²) reference: same emitters, no search structures ---- *)

let check_brute ?deck (t : Layout.t) =
  let d = match deck with Some d -> d | None -> deck_of_tech t.Layout.tech in
  let shapes = sort_shapes (extract d t) in
  let acc = ref [] in
  let push (_, _, diag) = acc := diag :: !acc in
  let n = Array.length shapes in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pair_diags d shapes.(i) shapes.(j) push
    done
  done;
  let view = naive_view shapes in
  Array.iter (fun s -> shape_diags d view s push) shapes;
  density_scan d shapes push;
  List.sort Diag.compare !acc

(* ---- hints for the flow's fix loop ---- *)

let hint_rules =
  [
    "DRC-DENSITY";
    "DRC-EOL-01";
    "DRC-NOTCH-01";
    "DRC-WIRE-OVERLAP";
    "DRC-WIRE-SPACING";
    "DRC-ZIGZAG-SPACING";
  ]

let gap_hints p diags =
  let find_gap y =
    let rec loop r =
      if r >= p.Problem.n_rows - 1 then p.Problem.n_rows - 2
      else if y < Problem.row_top p (r + 1) then r
      else loop (r + 1)
    in
    loop 0
  in
  diags
  |> List.filter (fun (dg : Diag.t) -> List.mem dg.Diag.rule hint_rules)
  |> List.filter_map (fun (dg : Diag.t) ->
         match dg.Diag.loc with
         | Diag.At (_, y) -> Some (find_gap y)
         | _ -> None)
  |> List.sort_uniq Int.compare
