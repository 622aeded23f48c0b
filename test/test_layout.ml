(* Tests for GDSII writing/reading, layout assembly and the DRC
   engine. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------- GDS real encoding ---------- *)

let test_gds_real_roundtrip () =
  List.iter
    (fun v ->
      let enc = Gds.gds_real_of_float v in
      let dec = Gds.float_of_gds_real enc in
      checkb
        (Printf.sprintf "real %g -> %g" v dec)
        true
        (Float.abs (dec -. v) <= Float.abs v *. 1e-12))
    [ 0.0; 1.0; -1.0; 0.001; 1e-9; 123456.789; -0.25; 16.0; 1.0 /. 1024.0 ]

let test_gds_real_known_value () =
  (* 1.0 = 0x4110000000000000 in GDSII excess-64 representation *)
  Alcotest.(check int64) "encode 1.0" 0x4110000000000000L (Gds.gds_real_of_float 1.0)

let prop_gds_real_roundtrip =
  QCheck.Test.make ~name:"gds 8-byte reals roundtrip" ~count:300
    QCheck.(float_range (-1e12) 1e12)
    (fun v ->
      let dec = Gds.float_of_gds_real (Gds.gds_real_of_float v) in
      Float.abs (dec -. v) <= Float.abs v *. 1e-12 +. 1e-300)

(* ---------- GDS stream roundtrip ---------- *)

let sample_lib () =
  {
    Gds.libname = "TESTLIB";
    structures =
      [
        {
          Gds.sname = "cellA";
          elements =
            [
              Gds.Boundary { layer = 1; points = [ (0.0, 0.0); (40.0, 0.0); (40.0, 30.0); (0.0, 30.0) ] };
              Gds.Path { layer = 10; width = 2.0; points = [ (0.0, 5.0); (100.0, 5.0) ] };
            ];
        };
        {
          Gds.sname = "TOP";
          elements =
            [
              Gds.Sref { sname = "cellA"; x = 120.0; y = 40.0 };
              Gds.Text { layer = 20; x = 1.0; y = 2.0; text = "hello" };
            ];
        };
      ];
  }

let test_gds_stream_roundtrip () =
  let lib = sample_lib () in
  match Gds.of_bytes (Gds.to_bytes lib) with
  | Error e -> Alcotest.fail e
  | Ok lib2 ->
      Alcotest.(check string) "libname" lib.Gds.libname lib2.Gds.libname;
      checki "structures" 2 (List.length lib2.Gds.structures);
      let a = List.hd lib2.Gds.structures in
      Alcotest.(check string) "sname" "cellA" a.Gds.sname;
      (match a.Gds.elements with
      | [ Gds.Boundary { layer; points }; Gds.Path { layer = pl; width; points = pp } ] ->
          checki "layer" 1 layer;
          checki "points" 4 (List.length points);
          checki "path layer" 10 pl;
          checkf "width" 2.0 width;
          checki "path points" 2 (List.length pp)
      | _ -> Alcotest.fail "bad elements");
      let top = List.nth lib2.Gds.structures 1 in
      (match top.Gds.elements with
      | [ Gds.Sref { sname; x; y }; Gds.Text { text; _ } ] ->
          Alcotest.(check string) "sref" "cellA" sname;
          checkf "x" 120.0 x;
          checkf "y" 40.0 y;
          Alcotest.(check string) "text" "hello" text
      | _ -> Alcotest.fail "bad top elements")

let test_gds_file_roundtrip () =
  let lib = sample_lib () in
  let path = Filename.temp_file "superflow" ".gds" in
  Gds.write_file path lib;
  (match Gds.read_file path with
  | Error e -> Alcotest.fail e
  | Ok lib2 -> checki "structures" 2 (List.length lib2.Gds.structures));
  Sys.remove path

let test_gds_rejects_garbage () =
  (match Gds.of_bytes (Bytes.of_string "not a gds file") with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Gds.of_bytes (Bytes.of_string "") with
  | Ok _ -> Alcotest.fail "accepted empty"
  | Error _ -> ()

(* ---------- Layout assembly ---------- *)

let routed_design () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  let r = Router.route_all p in
  (p, r)

let test_layout_build () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  checki "cells" (Array.length p.Problem.cells) (Array.length layout.Layout.cells);
  let s = Layout.stats layout in
  checkb "wires" true (s.Layout.n_wires > 0);
  checkb "jj matches problem" true (s.Layout.total_jj = Problem.jj_count p);
  checkf "wirelength matches routing" r.Router.wirelength s.Layout.wirelength;
  checki "vias match routing" r.Router.total_vias s.Layout.n_vias

let test_layout_gds_has_all_cells () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  let lib = Layout.to_gds layout in
  (* TOP exists and every SREF names a defined structure *)
  let names = List.map (fun s -> s.Gds.sname) lib.Gds.structures in
  checkb "TOP present" true (List.mem "TOP" names);
  let top = List.find (fun s -> s.Gds.sname = "TOP") lib.Gds.structures in
  let srefs =
    List.filter_map
      (function Gds.Sref { sname; _ } -> Some sname | _ -> None)
      top.Gds.elements
  in
  checki "one sref per cell" (Array.length layout.Layout.cells) (List.length srefs);
  List.iter (fun s -> checkb ("struct " ^ s) true (List.mem s names)) srefs;
  (* roundtrip through the binary format *)
  match Gds.of_bytes (Gds.to_bytes lib) with
  | Ok lib2 -> checki "roundtrip structures" (List.length lib.Gds.structures) (List.length lib2.Gds.structures)
  | Error e -> Alcotest.fail e

let test_layout_bias_network () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  (* two AC lines per row plus serpentine hops plus one DC trunk *)
  let n_rows = p.Problem.n_rows in
  let expected = (2 * n_rows) + (2 * (n_rows - 1)) + 1 in
  checki "bias segment count" expected (Array.length layout.Layout.bias);
  (* serpentines span the whole die width *)
  let s = Layout.stats layout in
  checkb "bias length substantial" true
    (s.Layout.bias_wirelength > float_of_int n_rows *. Problem.row_width p);
  (* and they are emitted into the GDS *)
  let lib = Layout.to_gds layout in
  let top = List.find (fun st -> st.Gds.sname = "TOP") lib.Gds.structures in
  let clock_paths =
    List.length
      (List.filter
         (function Gds.Path { layer; _ } -> layer >= 21 && layer <= 23 | _ -> false)
         top.Gds.elements)
  in
  checki "clock paths in gds" expected clock_paths

(* ---------- DRC ---------- *)

let diag_strings ds = List.map Diag.to_string ds

let test_drc_clean_on_routed_design () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  Alcotest.(check (list string))
    "clean" []
    (diag_strings (Drc.check layout).Drc.diags);
  Alcotest.(check (list string))
    "brute clean" []
    (diag_strings (Drc.check_brute layout))

let perturb_layout layout f =
  let cells = Array.map (fun c -> c) layout.Layout.cells in
  let wires = Array.map (fun w -> w) layout.Layout.wires in
  let vias = Array.map (fun v -> v) layout.Layout.vias in
  f cells wires vias;
  { layout with Layout.cells; wires; vias }

(* Synthetic layouts: one hand-built geometry per rule id. [fires]
   doubles as an engine/brute-force agreement check on each of them. *)

let m1 = Layout.layer_m1
let m2 = Layout.layer_m2

let wire net layer x1 y1 x2 y2 =
  { Layout.net; layer; a = Geom.pt x1 y1; b = Geom.pt x2 y2 }

let via net x y = { Layout.net; at = Geom.pt x y }

let lay ?(die = Geom.rect 0.0 0.0 400.0 400.0) ?(cells = [||]) ?(wires = [||])
    ?(vias = [||]) () =
  { Layout.tech = Tech.default; cells; wires; vias; bias = [||]; die }

let deck0 () = Drc.deck_of_tech Tech.default

let fires ?deck rule layout =
  let tiled = (Drc.check ?deck layout).Drc.diags in
  let brute = Drc.check_brute ?deck layout in
  checkb (rule ^ " fires") true
    (List.exists (fun (d : Diag.t) -> d.Diag.rule = rule) tiled);
  Alcotest.(check (list string))
    (rule ^ ": tiled = brute") (diag_strings brute) (diag_strings tiled)

let test_rule_wire_spacing () =
  fires "DRC-WIRE-SPACING"
    (lay ~wires:[| wire 0 m1 0.0 0.0 50.0 0.0; wire 1 m1 0.0 6.0 50.0 6.0 |] ())

let test_rule_wire_overlap () =
  fires "DRC-WIRE-OVERLAP"
    (lay ~wires:[| wire 0 m1 0.0 0.0 50.0 0.0; wire 1 m1 30.0 0.0 80.0 0.0 |] ())

let test_rule_notch () =
  (* same net re-approaching itself without touching *)
  fires "DRC-NOTCH-01"
    (lay ~wires:[| wire 0 m1 0.0 0.0 50.0 0.0; wire 0 m1 0.0 6.0 50.0 6.0 |] ())

let test_rule_eol () =
  (* foreign metal 4 µm ahead of a line end (edge gap < eol = 8 µm) *)
  fires "DRC-EOL-01"
    (lay ~wires:[| wire 0 m1 0.0 0.0 20.0 0.0; wire 1 m1 25.0 (-10.0) 25.0 10.0 |] ())

let test_rule_zigzag () =
  fires "DRC-ZIGZAG-SPACING"
    (lay
       ~wires:[| wire 0 m1 0.0 0.0 6.0 0.0 |]
       ~vias:[| via 0 0.0 0.0; via 0 6.0 0.0 |]
       ())

let test_rule_via_alignment () =
  fires "DRC-VIA-ALIGNMENT" (lay ~vias:[| via 0 100.0 100.0 |] ())

let test_rule_via_enclose () =
  (* both layers land (alignment passes) but a 2 µm enclosure demand
     exceeds the endcap's 1 µm reach around the cut *)
  fires
    ~deck:{ (deck0 ()) with Drc.via_enclosure = 2000 }
    "DRC-VIA-ENCLOSE-01"
    (lay
       ~wires:[| wire 0 m1 0.0 0.0 20.0 0.0; wire 0 m2 0.0 0.0 0.0 (-20.0) |]
       ~vias:[| via 0 0.0 0.0 |]
       ())

let test_rule_width () =
  fires
    ~deck:{ (deck0 ()) with Drc.min_width = 3000 }
    "DRC-WIDTH-01"
    (lay ~wires:[| wire 0 m1 0.0 0.0 20.0 0.0 |] ())

let test_rule_area () =
  fires
    ~deck:{ (deck0 ()) with Drc.min_area = 100_000_000 }
    "DRC-AREA-01"
    (lay ~wires:[| wire 0 m1 0.0 0.0 10.0 0.0 |] ())

let test_rule_off_grid () =
  fires "DRC-OFF-GRID" (lay ~wires:[| wire 0 m1 3.0 0.0 23.0 0.0 |] ())

let test_rule_density () =
  fires
    ~deck:{ (deck0 ()) with Drc.max_density = 0.0 }
    "DRC-DENSITY"
    (lay ~wires:[| wire 0 m1 0.0 0.0 50.0 0.0 |] ())

let test_rule_cell_overlap () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  let bad =
    perturb_layout layout (fun cells _ _ ->
        (* find two cells in the same row and slam them together *)
        let c0 = cells.(0) in
        let same_row =
          Array.to_list cells
          |> List.filter (fun c ->
                 c.Layout.origin.Geom.y = c0.Layout.origin.Geom.y && c != c0)
        in
        match same_row with
        | c1 :: _ ->
            let idx = ref 0 in
            Array.iteri (fun i c -> if c == c1 then idx := i) cells;
            cells.(!idx) <-
              {
                c1 with
                Layout.origin =
                  Geom.pt (c0.Layout.origin.Geom.x +. 10.0)
                    c0.Layout.origin.Geom.y;
              }
        | [] -> ())
  in
  fires "DRC-CELL-OVERLAP" bad

let test_rule_cell_spacing () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  let bad =
    perturb_layout layout (fun cells _ _ ->
        let c0 = cells.(0) in
        let same_row =
          Array.to_list cells
          |> List.filter (fun c ->
                 c.Layout.origin.Geom.y = c0.Layout.origin.Geom.y && c != c0)
        in
        match same_row with
        | c1 :: _ ->
            let idx = ref 0 in
            Array.iteri (fun i c -> if c == c1 then idx := i) cells;
            (* 4 µm gap: under s_min but no overlap *)
            cells.(!idx) <-
              {
                c1 with
                Layout.origin =
                  Geom.pt
                    (c0.Layout.origin.Geom.x +. c0.Layout.lib.Cell.width +. 4.0)
                    c0.Layout.origin.Geom.y;
              }
        | [] -> ())
  in
  fires "DRC-CELL-SPACING" bad

let test_rule_cell_off_grid () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  let bad =
    perturb_layout layout (fun cells _ _ ->
        let c = cells.(0) in
        cells.(0) <-
          {
            c with
            Layout.origin =
              Geom.pt (c.Layout.origin.Geom.x +. 3.0) c.Layout.origin.Geom.y;
          })
  in
  fires "DRC-OFF-GRID" bad

(* ---- randomized engine vs. brute-force equality ---- *)

let random_layout seed =
  Random.init (1000 + seed);
  let coord () = float_of_int (10 * Random.int 40) in
  let n_wires = 20 + Random.int 40 in
  let wires =
    Array.init n_wires (fun _ ->
        let net = Random.int 6 in
        let x = coord () and y = coord () in
        let len = float_of_int (10 * (1 + Random.int 15)) in
        let horiz = Random.bool () in
        let x2 = if horiz then x +. len else x
        and y2 = if horiz then y else y +. len in
        let layer =
          (* occasionally the "wrong" layer for the orientation *)
          if Random.int 10 = 0 then if horiz then m2 else m1
          else if horiz then m1
          else m2
        in
        let jitter v = if Random.int 12 = 0 then v +. 3.0 else v in
        wire net layer (jitter x) (jitter y) x2 y2)
  in
  let n_vias = Random.int 8 in
  let vias =
    Array.init n_vias (fun _ ->
        if Random.bool () then
          let w = wires.(Random.int n_wires) in
          via w.Layout.net w.Layout.a.Geom.x w.Layout.a.Geom.y
        else via (Random.int 6) (coord ()) (coord ()))
  in
  lay ~wires ~vias ()

let test_drc_matches_brute_on_random_layouts () =
  let nonempty = ref 0 in
  for seed = 1 to 30 do
    let layout = random_layout seed in
    let tiled = (Drc.check layout).Drc.diags in
    let brute = Drc.check_brute layout in
    if brute <> [] then incr nonempty;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: tiled = brute" seed)
      (diag_strings brute) (diag_strings tiled)
  done;
  (* the layouts are dense enough that most runs find something *)
  checkb "violations exercised" true (!nonempty > 20)

let test_drc_tile_straddling () =
  (* violating pairs deliberately spanning the 120 µm tile boundaries *)
  let wires =
    [|
      wire 0 m1 0.0 118.0 400.0 118.0;
      wire 1 m1 0.0 124.0 400.0 124.0;
      wire 2 m2 118.0 0.0 118.0 400.0;
      wire 3 m2 124.0 0.0 124.0 400.0;
    |]
  in
  let layout = lay ~wires () in
  let tiled = Drc.check layout in
  let brute = Drc.check_brute layout in
  checkb "spans several tiles" true (tiled.Drc.stats.Drc.tiles_total > 1);
  checkb "found the straddling pairs" true (brute <> []);
  Alcotest.(check (list string))
    "tiled = brute" (diag_strings brute)
    (diag_strings tiled.Drc.diags)

let test_drc_jobs_deterministic () =
  let layout = random_layout 7 in
  Parallel.set_jobs 1;
  let a = (Drc.check layout).Drc.diags in
  Parallel.set_jobs 4;
  let b = (Drc.check layout).Drc.diags in
  Parallel.auto_jobs ();
  Alcotest.(check (list string)) "jobs 1 = jobs 4" (diag_strings a) (diag_strings b)

(* ---- the density pass over many windows ----

   A 1000 x 700 um die, framed by wires along its left and bottom
   edges and reached by wires at its right and top edges, so the metal
   bounding box (endcaps included) is [-1, 1001] x [-1, 701] um: the
   200 um windows start at -1 + 100k um, and the last right/top-aligned
   window (at 801 / 501 um) is off the half-window step. Random wires
   are long enough to cross several windows, and some have an endcap
   edge exactly on a window edge, where they touch a window with zero
   area. *)

let density_layout seed =
  Random.init (5000 + seed);
  let on_edge () = float_of_int ((100 * Random.int 11) - 2 + (2 * Random.int 2)) in
  let coord hi () =
    if Random.int 4 = 0 then Float.min hi (Float.max 0.0 (on_edge ()))
    else float_of_int (10 * Random.int (int_of_float hi / 10 + 1))
  in
  let random_wire () =
    let horiz = Random.bool () in
    let x = coord 1000.0 () and y = coord 700.0 () in
    let len = float_of_int (10 * (1 + Random.int 60)) in
    if horiz then wire (Random.int 8) m1 x y (Float.min 1000.0 (x +. len)) y
    else wire (Random.int 8) m2 x y x (Float.min 700.0 (y +. len))
  in
  (* a dense bus, so even the 10% limit has windows to flag *)
  let bus =
    let x0 = float_of_int (10 * Random.int 80) and y0 = float_of_int (10 * Random.int 50) in
    List.init 24 (fun k ->
        wire (8 + k) m1 x0 (y0 +. float_of_int (8 * k)) (x0 +. 200.0)
          (y0 +. float_of_int (8 * k)))
  in
  let frame =
    [
      wire 0 m1 0.0 0.0 1000.0 0.0;
      wire 1 m2 0.0 0.0 0.0 700.0;
      wire 2 m2 1000.0 300.0 1000.0 700.0;
      wire 3 m1 400.0 700.0 1000.0 700.0;
    ]
  in
  let wires =
    Array.of_list (frame @ bus @ List.init (40 + Random.int 60) (fun _ -> random_wire ()))
  in
  lay ~die:(Geom.rect 0.0 0.0 1000.0 700.0) ~wires ()

let density_count ds =
  List.length (List.filter (fun (d : Diag.t) -> d.Diag.rule = "DRC-DENSITY") ds)

let test_drc_density_matches_brute () =
  let fired = Array.make 3 0 in
  for seed = 1 to 20 do
    let layout = density_layout seed in
    List.iteri
      (fun k max_density ->
        let deck = { (deck0 ()) with Drc.max_density } in
        let tiled = (Drc.check ~deck layout).Drc.diags in
        let brute = Drc.check_brute ~deck layout in
        if density_count tiled > 0 then fired.(k) <- fired.(k) + 1;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d, max_density %.2f: tiled = brute" seed max_density)
          (diag_strings brute) (diag_strings tiled))
      [ 0.0; 0.05; 0.1 ]
  done;
  (* 0% flags every window with metal: 6 x 9 windows on this die *)
  checkb "many windows" true
    (density_count
       (Drc.check ~deck:{ (deck0 ()) with Drc.max_density = 0.0 } (density_layout 1))
         .Drc.diags
    > 40);
  Array.iteri
    (fun k n -> checkb (Printf.sprintf "deck %d fires on most seeds" k) true (n > 15))
    fired

let test_drc_density_jobs_deterministic () =
  let deck = { (deck0 ()) with Drc.max_density = 0.05 } in
  List.iter
    (fun seed ->
      let layout = density_layout seed in
      Parallel.set_jobs 1;
      let a = (Drc.check ~deck layout).Drc.diags in
      Parallel.set_jobs 4;
      let b = (Drc.check ~deck layout).Drc.diags in
      Parallel.auto_jobs ();
      checkb "density fired" true (density_count a > 0);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: jobs 1 = jobs 4" seed)
        (diag_strings a) (diag_strings b))
    [ 3; 11 ]

(* ---- tile-incremental rechecks through an in-memory cache ---- *)

let test_drc_eco_incremental () =
  let p, r = routed_design () in
  let layout_a = Layout.build p r in
  (* a small tile so the design spans many of them *)
  let deck = { (deck0 ()) with Drc.tile = 40_000 } in
  let tbl : (string, Diag.t list) Hashtbl.t = Hashtbl.create 64 in
  let cache = { Memo.find = Hashtbl.find_opt tbl; store = Hashtbl.replace tbl } in
  let ra = Drc.check ~deck ~cache layout_a in
  checki "cold run checks every tile" ra.Drc.stats.Drc.tiles_total
    ra.Drc.stats.Drc.tiles_checked;
  (* warm, unchanged: nothing recomputes, output identical *)
  let ra2 = Drc.check ~deck ~cache layout_a in
  checki "warm run recomputes nothing" 0 ra2.Drc.stats.Drc.tiles_checked;
  checkb "warm density cached" true ra2.Drc.stats.Drc.density_cached;
  Alcotest.(check (list string))
    "warm = cold" (diag_strings ra.Drc.diags) (diag_strings ra2.Drc.diags);
  (* ECO: nudge one wire off grid — only nearby tiles go dirty *)
  let layout_b =
    perturb_layout layout_a (fun _ wires _ ->
        let w = wires.(0) in
        wires.(0) <-
          {
            w with
            Layout.a = Geom.pt (w.Layout.a.Geom.x +. 3.0) w.Layout.a.Geom.y;
            b = Geom.pt (w.Layout.b.Geom.x +. 3.0) w.Layout.b.Geom.y;
          })
  in
  let rb_warm = Drc.check ~deck ~cache layout_b in
  let rb_cold = Drc.check ~deck layout_b in
  Alcotest.(check (list string))
    "warm ECO = cold ECO"
    (diag_strings rb_cold.Drc.diags)
    (diag_strings rb_warm.Drc.diags);
  checkb "ECO found" true (rb_warm.Drc.diags <> []);
  checkb "only dirty tiles re-checked" true
    (rb_warm.Drc.stats.Drc.tiles_checked < rb_warm.Drc.stats.Drc.tiles_total);
  checkb "most tiles served from cache" true
    (rb_warm.Drc.stats.Drc.tiles_cached > 0)

let test_gap_hints () =
  let p, r = routed_design () in
  let layout = Layout.build p r in
  let fake =
    [
      Diag.error ~rule:"DRC-WIRE-SPACING"
        (Diag.At (10.0, Problem.row_top p 1 +. 5.0))
        "synthetic congestion";
    ]
  in
  (match Drc.gap_hints p fake with
  | [ g ] -> checkb "gap near row 1" true (g = 0 || g = 1)
  | other -> Alcotest.failf "expected one hint, got %d" (List.length other));
  (* rules outside the congestion set produce no hints *)
  checkb "off-grid produces no hint" true
    (Drc.gap_hints p
       [ Diag.error ~rule:"DRC-OFF-GRID" (Diag.At (10.0, 5.0)) "x" ]
    = []);
  ignore layout

(* ---------- DEF exchange ---------- *)

let test_def_roundtrip () =
  let p, r = routed_design () in
  let def = Def.of_design p r in
  let text = Def.to_string def in
  match Def.of_string text with
  | Error e -> Alcotest.fail e
  | Ok def2 ->
      Alcotest.(check string) "design" def.Def.design def2.Def.design;
      checki "components" (List.length def.Def.components) (List.length def2.Def.components);
      checki "nets" (List.length def.Def.nets) (List.length def2.Def.nets);
      (* coordinates survive the dbu conversion exactly (grid multiples) *)
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" a.Def.comp_name b.Def.comp_name;
          Alcotest.(check string) "cell" a.Def.comp_cell b.Def.comp_cell;
          checkf "x" a.Def.comp_x b.Def.comp_x;
          checkf "y" a.Def.comp_y b.Def.comp_y)
        def.Def.components def2.Def.components;
      List.iter2
        (fun a b ->
          Alcotest.(check (list (pair string string))) "pins" a.Def.net_pins b.Def.net_pins;
          checki "segments" (List.length a.Def.net_route) (List.length b.Def.net_route))
        def.Def.nets def2.Def.nets

let test_def_file_roundtrip () =
  let p, r = routed_design () in
  let def = Def.of_design p r in
  let path = Filename.temp_file "superflow" ".def" in
  Def.write_file path def;
  (match Def.read_file path with
  | Ok def2 -> checki "components" (List.length def.Def.components) (List.length def2.Def.components)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_def_flow_file_roundtrip () =
  (* a DEF dump produced by the real flow must parse back and re-render
     byte-identically — guards the writer and parser against drifting
     apart on flow-scale output *)
  let path = Filename.temp_file "superflow_flow" ".def" in
  ignore (Flow.run ~def_path:path (Circuits.benchmark "adder8"));
  let ic = open_in_bin path in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Def.of_string written with
  | Error e -> Alcotest.fail e
  | Ok def ->
      Alcotest.(check string) "re-render byte-identical" written
        (Def.to_string def)

let test_def_rejects_garbage () =
  (match Def.of_string "hello world" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Def.of_string "VERSION 5.8 ;\nDESIGN x ;\n" with
  | Ok _ -> Alcotest.fail "accepted truncated"
  | Error _ -> ()

let test_def_matches_design () =
  let p, r = routed_design () in
  let def = Def.of_design p r in
  checki "one component per cell" (Array.length p.Problem.cells)
    (List.length def.Def.components);
  checki "one net per connection" (Array.length p.Problem.nets)
    (List.length def.Def.nets);
  (* each net names existing components *)
  let names =
    List.fold_left
      (fun acc c -> c.Def.comp_name :: acc)
      [] def.Def.components
  in
  List.iter
    (fun n ->
      List.iter
        (fun (c, _) -> checkb ("component " ^ c) true (List.mem c names))
        n.Def.net_pins)
    def.Def.nets

let test_def_apply_placement () =
  let p, r = routed_design () in
  let def = Def.of_design p r in
  let saved = Problem.copy_positions p in
  (* scramble, then restore from the DEF *)
  Array.iter (fun c -> c.Problem.x <- 0.0) p.Problem.cells;
  (match Def.apply_placement p def with
  | Ok n -> checki "all cells placed" (Array.length p.Problem.cells) n
  | Error e -> Alcotest.fail e);
  Array.iteri
    (fun i c -> checkf "x restored" saved.(i) c.Problem.x)
    p.Problem.cells;
  (* mismatched design is rejected *)
  let other = Synth_flow.run_quiet (Circuits.kogge_stone_adder 4) in
  let p2 = Problem.of_netlist Tech.default other in
  (match Def.apply_placement p2 def with
  | Ok _ -> Alcotest.fail "accepted foreign DEF"
  | Error _ -> ())

let () =
  Alcotest.run "sf_layout"
    [
      ( "gds_real",
        [
          Alcotest.test_case "roundtrip" `Quick test_gds_real_roundtrip;
          Alcotest.test_case "known value" `Quick test_gds_real_known_value;
          QCheck_alcotest.to_alcotest prop_gds_real_roundtrip;
        ] );
      ( "gds_stream",
        [
          Alcotest.test_case "roundtrip" `Quick test_gds_stream_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_gds_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_gds_rejects_garbage;
        ] );
      ( "layout",
        [
          Alcotest.test_case "build" `Quick test_layout_build;
          Alcotest.test_case "gds cells" `Quick test_layout_gds_has_all_cells;
          Alcotest.test_case "bias network" `Quick test_layout_bias_network;
        ] );
      ( "def",
        [
          Alcotest.test_case "roundtrip" `Quick test_def_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_def_file_roundtrip;
          Alcotest.test_case "flow file roundtrip" `Quick
            test_def_flow_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_def_rejects_garbage;
          Alcotest.test_case "matches design" `Quick test_def_matches_design;
          Alcotest.test_case "apply placement" `Quick test_def_apply_placement;
        ] );
      ( "drc",
        [
          Alcotest.test_case "clean design" `Quick test_drc_clean_on_routed_design;
          Alcotest.test_case "DRC-WIRE-SPACING" `Quick test_rule_wire_spacing;
          Alcotest.test_case "DRC-WIRE-OVERLAP" `Quick test_rule_wire_overlap;
          Alcotest.test_case "DRC-NOTCH-01" `Quick test_rule_notch;
          Alcotest.test_case "DRC-EOL-01" `Quick test_rule_eol;
          Alcotest.test_case "DRC-ZIGZAG-SPACING" `Quick test_rule_zigzag;
          Alcotest.test_case "DRC-VIA-ALIGNMENT" `Quick test_rule_via_alignment;
          Alcotest.test_case "DRC-VIA-ENCLOSE-01" `Quick test_rule_via_enclose;
          Alcotest.test_case "DRC-WIDTH-01" `Quick test_rule_width;
          Alcotest.test_case "DRC-AREA-01" `Quick test_rule_area;
          Alcotest.test_case "DRC-OFF-GRID" `Quick test_rule_off_grid;
          Alcotest.test_case "DRC-DENSITY" `Quick test_rule_density;
          Alcotest.test_case "DRC-CELL-OVERLAP" `Quick test_rule_cell_overlap;
          Alcotest.test_case "DRC-CELL-SPACING" `Quick test_rule_cell_spacing;
          Alcotest.test_case "cell off grid" `Quick test_rule_cell_off_grid;
          Alcotest.test_case "random = brute" `Quick
            test_drc_matches_brute_on_random_layouts;
          Alcotest.test_case "tile straddling" `Quick test_drc_tile_straddling;
          Alcotest.test_case "jobs deterministic" `Quick
            test_drc_jobs_deterministic;
          Alcotest.test_case "density = brute" `Quick
            test_drc_density_matches_brute;
          Alcotest.test_case "density jobs deterministic" `Quick
            test_drc_density_jobs_deterministic;
          Alcotest.test_case "eco incremental" `Quick test_drc_eco_incremental;
          Alcotest.test_case "gap hints" `Quick test_gap_hints;
        ] );
    ]
