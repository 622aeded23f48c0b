(* Tests for sf_geom: exact integer geometry, the plane sweep, the
   interval-stabbing tree and the tile partition. The search
   structures are held to exact agreement with naive O(n²)/O(n)
   scans on randomized inputs. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Igeom scalars and rectangles ---------- *)

let test_snap_roundtrip () =
  List.iter
    (fun v ->
      let n = Igeom.of_um v in
      checkb
        (Printf.sprintf "snap %g" v)
        true
        (Float.abs (Igeom.to_um n -. v) < 0.5e-3))
    [ 0.0; 10.0; -7.25; 123.456; 0.001; -0.001; 99990.0 ]

let test_um_str () =
  Alcotest.(check string) "renders millinm" "1.234" (Igeom.um_str 1234);
  Alcotest.(check string) "negative" "-0.500" (Igeom.um_str (-500))

let r lx ly hx hy = { Igeom.lx; ly; hx; hy }

let test_rect_predicates () =
  let a = r 0 0 10 10 in
  checkb "overlaps self" true (Igeom.overlaps a a);
  checkb "touch is not overlap" false (Igeom.overlaps a (r 10 0 20 10));
  checkb "touch is touch" true (Igeom.touches a (r 10 0 20 10));
  checkb "corner touch" true (Igeom.touches a (r 10 10 20 20));
  checkb "disjoint" false (Igeom.touches a (r 11 0 20 10));
  checki "inter area" 25 (Igeom.inter_area a (r 5 5 20 20));
  checki "no inter area" 0 (Igeom.inter_area a (r 10 0 20 10));
  checki "gap x" 5 (Igeom.gap_x a (r 15 0 20 10));
  checki "gap on overlap" 0 (Igeom.gap_x a (r 5 0 20 10));
  checki "sep2 diagonal" 50 (Igeom.sep2 a (r 15 15 20 20))

let test_covered () =
  let target = r 0 0 10 10 in
  checkb "single cover" true (Igeom.covered target [ r (-1) (-1) 11 11 ]);
  checkb "exact cover" true (Igeom.covered target [ target ]);
  checkb "two halves" true (Igeom.covered target [ r 0 0 5 10; r 5 0 10 10 ]);
  checkb "two halves with overlap" true
    (Igeom.covered target [ r 0 0 7 10; r 3 0 10 10 ]);
  checkb "gap" false (Igeom.covered target [ r 0 0 4 10; r 6 0 10 10 ]);
  checkb "partial height" false (Igeom.covered target [ r 0 0 10 9 ]);
  checkb "quilt" true
    (Igeom.covered target
       [ r 0 0 6 6; r 6 0 10 6; r 0 6 6 10; r 6 6 10 10 ]);
  checkb "quilt with hole" false
    (Igeom.covered target [ r 0 0 6 6; r 6 0 10 6; r 0 6 6 10 ]);
  checkb "empty cover" false (Igeom.covered target [])

let prop_covered_matches_pointwise =
  (* covered <=> every half-unit sample point of the target lies in
     some rect. Rect boundaries are integers, so any uncovered
     continuous region has extent >= 1 per axis and the doubled
     (half-unit) lattice cannot miss it — unlike the unit lattice,
     which skips the open gap between closed [a, b] and [b+1, c]. *)
  QCheck.Test.make ~name:"covered matches pointwise check" ~count:200
    QCheck.(
      pair
        (pair (int_range 0 6) (int_range 0 6))
        (small_list (pair (pair (int_range (-2) 8) (int_range (-2) 8))
                       (pair (int_range 1 6) (int_range 1 6)))))
    (fun ((tw, th), rects) ->
      let target = r 0 0 (2 * tw) (2 * th) in
      let covers =
        List.map
          (fun ((x, y), (w, h)) -> r (2 * x) (2 * y) (2 * (x + w)) (2 * (y + h)))
          rects
      in
      let inside p_x p_y rc =
        p_x >= rc.Igeom.lx && p_x <= rc.Igeom.hx && p_y >= rc.Igeom.ly
        && p_y <= rc.Igeom.hy
      in
      let pointwise = ref true in
      for x = 0 to 2 * tw do
        for y = 0 to 2 * th do
          if not (List.exists (inside x y) covers) then pointwise := false
        done
      done;
      Igeom.covered target covers = !pointwise)

(* ---------- plane sweep vs. the double loop ---------- *)

let random_rects seed n =
  Random.init seed;
  Array.init n (fun _ ->
      let x = Random.int 200 and y = Random.int 200 in
      r x y (x + 1 + Random.int 30) (y + 1 + Random.int 30))

let pairs_naive ~dist rects =
  let acc = ref [] in
  let n = Array.length rects in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        Igeom.gap_x rects.(i) rects.(j) < dist
        && Igeom.gap_y rects.(i) rects.(j) < dist
      then acc := (i, j) :: !acc
    done
  done;
  List.sort compare !acc

let test_sweep_matches_naive () =
  List.iter
    (fun (seed, n, dist) ->
      let rects = random_rects seed n in
      let got = ref [] in
      Sweep.close_pairs ~dist rects (fun i j -> got := (i, j) :: !got);
      let got = List.sort compare !got in
      let want = pairs_naive ~dist rects in
      checki
        (Printf.sprintf "seed %d n %d dist %d: pair count" seed n dist)
        (List.length want) (List.length got);
      checkb "same pairs" true (got = want))
    [ (1, 50, 8); (2, 120, 8); (3, 80, 1); (4, 200, 25); (5, 10, 100); (6, 0, 8) ]

(* ---------- stabbing tree vs. the linear scan ---------- *)

let test_stab_matches_naive () =
  List.iter
    (fun (seed, n) ->
      Random.init seed;
      let ivs =
        Array.init n (fun _ ->
            let lo = Random.int 300 in
            (lo, lo + Random.int 40))
      in
      let t = Stab.build ivs in
      for q = 0 to 50 do
        let lo = Random.int 300 in
        let hi = lo + Random.int 60 in
        let got = ref [] in
        Stab.query t lo hi (fun i -> got := i :: !got);
        let want = ref [] in
        Array.iteri
          (fun i (l, h) -> if l <= hi && h >= lo then want := i :: !want)
          ivs;
        checkb
          (Printf.sprintf "seed %d query %d [%d,%d]" seed q lo hi)
          true
          (List.sort compare !got = List.sort compare !want)
      done)
    [ (11, 40); (12, 150); (13, 1); (14, 0) ]

(* ---------- tile partition ---------- *)

let test_tile_partition () =
  let bbox = r (-37) 12 410 265 in
  let t = Tile.make ~bbox ~size:100 ~halo:10 in
  checkb "covers bbox" true (Tile.count t >= 1);
  (* every point of the bbox is owned by exactly the tile whose proper
     rect contains it *)
  for x = bbox.Igeom.lx to bbox.Igeom.hx do
    let y = 100 in
    let i = Tile.owner t x y in
    let p = Tile.proper t i in
    checkb
      (Printf.sprintf "owner of (%d,%d)" x y)
      true
      (x >= p.Igeom.lx && x < p.Igeom.hx && y >= p.Igeom.ly && y < p.Igeom.hy)
  done;
  (* binning is a superset of ownership: a rect is always binned into
     the tile owning any of its points *)
  Random.init 99;
  for _ = 1 to 200 do
    let x = -37 + Random.int 440 and y = 12 + Random.int 250 in
    let rc = r x y (x + 1 + Random.int 50) (y + 1 + Random.int 50) in
    let bins = ref [] in
    Tile.iter_touching t rc (fun i -> bins := i :: !bins);
    let owner = Tile.owner t x y in
    checkb "owner tile binned" true (List.mem owner !bins);
    (* halo soundness: any point within halo of the rect is owned by a
       binned tile *)
    let px = max rc.Igeom.lx (rc.Igeom.lx - 10) and py = rc.Igeom.ly - 10 in
    checkb "halo point's owner binned" true (List.mem (Tile.owner t px py) !bins)
  done

let test_tile_owner_clamps () =
  let t = Tile.make ~bbox:(r 0 0 100 100) ~size:50 ~halo:5 in
  checki "far outside clamps" (Tile.owner t 0 0) (Tile.owner t (-1000) (-1000));
  checkb "in range" true (Tile.owner t 99 99 < Tile.count t)

let () =
  Alcotest.run "sf_geom"
    [
      ( "igeom",
        [
          Alcotest.test_case "snap roundtrip" `Quick test_snap_roundtrip;
          Alcotest.test_case "um_str" `Quick test_um_str;
          Alcotest.test_case "rect predicates" `Quick test_rect_predicates;
          Alcotest.test_case "covered" `Quick test_covered;
          QCheck_alcotest.to_alcotest prop_covered_matches_pointwise;
        ] );
      ( "sweep",
        [ Alcotest.test_case "matches naive" `Quick test_sweep_matches_naive ] );
      ( "stab",
        [ Alcotest.test_case "matches naive" `Quick test_stab_matches_naive ] );
      ( "tile",
        [
          Alcotest.test_case "partition" `Quick test_tile_partition;
          Alcotest.test_case "owner clamps" `Quick test_tile_owner_clamps;
        ] );
    ]
