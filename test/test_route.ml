(* Tests for the layer-wise A* router: path validity, exclusivity,
   space expansion, and the routed-design invariants. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let placed_problem name alg =
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p);
  p

let tiny_placed () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  p

let test_routes_all_nets () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes);
  Array.iteri
    (fun i rt -> checki "net order" i rt.Router.net)
    r.Router.routes

let test_route_check_clean () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_routes_connect_pins () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  Array.iter
    (fun rt ->
      match (rt.Router.points, List.rev rt.Router.points) with
      | (x0, _) :: _, (xn, yn) :: _ ->
          let e = p.Problem.nets.(rt.Router.net) in
          Alcotest.(check (float 1e-6)) "start x" (Problem.pin_x p rt.Router.net `Src) x0;
          Alcotest.(check (float 1e-6)) "end x" (Problem.pin_x p rt.Router.net `Dst) xn;
          let dc = p.Problem.cells.(e.Problem.dst) in
          Alcotest.(check (float 1e-6)) "end y"
            (Problem.row_top p dc.Problem.row) yn
      | _ -> Alcotest.fail "empty route")
    r.Router.routes

let test_rectilinear_on_grid () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let grid = Tech.default.Tech.grid in
  Array.iter
    (fun rt ->
      let rec walk = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            checkb "rectilinear" true (x1 = x2 || y1 = y2);
            checkb "x on grid" true (Float.rem x1 grid < 1e-6);
            checkb "y on grid" true (Float.rem y1 grid < 1e-6);
            walk rest
        | _ -> ()
      in
      walk rt.Router.points)
    r.Router.routes

let test_wirelength_consistent () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let sum =
    Array.fold_left
      (fun acc rt ->
        let rec len = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
              Float.abs (x2 -. x1) +. Float.abs (y2 -. y1) +. len rest
          | _ -> 0.0
        in
        acc +. len rt.Router.points)
      0.0 r.Router.routes
  in
  Alcotest.(check (float 1e-3)) "sum of segments" sum r.Router.wirelength;
  (* every route is at least as long as its net's Manhattan distance *)
  Array.iter
    (fun rt ->
      let e = p.Problem.nets.(rt.Router.net) in
      let lower = Problem.net_length p e in
      checkb "no shorter than manhattan" true (rt.Router.length +. 1e-6 >= lower))
    r.Router.routes

let test_expansion_monotone_gaps () =
  let p = placed_problem "adder8" Placer.Superflow in
  let before = Array.copy p.Problem.row_gaps in
  let r = Router.route_all p in
  checkb "expansions recorded" true (r.Router.expansions >= 0);
  Array.iteri
    (fun i g -> checkb "gaps only grow" true (g >= before.(i) -. 1e-9))
    p.Problem.row_gaps

let test_larger_benchmarks_route () =
  List.iter
    (fun name ->
      let p = placed_problem name Placer.Superflow in
      let r = Router.route_all p in
      (match Router.check_routes p r with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      checkb (name ^ " wl sane") true (r.Router.wirelength > 0.0))
    [ "apc32"; "decoder" ]

let test_gordian_placement_routes_too () =
  let p = placed_problem "adder8" Placer.Gordian in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_negotiated_mode () =
  let p = tiny_placed () in
  let r = Router.route_all ~algorithm:Router.Negotiated p in
  (match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes)

let test_negotiated_not_worse () =
  (* negotiation should never need more space than sequential claiming *)
  let route alg =
    let p = placed_problem "adder8" Placer.Superflow in
    let r = Router.route_all ~algorithm:alg p in
    (match Router.check_routes p r with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    r.Router.expansions
  in
  checkb "fewer or equal expansions" true
    (route Router.Negotiated <= route Router.Sequential)

(* ---------- congestion estimation ---------- *)

let test_congestion_density_manual () =
  (* two nets with overlapping spans in one gap -> density 2 *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Buf [| a |] in
  let y = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl Netlist.Output [| x |]);
  ignore (Netlist.add nl Netlist.Output [| y |]);
  ignore (Netlist.levelize nl);
  let p = Problem.of_netlist Tech.default nl in
  (* force the two gap-0 nets to cross: a at 0 -> x at far right, and
     b at far right -> y at 0 *)
  let cell_of node =
    let idx = ref (-1) in
    Array.iteri (fun i c -> if c.Problem.node = node then idx := i) p.Problem.cells;
    p.Problem.cells.(!idx)
  in
  (cell_of a).Problem.x <- 0.0;
  (cell_of b).Problem.x <- 500.0;
  (cell_of x).Problem.x <- 500.0;
  (cell_of y).Problem.x <- 0.0;
  checki "crossing nets overlap" 2 (Congestion.channel_density p 0);
  (* parallel (non-overlapping) spans -> density 1 *)
  (cell_of x).Problem.x <- 0.0;
  (cell_of y).Problem.x <- 500.0;
  checki "parallel nets" 1 (Congestion.channel_density p 0)

let test_congestion_preexpand_reduces_expansions () =
  let route_with_preexpand pre =
    let p = placed_problem "apc32" Placer.Superflow in
    if pre then ignore (Congestion.preexpand p);
    let r = Router.route_all p in
    r.Router.expansions
  in
  checkb "preexpansion saves router work" true
    (route_with_preexpand true <= route_with_preexpand false)

let prop_routes_edge_disjoint =
  (* check_routes validates edge-disjointness; also verify net ids and
     via counts are consistent across random placement seeds *)
  QCheck.Test.make ~name:"routing is valid across placement seeds" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let aoi = Circuits.kogge_stone_adder 2 in
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place ~seed Placer.Superflow p);
      let r = Router.route_all p in
      Router.check_routes p r = Ok ()
      && r.Router.total_vias
         = Array.fold_left (fun acc rt -> acc + rt.Router.vias) 0 r.Router.routes)

(* Everything that must be deterministic about a routing result —
   excludes runtime_s. *)
let fingerprint r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Router.routes, r.Router.expansions, r.Router.node_expansions,
            r.Router.neg_rounds, r.Router.neg_rerouted, r.Router.wirelength,
            r.Router.total_vias )
          []))

let prop_valid_and_jobs_invariant =
  (* over random placement seeds: both algorithms produce
     check_routes-clean results that are byte-identical at jobs=1 and
     jobs=4 (pair-local search state plus a fixed merge order make
     worker count unobservable) *)
  QCheck.Test.make
    ~name:"valid across seeds and jobs-invariant" ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let placed () =
        let aoi = Circuits.kogge_stone_adder 2 in
        let aqfp = Synth_flow.run_quiet aoi in
        let p = Problem.of_netlist Tech.default aqfp in
        ignore (Placer.place ~seed Placer.Superflow p);
        p
      in
      let route jobs alg =
        Parallel.set_jobs jobs;
        Fun.protect ~finally:Parallel.auto_jobs (fun () ->
            let p = placed () in
            let r = Router.route_all ~algorithm:alg p in
            (Router.check_routes p r = Ok (), fingerprint r))
      in
      List.for_all
        (fun alg ->
          let ok1, f1 = route 1 alg in
          let ok4, f4 = route 4 alg in
          ok1 && ok4 && f1 = f4)
        [ Router.Sequential; Router.Negotiated ])

let test_known_answer_sequential () =
  (* sequential QoR on a real benchmark, pinned exactly: ties between
     equal-cost paths follow the search's lower bound and queue order,
     and space expansions follow the promotion policy, so a change to
     any of them moves these numbers and must re-pin them on purpose *)
  let p = placed_problem "adder8" Placer.Superflow in
  let r = Router.route_all ~algorithm:Router.Sequential p in
  Alcotest.(check (float 1e-6)) "wirelength" 130840.0 r.Router.wirelength;
  checki "vias" 1244 r.Router.total_vias;
  checki "space expansions" 58 r.Router.expansions;
  checki "node expansions" 325356 r.Router.node_expansions

(* Golden routing: the exact routed bytes and counters for the flow's
   placements of three designs, generated by the router with the
   turn-aware search bound. Sequential [node_expansions] is pinned
   exactly; Negotiated may only pop fewer states than it did then. *)
let golden_routes =
  [
    ( "adder8", Router.Sequential,
      "b68513ff9c55e12621095d7b12e5c054 wl=0x1.55a4p+17 vias=1718 exp=6 rounds=0 rerouted=0",
      195047 );
    ( "adder8", Router.Negotiated,
      "fc7e8cedef6c3a01b5ffada90042376a wl=0x1.54d7p+17 vias=1672 exp=6 rounds=5 rerouted=1155",
      228627 );
    ( "apc32", Router.Sequential,
      "e7c7f4af921e64cc1e942bd23f3daee3 wl=0x1.e8a2p+16 vias=1382 exp=15 rounds=0 rerouted=0",
      186002 );
    ( "apc32", Router.Negotiated,
      "11434a8f732b57a65273c90eaf6053e0 wl=0x1.e528p+16 vias=1328 exp=12 rounds=4 rerouted=1014",
      413879 );
    ( "decoder6", Router.Sequential,
      "a074049bb7ed0b87253b09c11a0cf4a6 wl=0x1.fba08p+18 vias=3554 exp=8 rounds=0 rerouted=0",
      1131871 );
    ( "decoder6", Router.Negotiated,
      "c3e9a91f4c078e18a19f6558829604ac wl=0x1.f8308p+18 vias=3470 exp=4 rounds=5 rerouted=2856",
      1056153 );
  ]

(* the flow's placement stage: place, thread buffer lines, settle them,
   pre-size the channels (decoder 6 is placed by GORDIAN, as in the
   perf benchmark's congested workload) *)
let golden_problem name =
  let aoi, alg =
    match name with
    | "decoder6" -> (Circuits.decoder 6, Placer.Gordian)
    | _ -> (Circuits.benchmark name, Placer.Superflow)
  in
  let aqfp = Synth_flow.run_quiet aoi in
  let p0 = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p0);
  let _, p, lines = Bufferline.insert aqfp p0 in
  if lines > 0 then
    ignore
      (Detailed.run
         ~options:{ Detailed.default_options with max_passes = 3; window = 2 }
         p);
  ignore (Congestion.preexpand p);
  p

let test_router_golden () =
  List.iter
    (fun (name, alg, expected, pops) ->
      let r = Router.route_all ~algorithm:alg (golden_problem name) in
      let points =
        Array.to_list r.Router.routes
        |> List.map (fun rt ->
               String.concat ";"
                 (List.map (fun (x, y) -> Printf.sprintf "%h,%h" x y) rt.Router.points))
        |> String.concat "|" |> Digest.string |> Digest.to_hex
      in
      let got =
        Printf.sprintf "%s wl=%h vias=%d exp=%d rounds=%d rerouted=%d" points
          r.Router.wirelength r.Router.total_vias r.Router.expansions
          r.Router.neg_rounds r.Router.neg_rerouted
      in
      let what = name ^ if alg = Router.Sequential then " sequential" else " negotiated" in
      Alcotest.(check string) (what ^ " routes") expected got;
      if alg = Router.Sequential then
        checki (what ^ " node expansions") pops r.Router.node_expansions
      else
        checkb (what ^ " node expansions do not grow") true
          (r.Router.node_expansions <= pops))
    golden_routes

(* Space expansion grows a channel at the bottom, so it cannot free a
   net walled in just below its source pin by nets routed before it:
   on c1355 after full resynthesis such a net failed at every gap and
   the flow raised [Unroutable] after 400 expansions, until a net that
   fails again right after its own expansion was promoted. *)
let test_walled_in_net_promoted () =
  let r = Flow.run ~resyn_effort:Resyn.Full (Circuits.benchmark "c1355") in
  match Router.check_routes r.Flow.problem r.Flow.routing with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------- search optimality oracle ---------- *)

(* A random search instance on a small grid: random blockages, random
   owners (free, the searching net's own, a foreign net's) and either
   sequential or negotiated costs with random tenancy, history and
   present price. Prices are sparse, so that many paths differ by less
   than a via, where an overestimated via bound shows. The window always
   spans both pins, as the router's bounding boxes do. *)
type instance = {
  g : Search.grid;
  costs : Search.costs;
  via_q : int;
  sx : int;
  sy : int;
  gx : int;
  gy : int;
  lo_x : int;
  hi_x : int;
}

let random_instance rng =
  let int n = Random.State.int rng n in
  let nx = 2 + int 9 and ny = 2 + int 9 in
  let n = nx * ny in
  let net = 1 in
  (* per-instance densities, from open grids to crowded ones *)
  let sparse = 4 + int 20 in
  let owners () =
    Array.init n (fun _ ->
        match int sparse with 0 -> 2 | 1 -> net | _ -> -1)
  in
  let g =
    {
      Search.nx;
      ny;
      grid = 10.0;
      blocked = Array.init n (fun _ -> int sparse = 0);
      blocked_h = Array.init n (fun _ -> int sparse = 0);
      h_owner = owners ();
      v_owner = owners ();
      node_h = owners ();
      node_v = owners ();
    }
  in
  let costs =
    if Random.State.bool rng then Search.owned_costs ~net
    else begin
      let neg = Search.neg_state n in
      let fill bound a =
        Array.iteri (fun i _ -> if int sparse < 3 then a.(i) <- 1 + int bound) a
      in
      List.iter (fill 3) [ neg.Search.h_use; neg.v_use; neg.nh_use; neg.nv_use ];
      List.iter (fill 40) [ neg.Search.h_hist; neg.v_hist; neg.nh_hist; neg.nv_hist ];
      Search.negotiated_costs neg ~present_q:(int 64) ~net
    end
  in
  let sx = int nx and gx = int nx in
  let lo = min sx gx and hi = max sx gx in
  {
    g;
    costs;
    via_q = (if int 4 = 0 then 0 else 1 + int 64);
    sx;
    sy = int ny;
    gx;
    gy = int ny;
    lo_x = (if Random.State.bool rng then 0 else lo - int (lo + 1));
    hi_x = (if Random.State.bool rng then nx - 1 else hi + int (nx - hi));
  }

(* The move rules, restated test-side: the cost of stepping from
   ([ix], [iy]) reached on layer [dir] to the neighbour ([nix], [niy]),
   with the layer the step runs on, or [None] when it is illegal.
   Horizontal runs are metal 1, vertical runs metal 2, a layer change is
   a via; an owned edge or node-layer slot is forbidden, a priced one
   costs present price times tenancy plus history. *)
let move t (ix, iy, dir) (nix, niy) =
  let g = t.g in
  let nx = g.Search.nx in
  let node = (iy * nx) + ix and nnode = (niy * nx) + nix in
  let horizontal = niy = iy && abs (nix - ix) = 1 in
  let vertical = nix = ix && abs (niy - iy) = 1 in
  let free owner i = owner.(i) = -1 || owner.(i) = t.costs.Search.net in
  let price use hist i =
    if t.costs.Search.priced then (t.costs.Search.present_q * use.(i)) + hist.(i)
    else 0
  in
  let neg = t.costs.Search.neg in
  let step ndir edge_owner slot_owner use hist nuse nhist =
    let edge = min node nnode in
    if
      ((not g.Search.blocked.(nnode)) || (nix = t.gx && niy = t.gy))
      && free edge_owner edge && free slot_owner nnode
      && free slot_owner node
    then
      Some
        ( Search.qscale
          + (if dir <> ndir then t.via_q else 0)
          + price use hist edge + price nuse nhist nnode,
          ndir )
    else None
  in
  if horizontal then
    if
      nix < t.lo_x || nix > t.hi_x || g.Search.blocked_h.(node)
      || g.Search.blocked_h.(nnode)
    then None
    else
      step Search.dir_h g.Search.h_owner g.Search.node_h neg.Search.h_use
        neg.Search.h_hist neg.Search.nh_use neg.Search.nh_hist
  else if vertical && niy >= 0 && niy < g.Search.ny then
    step Search.dir_v g.Search.v_owner g.Search.node_v neg.Search.v_use
      neg.Search.v_hist neg.Search.nv_use neg.Search.nv_hist
  else None

(* the forced first move: straight down out of the source pin, unpriced *)
let seed_ok t =
  let g = t.g in
  let nx = g.Search.nx in
  let free owner i = owner.(i) = -1 || owner.(i) = t.costs.Search.net in
  t.sy + 1 < g.Search.ny
  && free g.Search.v_owner ((t.sy * nx) + t.sx)
  && (not g.Search.blocked.(((t.sy + 1) * nx) + t.sx))
  && free g.Search.node_v (((t.sy + 1) * nx) + t.sx)

(* Plain Dijkstra over (node, arrival layer) states with [move]'s costs:
   the optimal cost of reaching the goal vertically, if any path does. *)
let oracle t =
  let nx = t.g.Search.nx and ny = t.g.Search.ny in
  let id (ix, iy, dir) = (((iy * nx) + ix) * 2) + dir in
  let n = nx * ny * 2 in
  let dist = Array.make n max_int and settled = Array.make n false in
  let goal = id (t.gx, t.gy, Search.dir_v) in
  if seed_ok t then dist.(id (t.sx, t.sy + 1, Search.dir_v)) <- Search.qscale;
  let rec loop () =
    let best = ref (-1) in
    Array.iteri
      (fun s d ->
        if (not settled.(s)) && d < max_int && (!best < 0 || d < dist.(!best))
        then best := s)
      dist;
    let s = !best in
    if s >= 0 && s <> goal then begin
      settled.(s) <- true;
      let node = s / 2 in
      let ix = node mod nx and iy = node / nx in
      List.iter
        (fun (nix, niy) ->
          match move t (ix, iy, s land 1) (nix, niy) with
          | Some (c, ndir) ->
              let ns = id (nix, niy, ndir) in
              if dist.(s) + c < dist.(ns) then dist.(ns) <- dist.(s) + c
          | None -> ())
        [ (ix + 1, iy); (ix - 1, iy); (ix, iy + 1); (ix, iy - 1) ];
      loop ()
    end
  in
  loop ();
  if dist.(goal) = max_int then None else Some dist.(goal)

(* The cost of a returned path, recomputed step by step; fails unless
   it starts with the forced descent, takes only legal moves on the
   layers it claims and ends with a vertical arrival at the goal. *)
let path_cost t path =
  let fail fmt = Alcotest.failf fmt in
  let rec walk cost = function
    | [ last ] ->
        if last <> (t.gx, t.gy, Search.dir_v) then
          fail "path does not end with a vertical arrival at the goal";
        cost
    | here :: ((nix, niy, ndir) :: _ as rest) -> (
        match move t here (nix, niy) with
        | Some (c, d) when d = ndir -> walk (cost + c) rest
        | _ -> fail "illegal move to (%d,%d) on layer %d" nix niy ndir)
    | [] -> fail "empty path"
  in
  match path with
  | src :: ((first :: _) as rest) ->
      if
        src <> (t.sx, t.sy, Search.dir_v)
        || first <> (t.sx, t.sy + 1, Search.dir_v)
      then fail "path does not start with the forced descent";
      walk Search.qscale rest
  | _ -> fail "path has no first move"

(* [Search.run] against the oracle on thousands of random instances,
   through one arena so epoch reuse and arena growth are exercised *)
let test_search_optimal () =
  let rng = Random.State.make [| 27 |] in
  let arena = Search.create_arena () in
  let routed = ref 0 and unroutable = ref 0 in
  for case = 1 to 4000 do
    let t = random_instance rng in
    let got =
      Search.run arena t.g ~costs:t.costs ~via_q:t.via_q ~sx:t.sx ~sy:t.sy
        ~gx:t.gx ~gy:t.gy ~lo_x:t.lo_x ~hi_x:t.hi_x
    in
    let what = Printf.sprintf "case %d" case in
    match (got, oracle t) with
    | Some path, Some best ->
        incr routed;
        let cost = path_cost t path in
        if cost <> best then
          Alcotest.failf "%s: path cost %d, optimum %d" what cost best
    | None, None -> incr unroutable
    | Some _, None -> Alcotest.failf "%s: path where the oracle has none" what
    | None, Some best -> Alcotest.failf "%s: no path, oracle cost %d" what best
  done;
  checkb "many instances routable" true (!routed > 1000);
  checkb "many instances unroutable" true (!unroutable > 1000)

let () =
  Alcotest.run "sf_route"
    [
      ( "router",
        [
          Alcotest.test_case "routes all nets" `Quick test_routes_all_nets;
          Alcotest.test_case "check clean" `Quick test_route_check_clean;
          Alcotest.test_case "connects pins" `Quick test_routes_connect_pins;
          Alcotest.test_case "rectilinear on grid" `Quick test_rectilinear_on_grid;
          Alcotest.test_case "wirelength consistent" `Quick test_wirelength_consistent;
          Alcotest.test_case "expansion" `Slow test_expansion_monotone_gaps;
          Alcotest.test_case "larger benchmarks" `Slow test_larger_benchmarks_route;
          Alcotest.test_case "gordian placement" `Slow test_gordian_placement_routes_too;
          Alcotest.test_case "negotiated mode" `Quick test_negotiated_mode;
          Alcotest.test_case "negotiated expansions" `Slow test_negotiated_not_worse;
          Alcotest.test_case "congestion density" `Quick test_congestion_density_manual;
          Alcotest.test_case "preexpand" `Slow test_congestion_preexpand_reduces_expansions;
          QCheck_alcotest.to_alcotest prop_routes_edge_disjoint;
          Alcotest.test_case "known answer (sequential)" `Quick
            test_known_answer_sequential;
          QCheck_alcotest.to_alcotest prop_valid_and_jobs_invariant;
          Alcotest.test_case "golden routes" `Slow test_router_golden;
          Alcotest.test_case "search is optimal" `Quick test_search_optimal;
          Alcotest.test_case "walled-in net promoted" `Slow
            test_walled_in_net_promoted;
        ] );
    ]
