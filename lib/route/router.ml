open Search

type route = {
  net : int;
  points : (float * float) list;
  vias : int;
  length : float;
}

type result = {
  routes : route array;
  expansions : int; (* space expansions: channel-growth retries *)
  node_expansions : int; (* A* states popped across all searches *)
  neg_rounds : int; (* max negotiation rounds over all row pairs *)
  neg_rerouted : int; (* total net reroutes across negotiation rounds *)
  wirelength : float;
  total_vias : int;
  runtime_s : float;
}

exception Unroutable of int

(* [gap] is the pair's own routing gap (the caller tracks growth
   locally during space expansion and commits it to
   [Problem.row_gaps] once routing settles). *)
let make_grid p r ~margin ~gap : Search.grid =
  let tech = p.Problem.tech in
  let grid = tech.Tech.grid in
  let height = p.Problem.row_height +. gap in
  let width = Problem.row_width p +. margin in
  let nx = (int_of_float (width /. grid)) + 1 in
  let ny = (int_of_float (height /. grid +. 0.5)) + 1 in
  let g =
    {
      nx;
      ny;
      grid;
      blocked = Array.make (nx * ny) false;
      blocked_h = Array.make (nx * ny) false;
      h_owner = Array.make (nx * ny) (-1);
      v_owner = Array.make (nx * ny) (-1);
      node_h = Array.make (nx * ny) (-1);
      node_v = Array.make (nx * ny) (-1);
    }
  in
  (* row r's top line belongs to the previous pair; block it. The
     bottom boundary holds the sink pins: vertical arrival only. *)
  for ix = 0 to nx - 1 do
    g.blocked.(ix) <- true;
    g.blocked_h.(((ny - 1) * nx) + ix) <- true
  done;
  (* cell bodies of row r: closed in x (wires keep a full pitch away
     laterally), open in y (pins on the bottom edge stay reachable). *)
  Array.iter
    (fun ci ->
      let c = p.Problem.cells.(ci) in
      let lx = int_of_float (c.Problem.x /. grid +. 0.5) in
      let hx = int_of_float ((c.Problem.x +. c.Problem.lib.Cell.width) /. grid +. 0.5) in
      let hy = int_of_float (c.Problem.lib.Cell.height /. grid +. 0.5) in
      for ix = max 0 lx to min (nx - 1) hx do
        for iy = 1 to min (ny - 1) (hy - 1) do
          g.blocked.((iy * nx) + ix) <- true
        done;
        (* the cell's bottom edge carries its output pins: no
           horizontal runs across it *)
        if hy <= ny - 1 then g.blocked_h.((hy * nx) + ix) <- true
      done)
    p.Problem.row_cells.(r);
  g

(* Commit a routed path: claim edges and per-layer nodes. *)
let commit g ~net path =
  let rec claim = function
    | (x1, y1, _) :: ((x2, y2, dir) :: _ as rest) ->
        if dir = dir_h then begin
          let ex = min x1 x2 in
          g.h_owner.(node_index g ex y1) <- net;
          g.node_h.(node_index g x1 y1) <- net;
          g.node_h.(node_index g x2 y2) <- net
        end
        else begin
          let ey = min y1 y2 in
          g.v_owner.((ey * g.nx) + x1) <- net;
          g.node_v.(node_index g x1 y1) <- net;
          g.node_v.(node_index g x2 y2) <- net
        end;
        claim rest
    | _ -> ()
  in
  claim path

(* Convert a pair-local path to absolute coordinates; [y0] is the top
   of the pair's upper row once every pair's gap growth is known. *)
let path_to_route ~grid ~y0 ~net path =
  let coords =
    List.map (fun (ix, iy, _) -> (0.0 +. (float_of_int ix *. grid), y0 +. (float_of_int iy *. grid))) path
  in
  (* keep corners only *)
  let rec simplify = function
    | (x1, y1) :: (x2, y2) :: (x3, y3) :: rest
      when (x1 = x2 && x2 = x3) || (y1 = y2 && y2 = y3) ->
        simplify ((x1, y1) :: (x3, y3) :: rest)
    | p :: rest -> p :: simplify rest
    | [] -> []
  in
  let points = simplify coords in
  let length = grid *. float_of_int (List.length path - 1) in
  let vias = max 0 (List.length points - 2) in
  { net; points; vias; length }

(* ---- dirty-net negotiation over the shared search core ----

   PathFinder-style rip-up-and-reroute where tallies persist across
   rounds: a net reroutes only when it is dirty — it has no path yet,
   or some resource its path occupies has more than one tenant.
   Clean nets keep their paths and their tallies, so late rounds cost
   only the congested remainder instead of a full re-route of every
   net. *)

(* A net's tallied resources, deduplicated, encoded (idx lsl 2) lor
   kind so untallying is a flat list walk. *)
let kind_eh = 0 (* horizontal edge *)
let kind_ev = 1 (* vertical edge *)
let kind_nh = 2 (* node on the horizontal layer *)
let kind_nv = 3 (* node on the vertical layer *)

(* dedup stamps for one tally pass: a path claims both endpoints of
   every edge, so consecutive segments touch shared nodes twice *)
type neg_stamps = {
  mutable op : int;
  st_eh : int array;
  st_ev : int array;
  st_nh : int array;
  st_nv : int array;
}

let make_stamps g =
  let n = g.nx * g.ny in
  {
    op = 0;
    st_eh = Array.make n 0;
    st_ev = Array.make n 0;
    st_nh = Array.make n 0;
    st_nv = Array.make n 0;
  }

(* tally a path's resource usage; returns the deduped resource list *)
let tally g neg st path =
  st.op <- st.op + 1;
  let op = st.op in
  let res = ref [] in
  let mark stamp use kind idx =
    if stamp.(idx) <> op then begin
      stamp.(idx) <- op;
      use.(idx) <- use.(idx) + 1;
      res := ((idx lsl 2) lor kind) :: !res
    end
  in
  let rec claim = function
    | (x1, y1, _) :: ((x2, y2, dir) :: _ as rest) ->
        if dir = dir_h then begin
          mark st.st_eh neg.h_use kind_eh (node_index g (min x1 x2) y1);
          mark st.st_nh neg.nh_use kind_nh (node_index g x1 y1);
          mark st.st_nh neg.nh_use kind_nh (node_index g x2 y2)
        end
        else begin
          mark st.st_ev neg.v_use kind_ev ((min y1 y2 * g.nx) + x1);
          mark st.st_nv neg.nv_use kind_nv (node_index g x1 y1);
          mark st.st_nv neg.nv_use kind_nv (node_index g x2 y2)
        end;
        claim rest
    | _ -> ()
  in
  claim path;
  !res

let use_of_kind neg = function
  | 0 -> neg.h_use
  | 1 -> neg.v_use
  | 2 -> neg.nh_use
  | _ -> neg.nv_use

let untally neg res =
  List.iter
    (fun r ->
      let use = use_of_kind neg (r land 3) in
      let idx = r lsr 2 in
      use.(idx) <- use.(idx) - 1)
    res

(* a net is dirty when any resource it occupies is overused *)
let touches_overuse neg res =
  List.exists
    (fun r -> (use_of_kind neg (r land 3)).(r lsr 2) > 1)
    res

(* One negotiation attempt for a whole pair. Returns routed paths
   (in endpoint order) with round/reroute counts if every resource
   ended with a single tenant. *)
let negotiate_pair g arena endpoints ~via_q ~max_iterations =
  let neg = neg_state (g.nx * g.ny) in
  let st = make_stamps g in
  let eps = Array.of_list endpoints in
  let n = Array.length eps in
  (* per endpoint: its current path and deduped resource list *)
  let paths = Array.make n None in
  let present = ref (0.5 *. g.grid) in
  let converged = ref false in
  let rounds = ref 0 in
  let rerouted = ref 0 in
  while (not !converged) && !rounds < max_iterations do
    incr rounds;
    let present_q = max 1 (quantize g !present) in
    let all_routed = ref true in
    Array.iteri
      (fun i (ni, sx, sy, gx, gy) ->
        let dirty =
          match paths.(i) with
          | None -> true
          | Some (_, res) -> touches_overuse neg res
        in
        if dirty then begin
          incr rerouted;
          (match paths.(i) with
          | Some (_, res) ->
              untally neg res;
              paths.(i) <- None
          | None -> ());
          let costs = negotiated_costs neg ~present_q ~net:ni in
          match run_bboxed arena g ~costs ~via_q ~sx ~sy ~gx ~gy with
          | Some path -> paths.(i) <- Some (path, tally g neg st path)
          | None -> all_routed := false
        end)
      eps;
    (* overuse -> history, and check convergence *)
    let overused = ref false in
    let bump use hist =
      Array.iteri
        (fun i u ->
          if u > 1 then begin
            overused := true;
            hist.(i) <- hist.(i) + (qscale * (u - 1))
          end)
        use
    in
    bump neg.h_use neg.h_hist;
    bump neg.v_use neg.v_hist;
    bump neg.nh_use neg.nh_hist;
    bump neg.nv_use neg.nv_hist;
    converged := !all_routed && not !overused;
    present := !present *. 1.6
  done;
  if !converged then begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      match paths.(i) with
      | Some (path, _) ->
          let ni, _, _, _, _ = eps.(i) in
          out := (ni, path) :: !out
      | None -> assert false
    done;
    Some (!out, !rounds, !rerouted)
  end
  else None

type algorithm = Sequential | Negotiated

(* everything a finished pair hands back to the merge step: routed
   paths still in pair-local grid indices, plus the gap the pair ended
   up needing and how many expansion steps it took to get there *)
type pair_outcome = {
  pair_paths : (int * (int * int * int) list) list; (* (net, path), net order *)
  pair_gap : float;
  pair_expansions : int;
  pair_node_expansions : int;
  pair_rounds : int;
  pair_rerouted : int;
}

(* Route one row pair start to finish: ordering, pin reservation,
   claiming (or negotiation), promotion retries, space expansion. Pure
   with respect to shared state — reads only row [r]'s cells and its
   starting gap, tracks gap growth locally — so pairs can run on
   separate domains and still produce bit-identical results in any
   interleaving. *)
(* cost of one via in the A* search (µm-equivalent), and the space
   expansions a row pair may take before its net is unroutable *)
let via_cost = 20.0
let max_expansions = 400

let route_pair p r ~nets ~algorithm ~margin =
  let tech = p.Problem.tech in
  let grid = tech.Tech.grid in
  let gap = ref p.Problem.row_gaps.(r) in
  let expansions = ref 0 in
  let arena = create_arena () in
  let rounds = ref 0 in
  let rerouted = ref 0 in
  (* a net that failed sequential claiming is promoted to the front of
     the next attempt: often it just needs first pick of the tracks,
     which is much cheaper than growing the channel *)
  let promoted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let order_nets () =
    List.sort
      (fun a b ->
        let prio n = if Hashtbl.mem promoted n then 0 else 1 in
        match Int.compare (prio a) (prio b) with
        | 0 ->
            Float.compare
              (Float.abs (Problem.net_dx p p.Problem.nets.(a)))
              (Float.abs (Problem.net_dx p p.Problem.nets.(b)))
        | c -> c)
      nets
  in
  let rec attempt ~promotions tries =
    let nets = order_nets () in
    let g = make_grid p r ~margin ~gap:!gap in
    let via_q = quantize g via_cost in
    let to_grid_x x = int_of_float (x /. grid +. 0.5) in
    let to_grid_y y = int_of_float (y /. grid +. 0.5) in
    (* reserve every net's pin-escape edges up front so early-routed nets
       cannot wall in a later net's pins *)
    let endpoints =
      List.map
        (fun ni ->
          let e = p.Problem.nets.(ni) in
          let sc = p.Problem.cells.(e.Problem.src) in
          let sx = to_grid_x (Problem.pin_x p ni `Src) in
          let sy = to_grid_y sc.Problem.lib.Cell.height in
          let gx = to_grid_x (Problem.pin_x p ni `Dst) in
          let gy = g.ny - 1 in
          (ni, sx, sy, gx, gy))
        nets
    in
    List.iter
      (fun (ni, sx, sy, gx, gy) ->
        (* escape edges and the vertical occupancy of the pin-adjacent
           nodes: without this an earlier net's vertical run through
           (gx, gy-1) would make the final descent impossible no
           matter how much space expansion adds *)
        if sy < g.ny - 1 then begin
          g.v_owner.((sy * g.nx) + sx) <- ni;
          g.node_v.(node_index g sx sy) <- ni;
          g.node_v.(node_index g sx (sy + 1)) <- ni;
          g.node_h.(node_index g sx (sy + 1)) <- ni
        end;
        if gy > 0 then begin
          g.v_owner.(((gy - 1) * g.nx) + gx) <- ni;
          g.node_v.(node_index g gx gy) <- ni;
          g.node_v.(node_index g gx (gy - 1)) <- ni;
          g.node_h.(node_index g gx (gy - 1)) <- ni
        end)
      endpoints;
    let failed = ref None in
    let paths = ref [] in
    (match algorithm with
    | Negotiated -> (
        match negotiate_pair g arena endpoints ~via_q ~max_iterations:24 with
        | Some (routed, rds, rr) ->
            rounds := max !rounds rds;
            rerouted := !rerouted + rr;
            List.iter
              (fun (ni, path) ->
                commit g ~net:ni path;
                paths := (ni, path) :: !paths)
              routed
        | None -> (
            (* negotiation failed: blame the head of the net order, and
               grow the channel (see below) *)
            match endpoints with
            | (first, _, _, _, _) :: _ -> failed := Some first
            | [] -> ()))
    | Sequential ->
        List.iter
          (fun (ni, sx, sy, gx, gy) ->
            if !failed = None then begin
              let costs = owned_costs ~net:ni in
              match run_bboxed arena g ~costs ~via_q ~sx ~sy ~gx ~gy with
              | Some path ->
                  commit g ~net:ni path;
                  paths := (ni, path) :: !paths
              | None -> failed := Some ni
            end)
          endpoints);
    match !failed with
    | None ->
        {
          pair_paths = List.rev !paths;
          pair_gap = !gap;
          pair_expansions = !expansions;
          pair_node_expansions = arena.Search.expansions;
          pair_rounds = !rounds;
          pair_rerouted = !rerouted;
        }
    | Some ni ->
        (* a failed negotiation goes straight to space expansion: it
           blames the head of the net order, which already sorts first,
           and the attempt is a pure function of geometry and order, so
           a promoted rerun would fail again, bit for bit *)
        let promote =
          match algorithm with
          | Sequential -> promotions < 3 && not (Hashtbl.mem promoted ni)
          | Negotiated -> false
        in
        if promote then begin
          Hashtbl.replace promoted ni ();
          attempt ~promotions:(promotions + 1) tries
        end
        else begin
          if tries >= max_expansions then raise (Unroutable ni);
          incr expansions;
          gap := !gap +. tech.Tech.s_min;
          attempt ~promotions (tries + 1)
        end
  in
  attempt ~promotions:0 0

let route_all ?(algorithm = Sequential) p =
  let t0 = Wallclock.now_s () in
  let tech = p.Problem.tech in
  let grid = tech.Tech.grid in
  let margin = 30.0 *. grid in
  let n_nets = Array.length p.Problem.nets in
  let routes = Array.make n_nets None in
  (* nets grouped by source row *)
  let by_row = Array.make (max 1 p.Problem.n_rows) [] in
  Array.iteri
    (fun ni e ->
      let r = p.Problem.cells.(e.Problem.src).Problem.row in
      by_row.(r) <- ni :: by_row.(r))
    p.Problem.nets;
  let n_pairs = max 0 (p.Problem.n_rows - 1) in
  (* route all pairs concurrently (one task per pair, in row order);
     failures are captured per pair and re-raised deterministically *)
  let outcomes =
    Parallel.map_chunks ~label:"route.pairs" ~chunk:1 ~n:n_pairs (fun r _ ->
        try
          Ok
            (route_pair p r ~nets:by_row.(r) ~algorithm ~margin)
        with e -> Error e)
  in
  (* merge in row order: commit gap growth (raising the leftmost
     pair's failure, with earlier pairs' gaps committed, exactly like
     the serial loop did), then convert paths to absolute coordinates
     now that every row's final top is known *)
  Array.iteri
    (fun r outcome ->
      match outcome with
      | Ok oc -> p.Problem.row_gaps.(r) <- oc.pair_gap
      | Error e -> raise e)
    outcomes;
  let expansions = ref 0 in
  let node_expansions = ref 0 in
  let neg_rounds = ref 0 in
  let neg_rerouted = ref 0 in
  Array.iteri
    (fun r oc ->
      match oc with
      | Error _ -> assert false
      | Ok oc ->
          expansions := !expansions + oc.pair_expansions;
          node_expansions := !node_expansions + oc.pair_node_expansions;
          neg_rounds := max !neg_rounds oc.pair_rounds;
          neg_rerouted := !neg_rerouted + oc.pair_rerouted;
          let y0 = Problem.row_top p r in
          List.iter
            (fun (ni, path) ->
              routes.(ni) <- Some (path_to_route ~grid ~y0 ~net:ni path))
            oc.pair_paths)
    outcomes;
  let routes = Array.map Option.get routes in
  let wirelength = Array.fold_left (fun acc r -> acc +. r.length) 0.0 routes in
  let total_vias = Array.fold_left (fun acc r -> acc + r.vias) 0 routes in
  {
    routes;
    expansions = !expansions;
    node_expansions = !node_expansions;
    neg_rounds = !neg_rounds;
    neg_rerouted = !neg_rerouted;
    wirelength;
    total_vias;
    runtime_s = Wallclock.now_s () -. t0;
  }

let check_routes p result =
  let problems = ref [] in
  let push fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let grid = p.Problem.tech.Tech.grid in
  let seg_table : (int * int * int * bool, int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun rt ->
      let e = p.Problem.nets.(rt.net) in
      (match rt.points with
      | [] | [ _ ] -> push "net %d: degenerate route" rt.net
      | (x0, y0) :: _ ->
          let sx = Problem.pin_x p rt.net `Src in
          let sc = p.Problem.cells.(e.Problem.src) in
          let sy = Problem.row_top p sc.Problem.row +. sc.Problem.lib.Cell.height in
          if Float.abs (x0 -. sx) > 1e-6 || Float.abs (y0 -. sy) > 1e-6 then
            push "net %d: route does not start at source pin" rt.net);
      (match List.rev rt.points with
      | (xn, yn) :: _ ->
          let dx = Problem.pin_x p rt.net `Dst in
          let dc = p.Problem.cells.(e.Problem.dst) in
          let dy = Problem.row_top p dc.Problem.row in
          if Float.abs (xn -. dx) > 1e-6 || Float.abs (yn -. dy) > 1e-6 then
            push "net %d: route does not end at sink pin" rt.net
      | [] -> ());
      (* walk segments; register every grid edge *)
      let rec walk = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            if x1 <> x2 && y1 <> y2 then push "net %d: diagonal segment" rt.net
            else begin
              let horizontal = y1 = y2 in
              let steps =
                int_of_float (Float.abs ((x2 -. x1) +. (y2 -. y1)) /. grid +. 0.5)
              in
              for s = 0 to steps - 1 do
                let fx = if horizontal then Float.min x1 x2 +. (float_of_int s *. grid) else x1 in
                let fy = if horizontal then y1 else Float.min y1 y2 +. (float_of_int s *. grid) in
                let key =
                  ( int_of_float (fx /. grid +. 0.5),
                    int_of_float (fy /. grid +. 0.5),
                    0,
                    horizontal )
                in
                (match Hashtbl.find_opt seg_table key with
                | Some other when other <> rt.net ->
                    push "nets %d/%d share a grid edge" rt.net other
                | _ -> ());
                Hashtbl.replace seg_table key rt.net
              done
            end;
            walk rest
        | _ -> ()
      in
      walk rt.points)
    result.routes;
  match !problems with
  | [] -> Ok ()
  | ps ->
      Error (String.concat "; " (List.filteri (fun i _ -> i < 10) (List.rev ps)))
