(* The router's shared A* search core.

   Both routing algorithms — first-come-first-served claiming
   ([Sequential]) and PathFinder-style negotiation ([Negotiated]) —
   run the same state-space search over a row pair's grid: states are
   (node, arrival direction), horizontal runs live on metal 1 and
   vertical runs on metal 2, a turn is a via. They differ only in
   what an edge or node-layer slot costs: ownership makes foreign
   resources infinitely expensive, negotiation prices them. That
   difference is plain data, the first-order {!costs} record; the
   search body here is the single implementation both modes share,
   and reads the owner, tenancy and history arrays itself. A pop makes
   no closure call and allocates nothing: the neighbour relaxation is
   one function built per search, and {!Dqueue.pop} leaves the key in
   a field instead of returning a pair.

   Three mechanical properties make this core fast without changing
   what it computes:

   - {b Quantized integer costs.} Every cost is an integer count of
     1/16 grid units ({!qscale}). A grid step is exactly 16 quanta,
     via penalties and congestion prices are rounded to the nearest
     quantum. Integer arithmetic removes float rounding epsilons from
     the inner loop and puts priorities on the lattice the
     {!Dqueue} dial queue needs.
   - {b An epoch-stamped arena.} [dist]/[parent] arrays are allocated
     once per row pair and invalidated by bumping a generation
     counter instead of refilling O(nx*ny*2) floats per net. The
     dial queue is likewise reused across searches.
   - {b Bounding-box pruning with provable fallback.} A net is first
     searched inside its pin bounding box widened by
     {!bbox_margin} columns. If that window search fails, the caller
     re-runs on the full grid, so a net is declared unroutable only
     when the full-grid search — exactly the pre-window behavior —
     fails. Routability is therefore unchanged; only the (rare)
     paths whose optimal detour leaves the window can differ, and
     then by at most the detour the window still admits.

   The A* lower bound counts the vias a state still owes, not just
   its Manhattan distance: h(ix,iy,dir) = qscale*(|ix-gx| + |iy-gy|)
   + via_q*t. The goal must be entered vertically at column gx, so a
   horizontal state must turn at least once more (t = 1), a vertical
   state off that column at least twice (t = 2), and a vertical state
   on it not at all (t = 0). The bound is consistent: a move shifts
   the Manhattan term by at most the one grid step it pays for, and t
   moves (by exactly one) only across a turn, which pays via_q — a
   vertical move keeps the column, a horizontal one stays horizontal.
   Soft prices are never negative, so this holds for sequential and
   negotiated costs alike. The first pop of the goal therefore carries
   the optimal cost, as with the plain Manhattan bound; the bound only
   prunes (about two thirds of the pops on congested row pairs) and
   decides which of several equal-cost paths wins.

   Determinism: the search is a pure function of the grid, the cost
   record and the endpoints. Ties between equal-cost paths resolve
   by the dial queue's documented FIFO order, which depends only on
   push order — itself fixed by the (deterministic) expansion order —
   never on timing or domain count. *)

(* Directions: 0 = horizontal arrival (metal 1), 1 = vertical (metal 2). *)
let dir_h = 0
let dir_v = 1

(* A pair grid lives in pair-local coordinates: x from 0 at the row's
   left edge, y from 0 at the top of row [r]. Keeping the grid free of
   absolute y lets every row pair be routed on its own domain — a
   pair's decisions depend only on its own row's cells and its own
   gap, never on how much space pairs above it grabbed. Absolute
   coordinates are restored after all pairs finish. *)
type grid = {
  nx : int;
  ny : int;
  grid : float;
  blocked : bool array; (* nodes, nx*ny *)
  blocked_h : bool array; (* nodes where horizontal runs are forbidden
                             (cell pin edges, region boundaries) *)
  h_owner : int array; (* edge (ix,iy)-(ix+1,iy) *)
  v_owner : int array; (* edge (ix,iy)-(ix,iy+1) *)
  node_h : int array; (* node used by a horizontal run of net i *)
  node_v : int array;
}

let node_index g ix iy = (iy * g.nx) + ix

(* ---- cost quantization ---- *)

(* quanta per grid step; a power of two so grid-multiples stay exact *)
let qscale = 16

let quantize g cost = int_of_float ((cost /. g.grid *. float_of_int qscale) +. 0.5)

(* columns added around a net's pin bounding box before falling back
   to the full grid *)
let bbox_margin = 24

(* ---- move pricing ---- *)

(* Negotiation state: current tenancy counts and accumulated history,
   all in quantized units. The searching net's own usage is never in
   [*_use] (its previous path is untallied before it reroutes), so a
   slot's count is exactly its foreign tenancy. *)
type neg_state = {
  h_use : int array;
  v_use : int array;
  nh_use : int array;
  nv_use : int array;
  h_hist : int array;
  v_hist : int array;
  nh_hist : int array;
  nv_hist : int array;
}

let neg_state n =
  {
    h_use = Array.make n 0;
    v_use = Array.make n 0;
    nh_use = Array.make n 0;
    nv_use = Array.make n 0;
    h_hist = Array.make n 0;
    v_hist = Array.make n 0;
    nh_hist = Array.make n 0;
    nv_hist = Array.make n 0;
  }

(* What a move costs the searching [net], as plain data the search reads
   directly. Both modes share the hard constraints: an edge or a
   node-layer slot owned by another net (the grid's owner arrays) is
   forbidden. Only [priced] searches add a soft price to each crossed
   edge and each entered node: [present_q] per foreign tenant plus the
   accumulated history in [neg]. *)
type costs = {
  net : int;
  priced : bool;
  neg : neg_state;
  present_q : int;
}

(* sequential claiming: foreign resources are forbidden, nothing is priced *)
let owned_costs ~net = { net; priced = false; neg = neg_state 0; present_q = 0 }
let negotiated_costs neg ~present_q ~net = { net; priced = true; neg; present_q }

let[@inline] free owner ~net i =
  let o = owner.(i) in
  o = -1 || o = net

(* the soft price of one resource slot; 0 unless the search is priced *)
let[@inline] price c use hist i =
  if c.priced then (c.present_q * use.(i)) + hist.(i) else 0

(* ---- the search arena ---- *)

(* One arena serves every search of a row pair: arrays sized to the
   largest grid seen so far, invalidated per search by bumping
   [epoch] (a state's [dist]/[parent] are meaningful only when its
   stamp equals the current epoch). Nothing is re-allocated when the
   pair retries after promotion or space expansion — the arrays only
   grow, by doubling, when expansion enlarges the grid. *)
type arena = {
  mutable dist : int array; (* quantized g-cost per state *)
  mutable parent : int array;
  mutable stamp : int array;
  mutable epoch : int;
  queue : Dqueue.t;
  mutable expansions : int; (* states popped fresh, cumulative *)
}

let create_arena () =
  {
    dist = [||];
    parent = [||];
    stamp = [||];
    epoch = 0;
    queue = Dqueue.create ();
    expansions = 0;
  }

let ensure_arena a n =
  if Array.length a.dist < n then begin
    let n' = max n (2 * Array.length a.dist) in
    a.dist <- Array.make n' 0;
    a.parent <- Array.make n' 0;
    (* fresh stamps are 0; the epoch is always >= 1 by then *)
    a.stamp <- Array.make n' 0
  end

(* ---- the search itself ---- *)

(* A* for one net between pin escapes, restricted to columns
   [lo_x..hi_x] (callers pass [0, nx-1] for the full grid). The first
   move is forced downward out of the source pin; the goal must be
   entered vertically. Returns the node path source-first, or [None]
   when the goal is unreachable inside the window. *)
let run a g ~costs ~via_q ~sx ~sy ~gx ~gy ~lo_x ~hi_x =
  let nx = g.nx and ny = g.ny in
  ensure_arena a (nx * ny * 2);
  a.epoch <- a.epoch + 1;
  let epoch = a.epoch in
  let queue = a.queue in
  Dqueue.clear queue;
  let dist = a.dist and parent = a.parent and stamp = a.stamp in
  let net = costs.net and neg = costs.neg in
  (* Manhattan distance plus the vias the state still owes (see the
     header): one for a horizontal state, two for a vertical one off
     the goal column *)
  let two_vias = 2 * via_q in
  let[@inline] heuristic ix iy dir =
    (qscale * (abs (ix - gx) + abs (iy - gy)))
    + if dir = dir_h then via_q else if ix = gx then 0 else two_vias
  in
  (* forced first move down out of the source pin; the seed move is
     never priced *)
  let seeded =
    sy + 1 < ny
    && free g.v_owner ~net (node_index g sx sy)
    && (not g.blocked.(node_index g sx (sy + 1)))
    && free g.node_v ~net (node_index g sx (sy + 1))
  in
  let reconstruct goal_state =
    let rec walk s acc =
      if s = -2 then acc
      else
        let node = s lsr 1 in
        let ix = node mod nx and iy = node / nx in
        walk parent.(s) ((ix, iy, s land 1) :: acc)
    in
    Some ((sx, sy, dir_v) :: walk goal_state [])
  in
  (* straight-shot early exit: when the pins share a column and the
     whole descent is passable at zero price, that path costs exactly
     the Manhattan lower bound with zero vias — with via_q > 0 every
     other path is strictly costlier, so it is the unique optimum and
     the search can be skipped entirely *)
  let straight_shot () =
    sx = gx && via_q > 0 && seeded
    && begin
         let ok = ref true in
         let iy = ref (sy + 1) in
         while !ok && !iy < gy do
           let n = node_index g sx !iy in
           let nn = n + nx in
           if
             (not (free g.v_owner ~net n))
             || price costs neg.v_use neg.v_hist n <> 0
             || (g.blocked.(nn) && not (!iy + 1 = gy))
             || (not (free g.node_v ~net nn))
             || price costs neg.nv_use neg.nv_hist nn <> 0
           then ok := false;
           incr iy
         done;
         !ok
       end
  in
  (* Relax the move out of state [s] (node [node], arrival [dir], g-cost
     [d]) to ([nix], [niy]) on layer [ndir] across [edge]. Soft prices
     are never negative, so a neighbour that the unpriced step cannot
     improve is rejected before any owner array is read. The goal node
     is exempt from the blocked test (it sits on the region boundary);
     a run claims both endpoints of an edge on its layer. *)
  let relax s d node dir nix niy ndir edge =
    let nnode = (niy * nx) + nix in
    let ns = (nnode * 2) + ndir in
    let nd = d + qscale + if dir <> ndir then via_q else 0 in
    let fresh = stamp.(ns) <> epoch in
    if fresh || nd < dist.(ns) then begin
      let h = ndir = dir_h in
      let owners = if h then g.node_h else g.node_v in
      if
        free (if h then g.h_owner else g.v_owner) ~net edge
        && ((not g.blocked.(nnode)) || (nix = gx && niy = gy))
        && free owners ~net nnode && free owners ~net node
      then begin
        let nd =
          if h then
            nd + price costs neg.h_use neg.h_hist edge
            + price costs neg.nh_use neg.nh_hist nnode
          else
            nd + price costs neg.v_use neg.v_hist edge
            + price costs neg.nv_use neg.nv_hist nnode
        in
        if fresh || nd < dist.(ns) then begin
          dist.(ns) <- nd;
          parent.(ns) <- s;
          stamp.(ns) <- epoch;
          Dqueue.push queue (nd + heuristic nix niy ndir) ns
        end
      end
    end
  in
  if not seeded then None
  else if gy > sy && straight_shot () then begin
    a.expansions <- a.expansions + (gy - sy);
    let rec steps iy acc =
      if iy <= sy then acc else steps (iy - 1) ((sx, iy, dir_v) :: acc)
    in
    Some ((sx, sy, dir_v) :: steps gy [])
  end
  else begin
    let s0 = (node_index g sx (sy + 1) * 2) + dir_v in
    dist.(s0) <- qscale;
    parent.(s0) <- -2;
    stamp.(s0) <- epoch;
    Dqueue.push queue (qscale + heuristic sx (sy + 1) dir_v) s0;
    let goal_state = ref (-1) in
    while !goal_state < 0 && not (Dqueue.is_empty queue) do
      let s = Dqueue.pop queue in
      let node = s lsr 1 in
      let dir = s land 1 in
      let iy = node / nx in
      let ix = node - (iy * nx) in
      (* the queue is cleared per search, so every popped state must
         carry the current epoch; a stale stamp means the freshness
         test below is about to read another search's dist value *)
      if Dsan.on () && stamp.(s) <> epoch then
        Dsan.record ~rule:"DSAN-EPOCH-01" ~site:"route.pairs"
          ~array_label:"search.arena" ~index:s
          (Printf.sprintf
             "popped state %d carries stamp %d but the arena is at epoch \
              %d: stale dist/parent from a previous search"
             s stamp.(s) epoch);
      (* an entry is fresh iff its key is the state's current f-value;
         improvements strictly lower f, so stale entries compare greater
         and are skipped exactly *)
      let d = dist.(s) in
      if queue.Dqueue.popped_key = d + heuristic ix iy dir then begin
        a.expansions <- a.expansions + 1;
        if ix = gx && iy = gy && dir = dir_v then goal_state := s
        else begin
          let bh_here = g.blocked_h.(node) in
          (* right / left: pin-edge rows forbid horizontal runs; then
             down / up *)
          if ix + 1 <= hi_x && not (bh_here || g.blocked_h.(node + 1)) then
            relax s d node dir (ix + 1) iy dir_h node;
          if ix - 1 >= lo_x && not (bh_here || g.blocked_h.(node - 1)) then
            relax s d node dir (ix - 1) iy dir_h (node - 1);
          if iy + 1 < ny then relax s d node dir ix (iy + 1) dir_v node;
          if iy > 0 then relax s d node dir ix (iy - 1) dir_v (node - nx)
        end
      end
    done;
    if !goal_state < 0 then None else reconstruct !goal_state
  end

(* Window search with provable fallback: try the pin bounding box
   widened by [bbox_margin] columns; when that fails, re-run on the
   full grid so routability matches the unpruned search exactly. *)
let run_bboxed a g ~costs ~via_q ~sx ~sy ~gx ~gy =
  let lo_x = max 0 (min sx gx - bbox_margin) in
  let hi_x = min (g.nx - 1) (max sx gx + bbox_margin) in
  match run a g ~costs ~via_q ~sx ~sy ~gx ~gy ~lo_x ~hi_x with
  | Some _ as p -> p
  | None when lo_x > 0 || hi_x < g.nx - 1 ->
      run a g ~costs ~via_q ~sx ~sy ~gx ~gy ~lo_x:0 ~hi_x:(g.nx - 1)
  | None -> None
