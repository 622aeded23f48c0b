type effort = Off | Fast | Full

let effort_name = function Off -> "none" | Fast -> "fast" | Full -> "full"

let effort_of_string = function
  | "none" | "off" -> Ok Off
  | "fast" -> Ok Fast
  | "full" -> Ok Full
  | s ->
      Error
        (Printf.sprintf "unknown resyn effort %S (expected none, fast or full)" s)

type pass_stat = { pass : string; iterations : int; tried : int; accepted : int }

type cec_stats = {
  windows : int;
  proved : int;
  cached : int;
  memoized : int;
  failed : int;
}

type report = {
  effort : effort;
  rounds : int;
  maj_before : int;
  maj_after : int;
  jj_before : int;
  jj_after : int;
  depth_before : int;
  depth_after : int;
  buffers_before : int;
  buffers_after : int;
  splitters_before : int;
  splitters_after : int;
  passes : pass_stat list;
  cec : cec_stats;
  diags : Diag.t list;
}

let rewrites_tried r = List.fold_left (fun a p -> a + p.tried) 0 r.passes
let rewrites_accepted r = List.fold_left (fun a p -> a + p.accepted) 0 r.passes

(* ---- fabric stripping and re-insertion ---- *)

let strip aqfp =
  let n = Netlist.size aqfp in
  let is_fabric id =
    match Netlist.kind aqfp id with
    | Netlist.Buf | Netlist.Splitter _ -> true
    | _ -> false
  in
  let rec resolve id =
    if is_fabric id then resolve (Netlist.fanins aqfp id).(0) else id
  in
  let out = Netlist.create () in
  let map = Array.make n (-1) in
  (* pass 1: placeholders (insertion rewires edges forward, so real
     fan-ins may not be mapped yet) *)
  Netlist.iter aqfp (fun nd ->
      if not (is_fabric nd.Netlist.id) then begin
        let ph =
          Array.map
            (fun f ->
              let r = resolve f in
              if map.(r) >= 0 then map.(r) else 0)
            nd.Netlist.fanins
        in
        map.(nd.Netlist.id) <- Netlist.add out ?name:nd.Netlist.name nd.Netlist.kind ph
      end);
  (* pass 2: the real resolved fan-ins *)
  Netlist.iter aqfp (fun nd ->
      if map.(nd.Netlist.id) >= 0 && Array.length nd.Netlist.fanins > 0 then
        Netlist.set_fanins out
          map.(nd.Netlist.id)
          (Array.map (fun f -> map.(resolve f)) nd.Netlist.fanins));
  out

let aqfp_metrics aqfp =
  let jj = Cell.netlist_jj_count aqfp in
  let depth = Netlist.fold aqfp (fun acc nd -> max acc nd.Netlist.phase) 0 in
  (jj, depth)

let count_buffers nl = Netlist.count_kind nl (fun k -> k = Netlist.Buf)

let count_splitters nl =
  Netlist.count_kind nl (function Netlist.Splitter _ -> true | _ -> false)

let count_logic nl =
  Netlist.count_kind nl (function
    | Netlist.Input | Netlist.Output | Netlist.Const _ | Netlist.Buf
    | Netlist.Splitter _ ->
        false
    | _ -> true)

(* ---- generic rebuild through the hashing builder ----

   [custom b realize nd] may take over the realization of one gate;
   [None] falls back to the node's own function. Only logic reachable
   from the outputs is realized (dead-node sweep for free); primary
   inputs and outputs keep their order and names. *)

let rebuild_with custom nl =
  let b = Builder.create () in
  let memo = Array.make (Netlist.size nl) (-1) in
  List.iter
    (fun iid -> memo.(iid) <- Builder.input b ?name:(Netlist.name nl iid) ())
    (Netlist.inputs nl);
  let rec realize id =
    if memo.(id) >= 0 then memo.(id)
    else begin
      let nd = Netlist.node nl id in
      let result =
        match nd.Netlist.kind with
        | Netlist.Input | Netlist.Output -> assert false
        | Netlist.Const v -> Builder.const b v
        | _ -> (
            match custom b realize nd with
            | Some x -> x
            | None -> (
                let f k = realize nd.Netlist.fanins.(k) in
                match nd.Netlist.kind with
                | Netlist.Not -> Builder.not_ b (f 0)
                | Netlist.Maj -> Builder.maj b (f 0) (f 1) (f 2)
                | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor
                | Netlist.Xor | Netlist.Xnor ->
                    Builder.gate2 b nd.Netlist.kind (f 0) (f 1)
                | Netlist.Buf | Netlist.Splitter _ -> f 0
                | Netlist.Input | Netlist.Output | Netlist.Const _ ->
                    assert false))
      in
      memo.(id) <- result;
      result
    end
  in
  List.iter
    (fun oid ->
      Builder.output b ?name:(Netlist.name nl oid) (realize (Netlist.fanins nl oid).(0)))
    (Netlist.outputs nl);
  Builder.netlist b

(* ---- passes ---- *)

let no_custom _ _ _ = None

let pass_cse nl = rebuild_with no_custom nl
let pass_const nl = fst (Const_dom.fold nl)

let const_facts nl =
  let facts = Const_dom.solve nl in
  fun leaf ->
    match facts.(leaf) with
    | Const_dom.Zero -> Some false
    | Const_dom.One -> Some true
    | Const_dom.Unknown -> None

(* Cut-based rewriting: NPN-matched database covering under an
   area-flow score, each chosen rewrite guarded by window CEC. *)
let pass_rewrite guard diags nl =
  let n = Netlist.size nl in
  let const_leaf = const_facts nl in
  let cuts = Cuts.enumerate nl in
  let fanout = Netlist.fanout_counts nl in
  (* the best implementation depends only on the cared-for rows and
     their values, and many cuts share them: each pair is matched once *)
  let matched = Hashtbl.create 64 in
  let match_impl base care =
    let best = ref None in
    let consider impl =
      let c = (Cost.impl_jj impl, impl.Maj_db.depth) in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, impl)
    in
    for t' = 0 to 255 do
      if t' land care = base then begin
        consider (Maj_db.lookup t');
        let rep, tr = Npn.canon t' in
        consider (Npn.uncanon tr (Maj_db.lookup rep))
      end
    done;
    match !best with Some (_, i) -> i | None -> assert false
  in
  let best_impl tt3 care =
    let base = tt3 land care in
    let key = (base lsl 8) lor care in
    match Hashtbl.find_opt matched key with
    | Some impl -> impl
    | None ->
        let impl = match_impl base care in
        Hashtbl.add matched key impl;
        impl
  in
  (* care set of a cut: assignments consistent with padding unused
     variables to 0 and with the Const_dom facts on known leaves *)
  let care_of leaves =
    let n_leaves = Array.length leaves in
    let care = ref 0 in
    for idx = 0 to 7 do
      let ok = ref true in
      for k = 0 to 2 do
        let bit = (idx lsr k) land 1 in
        if k >= n_leaves then begin
          if bit = 1 then ok := false
        end
        else
          match const_leaf leaves.(k) with
          | Some b -> if bit <> Bool.to_int b then ok := false
          | None -> ()
      done;
      if !ok then care := !care lor (1 lsl idx)
    done;
    !care
  in
  (* area-flow covering in topological order: a gate's flow reads only
     the flows of its fan-ins and cut leaves, all upstream of it *)
  let af = Array.make n 0.0 in
  let choice = Array.make n `Keep in
  let is_gate = function
    | Netlist.Input | Netlist.Output | Netlist.Const _ | Netlist.Buf
    | Netlist.Splitter _ ->
        false
    | _ -> true
  in
  let leaf_flow leaves =
    Array.fold_left
      (fun acc leaf -> acc +. (af.(leaf) /. float_of_int (max 1 fanout.(leaf))))
      0.0 leaves
  in
  Array.iter
    (fun id ->
      if is_gate (Netlist.kind nl id) then begin
        let keep =
          ( float_of_int (Cell.jj_of_kind (Netlist.kind nl id))
            +. leaf_flow (Netlist.fanins nl id),
            `Keep )
        in
        let cost, ch =
          List.fold_left
            (fun ((best_cost, _) as best) c ->
              if Cuts.is_trivial id c then best
              else
                let impl = best_impl (Cuts.tt3 c) (care_of c.Cuts.leaves) in
                let cost =
                  float_of_int (Cost.impl_jj impl) +. leaf_flow c.Cuts.leaves
                in
                if cost < best_cost then (cost, `Rw (c, impl)) else best)
            keep cuts.(id)
        in
        af.(id) <- cost;
        choice.(id) <- ch
      end)
    (Netlist.topo_order nl);
  (* realization: serial, each chosen rewrite proved before it is kept *)
  let tried = ref 0 and survived = ref 0 in
  let custom b realize nd =
    match choice.(nd.Netlist.id) with
    | `Keep -> None
    | `Rw (c, impl) ->
        incr tried;
        let win_a =
          Window.cone nl ~root:nd.Netlist.id ~leaves:c.Cuts.leaves ~const_leaf
        in
        let win_b = Window.impl_window impl ~leaves:c.Cuts.leaves ~const_leaf in
        if Window.prove_equal guard win_a win_b then begin
          incr survived;
          let leaf_ids = Array.map realize c.Cuts.leaves in
          Some (Builder.instantiate b impl leaf_ids)
        end
        else begin
          diags :=
            Diag.warning ~rule:"RS-CEC-01" (Diag.Node nd.Netlist.id)
              "resyn window proof failed for node %d (cut of %d): rewrite refused"
              nd.Netlist.id
              (Array.length c.Cuts.leaves)
            :: !diags;
          None
        end
  in
  let cand = rebuild_with custom nl in
  (cand, !tried, !survived)

(* Depth-aware rebalancing of [And]/[Or] chains — the degenerate
   majority trees of this library ([maj(x,y,const)] normalizes to
   [And]/[Or] in the cse pass). Maximal single-fanout chains are
   flattened and recombined Huffman-style on projected levels. *)
let pass_balance nl =
  let fanout = Netlist.fanout_counts nl in
  let blevels : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec blevel out id =
    match Hashtbl.find_opt blevels id with
    | Some l -> l
    | None ->
        let l =
          match Netlist.kind out id with
          | Netlist.Input | Netlist.Const _ -> 0
          | _ ->
              1
              + Array.fold_left
                  (fun acc f -> max acc (blevel out f))
                  0 (Netlist.fanins out id)
        in
        Hashtbl.replace blevels id l;
        l
  in
  let custom b realize nd =
    match nd.Netlist.kind with
    | (Netlist.And | Netlist.Or) as k ->
        let leaves = ref [] in
        let rec collect id =
          Array.iter
            (fun f ->
              if Netlist.kind nl f = k && fanout.(f) = 1 then collect f
              else leaves := f :: !leaves)
            (Netlist.fanins nl id)
        in
        collect nd.Netlist.id;
        let ids =
          List.sort_uniq Int.compare (List.rev_map realize !leaves)
        in
        if List.length ids <= 2 then None
        else begin
          let out = Builder.netlist b in
          let cmp_level (la, a) (lb, b) =
            match Int.compare la lb with 0 -> Int.compare a b | c -> c
          in
          let pq =
            ref (List.sort cmp_level (List.map (fun id -> (blevel out id, id)) ids))
          in
          let rec combine () =
            match !pq with
            | [] -> assert false
            | [ (_, only) ] -> only
            | (la, a) :: (lb, bo) :: rest ->
                let g = Builder.gate2 b k a bo in
                let lg = 1 + max la lb in
                pq :=
                  List.merge cmp_level [ (lg, g) ] rest;
                combine ()
          in
          Some (combine ())
        end
    | _ -> None
  in
  rebuild_with custom nl

(* Splitter-load-aware restructuring: a 2-JJ driver (inverter or
   constant cell) with a wide splitter tree is cheaper as several
   copies with shallow trees. The exact accept/reject in the pass
   manager prices the duplicated driver against the tree it saves. *)
let pass_split nl =
  let cand = Netlist.copy nl in
  let n = Netlist.size nl in
  let consumers = Array.make n [] in
  Netlist.iter nl (fun nd ->
      Array.iteri
        (fun idx f -> consumers.(f) <- (nd.Netlist.id, idx) :: consumers.(f))
        nd.Netlist.fanins);
  for id = 0 to n - 1 do
    let splittable =
      match Netlist.kind nl id with
      | Netlist.Not | Netlist.Const _ -> true
      | _ -> false
    in
    let edges = List.rev consumers.(id) in
    if splittable && List.length edges >= 5 then begin
      (* groups of <= 3 consumers; the original keeps the first *)
      let rec regroup edges first =
        match edges with
        | [] -> ()
        | _ ->
            let group = List.filteri (fun i _ -> i < 3) edges in
            let rest = List.filteri (fun i _ -> i >= 3) edges in
            let target =
              if first then id
              else
                Netlist.add cand (Netlist.kind nl id)
                  (Array.copy (Netlist.fanins nl id))
            in
            if not first then
              List.iter
                (fun (c, idx) ->
                  let fanins = Array.copy (Netlist.fanins cand c) in
                  fanins.(idx) <- target;
                  Netlist.set_fanins cand c fanins)
                group;
            regroup rest false
      in
      regroup edges true
    end
  done;
  cand

(* Observability-seeded elimination: nodes [Obs_dom] proves blocked
   (their value provably never reaches an output) collapse to a
   constant; the whole-netlist CEC acceptance proof makes the
   abstract fact unconditional. *)
let pass_obs nl =
  let facts = Facts.obs (Facts.create nl) in
  let custom b _realize nd =
    match facts.(nd.Netlist.id) with
    | Obs_dom.Blocked _ -> Some (Builder.const b false)
    | Obs_dom.Dead _ | Obs_dom.Observable -> None
  in
  rebuild_with custom nl

(* ---- pass manager ---- *)

type m_state = { maj : Netlist.t; aqfp : Netlist.t; jj : int; depth : int }

type pass_kind =
  | Plain of (Netlist.t -> Netlist.t)
  | Rewriting  (** [pass_rewrite], which reports its own window counts *)

let pass_list = function
  | Off -> []
  | Fast -> [ ("cse", Plain pass_cse); ("rewrite", Rewriting) ]
  | Full ->
      [
        ("const", Plain pass_const);
        ("cse", Plain pass_cse);
        ("rewrite", Rewriting);
        ("balance", Plain pass_balance);
        ("split", Plain pass_split);
        ("obs", Plain pass_obs);
      ]

let run ?(effort = Off) ?cache aqfp0 =
  let maj0 = strip aqfp0 in
  let jj0, depth0 = aqfp_metrics aqfp0 in
  let base_report =
    {
      effort;
      rounds = 0;
      maj_before = count_logic maj0;
      maj_after = count_logic maj0;
      jj_before = jj0;
      jj_after = jj0;
      depth_before = depth0;
      depth_after = depth0;
      buffers_before = count_buffers aqfp0;
      buffers_after = count_buffers aqfp0;
      splitters_before = count_splitters aqfp0;
      splitters_after = count_splitters aqfp0;
      passes = [];
      cec = { windows = 0; proved = 0; cached = 0; memoized = 0; failed = 0 };
      diags = [];
    }
  in
  if effort = Off then (aqfp0, base_report)
  else begin
    let guard = Window.make ?cache () in
    let diags = ref [] in
    let passes = pass_list effort in
    let stats =
      List.map (fun (name, _) -> (name, ref 0, ref 0, ref 0)) passes
      (* iterations, tried, accepted *)
    in
    let state = ref { maj = maj0; aqfp = aqfp0; jj = jj0; depth = depth0 } in
    let rounds = ref 0 in
    let improving = ref true in
    let max_rounds = match effort with Fast -> 1 | _ -> max_int in
    while !improving && !rounds < max_rounds do
      incr rounds;
      improving := false;
      List.iter2
        (fun (_, p) (_, iters, tried, accepted) ->
          incr iters;
          let cur = !state in
          let cand, w_tried, w_survived =
            match p with
            | Plain f -> (f cur.maj, 0, 0)
            | Rewriting -> pass_rewrite guard diags cur.maj
          in
          let differs = Netlist.struct_hash cand <> Netlist.struct_hash cur.maj in
          tried := !tried + (match p with Rewriting -> w_tried | Plain _ -> if differs then 1 else 0);
          if differs then begin
            let aqfp', st = Insertion.run cand in
            let jj' = st.Insertion.jj and depth' = st.Insertion.delay in
            if
              jj' <= cur.jj && depth' <= cur.depth
              && (jj' < cur.jj || depth' < cur.depth)
              && Window.prove_equal guard cur.maj cand
            then begin
              accepted :=
                !accepted + (match p with Rewriting -> w_survived | Plain _ -> 1);
              state := { maj = cand; aqfp = aqfp'; jj = jj'; depth = depth' };
              improving := true
            end
          end)
        passes stats;
      (* every acceptance strictly shrinks jj + depth, so the loop is
         a well-founded descent *)
      ()
    done;
    let final = !state in
    let ws = Window.stats guard in
    let report =
      {
        base_report with
        rounds = !rounds;
        maj_after = count_logic final.maj;
        jj_after = final.jj;
        depth_after = final.depth;
        buffers_after = count_buffers final.aqfp;
        splitters_after = count_splitters final.aqfp;
        passes =
          List.map
            (fun (name, iters, tried, accepted) ->
              { pass = name; iterations = !iters; tried = !tried; accepted = !accepted })
            stats;
        cec =
          {
            windows = ws.Window.windows;
            proved = ws.Window.proved;
            cached = ws.Window.cached;
            memoized = ws.Window.memoized;
            failed = ws.Window.failed;
          };
        diags = List.sort Diag.compare !diags;
      }
    in
    (final.aqfp, report)
  end
