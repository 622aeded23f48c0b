type stats = {
  splitters : int;
  buffers : int;
  delay : int;
  jj : int;
  nets : int;
}

let count_nets nl =
  Netlist.fold nl (fun acc nd -> acc + Array.length nd.Netlist.fanins) 0

(* Split [consumers] (a list of (node, fanin-index) edges fed by
   [src]) into a balanced splitter tree rooted at [src]. *)
let build_splitter_tree nl src consumers =
  let rec attach src consumers =
    match consumers with
    | [] -> assert false
    | [ (node, idx) ] ->
        let fanins = Array.copy (Netlist.fanins nl node) in
        fanins.(idx) <- src;
        Netlist.set_fanins nl node fanins
    | _ ->
        let k = List.length consumers in
        let ways = min Cell.max_splitter_outputs k in
        let spl = Netlist.add nl (Netlist.Splitter ways) [| src |] in
        (* distribute consumers into [ways] near-equal groups *)
        let groups = Array.make ways [] in
        List.iteri (fun i c -> groups.(i mod ways) <- c :: groups.(i mod ways)) consumers;
        Array.iter (fun g -> attach spl (List.rev g)) groups
  in
  attach src consumers

let insert_with_stats input =
  let nl = Netlist.copy input in
  let n_original = Netlist.size nl in
  (* 1. Splitter insertion, sources in topological order. Consumer
     lists are computed against the original nodes; splitters added on
     the fly only ever have their intended consumers. *)
  let consumers_of = Array.make n_original [] in
  Netlist.iter nl (fun nd ->
      if nd.Netlist.id < n_original then
        Array.iteri
          (fun idx f ->
            if f < n_original then
              consumers_of.(f) <- (nd.Netlist.id, idx) :: consumers_of.(f))
          nd.Netlist.fanins);
  for src = 0 to n_original - 1 do
    let consumers = List.rev consumers_of.(src) in
    if List.length consumers >= 2 then build_splitter_tree nl src consumers
  done;
  let splitters = Netlist.size nl - n_original in
  (* 2. Levelize, then break every multi-phase connection with a
     buffer chain. *)
  let max_phase = ref (Netlist.levelize nl) in
  let pending = ref [] in
  Netlist.iter nl (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Input | Netlist.Const _ | Netlist.Output -> ()
      | _ ->
          Array.iteri
            (fun idx f ->
              let gap = nd.Netlist.phase - Netlist.phase nl f in
              if gap > 1 then pending := (nd.Netlist.id, idx, f, gap) :: !pending)
            nd.Netlist.fanins);
  let buffers = ref 0 in
  let add_chain src gap =
    (* a chain of [gap] buffers following [src]'s phase *)
    let cur = ref src in
    for step = 1 to gap do
      let b = Netlist.add nl Netlist.Buf [| !cur |] in
      Netlist.set_phase nl b (Netlist.phase nl src + step);
      incr buffers;
      cur := b
    done;
    !cur
  in
  List.iter
    (fun (node, idx, f, gap) ->
      let tail = add_chain f (gap - 1) in
      let fanins = Array.copy (Netlist.fanins nl node) in
      fanins.(idx) <- tail;
      Netlist.set_fanins nl node fanins)
    !pending;
  (* 3. Pad primary outputs to the final phase. *)
  List.iter
    (fun oid ->
      let driver = (Netlist.fanins nl oid).(0) in
      let gap = !max_phase - Netlist.phase nl driver in
      if gap > 0 then begin
        let tail = add_chain driver gap in
        Netlist.set_fanins nl oid [| tail |]
      end;
      Netlist.set_phase nl oid !max_phase)
    (Netlist.outputs nl);
  let stats =
    {
      splitters;
      buffers = !buffers;
      delay = !max_phase;
      jj = Cell.netlist_jj_count nl;
      nets = count_nets nl;
    }
  in
  (nl, stats)

(* ---- ladder insertion ----

   The per-edge strategy above splits first and then pads every edge
   with its own buffer chain, so consumers of one signal at different
   depths never share regeneration cells. The ladder strategy builds,
   per source, one distribution structure spanning the levels between
   the source and its deepest consumer: at each level a minimal set of
   buffer/splitter cells carries the value, consumers tap the copy at
   their own level, and sharing falls out naturally (the approach of
   the optimal insertion literature the paper cites).

   Feasibility: k copies of a signal cannot exist before
   ceil(log3 k) levels of splitting, so consumer levels are first
   pushed down to respect that bound (iterated to a global fixpoint),
   then the ladders are built mechanically. *)

let insert_ladder_with_stats input =
  let nl = Netlist.copy input in
  let n = Netlist.size nl in
  (* consumer edges of every node *)
  let consumers_of = Array.make n [] in
  Netlist.iter nl (fun nd ->
      Array.iteri
        (fun idx f -> consumers_of.(f) <- (nd.Netlist.id, idx) :: consumers_of.(f))
        nd.Netlist.fanins);
  (* 1. levels with the splitting-capacity constraint:
     level(v) >= level(u) + 1 always, and the i-th earliest consumer
     of u (1-indexed, sorted by level) additionally needs
     level >= level(u) + ceil_log3(i) + (0 if i = 1 yet splitters
     consume a level when i > 1 ... the copy count at depth d is 3^d,
     but the splitting cells themselves occupy levels, so i copies
     need ceil_log3(i) levels, and the consumer sits one deeper). *)
  let level = Array.make n 0 in
  let order = Netlist.topo_order nl in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    Array.iter
      (fun id ->
        let nd = Netlist.node nl id in
        match nd.Netlist.kind with
        | Netlist.Input | Netlist.Const _ -> ()
        | Netlist.Output ->
            let l = level.((Netlist.fanins nl id).(0)) in
            if level.(id) < l then begin level.(id) <- l; changed := true end
        | _ ->
            let l =
              1 + Array.fold_left (fun acc f -> max acc level.(f)) 0 nd.Netlist.fanins
            in
            if level.(id) > l then () ;
            if l > level.(id) then begin
              level.(id) <- l;
              changed := true
            end)
      order;
    (* capacity constraint per source: simulate the pin flow of the
       distribution ladder (1 pin at the source, x3 per level through
       splitters, one pin reserved for continuation while consumers
       remain) and push consumers deeper when a level runs dry *)
    Netlist.iter nl (fun nd ->
        let consumers = consumers_of.(nd.Netlist.id) in
        if consumers <> [] then begin
          let lsrc = level.(nd.Netlist.id) in
          (* relative tap depth wanted by each consumer: a gate at
             level l reads the copy at l-1; an output marker at
             (virtual) level m reads the copy at m *)
          let tap_depth c =
            match Netlist.kind nl c with
            | Netlist.Output -> max 0 (level.(c) - lsrc)
            | _ -> max 0 (level.(c) - 1 - lsrc)
          in
          let wanted =
            List.map (fun (c, _) -> (tap_depth c, c)) consumers
            |> List.sort (fun (d1, c1) (d2, c2) ->
                   match Int.compare d1 d2 with 0 -> Int.compare c1 c2 | c -> c)
          in
          let total = List.length wanted in
          let served = ref 0 in
          let pending = ref wanted in
          let units = ref 1 in
          let depth = ref 0 in
          while !served < total && !depth < (4 * total) + 64 do
            let want, rest = List.partition (fun (r, _) -> r <= !depth) !pending in
            let n_want = List.length want in
            (* serve as many as the pins allow, but keep one pin for
               the continuation whenever anyone remains after this
               level *)
            let s0 = min n_want !units in
            let s =
              if total - !served - s0 > 0 && !units - s0 = 0 then max 0 (s0 - 1)
              else s0
            in
            let bumped = ref [] in
            List.iteri
              (fun i (_, c) ->
                if i < s then begin
                  (* served at this depth: pin the final level *)
                  let final_level =
                    match Netlist.kind nl c with
                    | Netlist.Output -> lsrc + !depth
                    | _ -> lsrc + !depth + 1
                  in
                  if level.(c) < final_level then begin
                    level.(c) <- final_level;
                    changed := true
                  end
                end
                else begin
                  (* not servable here: this consumer's tap (and hence
                     its level) moves one deeper, persistently *)
                  let bumped_level =
                    match Netlist.kind nl c with
                    | Netlist.Output -> lsrc + !depth + 1
                    | _ -> lsrc + !depth + 2
                  in
                  if level.(c) < bumped_level then begin
                    level.(c) <- bumped_level;
                    changed := true
                  end;
                  bumped := (!depth + 1, c) :: !bumped
                end)
              want;
            served := !served + s;
            pending := List.rev_append !bumped rest;
            units := (!units - s) * 3;
            incr depth
          done;
          (* if the loop starved (units 0 with pending), the pending
             consumers were pushed each round; the global fixpoint will
             revisit with their new levels *)
          ()
        end)
  done;
  if !rounds >= 64 then failwith "Insertion.ladder: level fixpoint did not converge";
  (* 2. build ladders. Processing in topo order so sources have their
     final cells before consumers need them. *)
  let splitters = ref 0 and buffers = ref 0 in
  Netlist.iter nl (fun nd -> Netlist.set_phase nl nd.Netlist.id level.(nd.Netlist.id));
  Array.iter
    (fun src ->
      (match Netlist.kind nl src with
      | Netlist.Output -> ()
      | _ ->
          let consumers = List.rev consumers_of.(src) in
          (* demands: consumers tap the copy at their level - 1;
             Output markers tap at the driver's own level (they are
             virtual) but still consume an output pin at max level *)
          let real, outputs =
            List.partition (fun (c, _) -> Netlist.kind nl c <> Netlist.Output) consumers
          in
          let demands =
            List.map (fun (c, idx) -> (level.(c) - 1, (c, idx))) real
            @ List.map (fun (o, idx) -> (level.(o), (o, idx))) outputs
          in
          match demands with
          | [] -> ()
          | _ ->
              let lsrc = level.(src) in
              let dmax = List.fold_left (fun acc (l, _) -> max acc l) lsrc demands in
              (* taps.(j - lsrc) = consumers reading the level-j copy *)
              let span = dmax - lsrc in
              let taps = Array.make (span + 1) [] in
              List.iter
                (fun (l, e) ->
                  let j = max 0 (min span (l - lsrc)) in
                  taps.(j) <- e :: taps.(j))
                demands;
              (* walk levels from deep to shallow computing how many
                 copies each level must OUTPUT (to taps at the level
                 above + cells of the level above) *)
              let cells_needed = Array.make (span + 2) 0 in
              for j = span downto 1 do
                let out_req = List.length taps.(j) + cells_needed.(j + 1) in
                cells_needed.(j) <- (if out_req = 0 then 0 else max 1 ((out_req + 2) / 3))
              done;
              (* source level outputs: taps at lsrc directly? taps.(0)
                 are consumers reading the source itself; the source
                 pin also feeds the first ladder cell *)
              let out_req0 = List.length taps.(0) + cells_needed.(1) in
              if out_req0 > 1 then
                failwith "Insertion.ladder: capacity fixpoint left the source over-subscribed";
              (* instantiate level by level; carriers.(j) = node ids at
                 level lsrc+j carrying the value *)
              let connect (c, idx) driver =
                let fanins = Array.copy (Netlist.fanins nl c) in
                fanins.(idx) <- driver;
                Netlist.set_fanins nl c fanins
              in
              (* available output stubs at the current level: (node, remaining_outputs) *)
              let stubs = ref [ (src, 1) ] in
              List.iter (fun e -> connect e src) taps.(0);
              for j = 1 to span do
                let needed = cells_needed.(j) in
                if needed > 0 then begin
                  (* create the cells of this level, consuming stubs *)
                  let out_req = List.length taps.(j) + cells_needed.(j + 1) in
                  let new_cells = ref [] in
                  let remaining = ref out_req in
                  for _ = 1 to needed do
                    (* pick a stub with available output *)
                    let rec take = function
                      | [] -> failwith "Insertion.ladder: out of stubs"
                      | (node, 0) :: rest ->
                          let found, rest' = take rest in
                          (found, (node, 0) :: rest')
                      | (node, k) :: rest -> (node, (node, k - 1) :: rest)
                    in
                    let driver, stubs' = take !stubs in
                    stubs := stubs';
                    let fanout_here = min 3 !remaining in
                    remaining := !remaining - fanout_here;
                    let cell =
                      if fanout_here >= 2 then begin
                        incr splitters;
                        Netlist.add nl (Netlist.Splitter fanout_here) [| driver |]
                      end
                      else begin
                        incr buffers;
                        Netlist.add nl Netlist.Buf [| driver |]
                      end
                    in
                    Netlist.set_phase nl cell (lsrc + j);
                    new_cells := (cell, fanout_here) :: !new_cells
                  done;
                  stubs := !new_cells;
                  (* connect this level's taps *)
                  List.iter
                    (fun e ->
                      let rec take = function
                        | [] -> failwith "Insertion.ladder: out of tap stubs"
                        | (node, 0) :: rest ->
                            let found, rest' = take rest in
                            (found, (node, 0) :: rest')
                        | (node, k) :: rest -> (node, (node, k - 1) :: rest)
                      in
                      let driver, stubs' = take !stubs in
                      stubs := stubs';
                      connect e driver)
                    taps.(j)
                end
              done))
    (Netlist.topo_order nl);
  (* 3. output markers mirror their driver *)
  List.iter
    (fun oid ->
      Netlist.set_phase nl oid (Netlist.phase nl (Netlist.fanins nl oid).(0)))
    (Netlist.outputs nl);
  (* outputs at a common phase: pad with buffer chains like the
     per-edge strategy *)
  let max_phase =
    Netlist.fold nl
      (fun acc nd ->
        match nd.Netlist.kind with Netlist.Output -> acc | _ -> max acc nd.Netlist.phase)
      0
  in
  List.iter
    (fun oid ->
      let driver = (Netlist.fanins nl oid).(0) in
      let gap = max_phase - Netlist.phase nl driver in
      if gap > 0 then begin
        let cur = ref driver in
        for step = 1 to gap do
          let b = Netlist.add nl Netlist.Buf [| !cur |] in
          Netlist.set_phase nl b (Netlist.phase nl driver + step);
          incr buffers;
          cur := b
        done;
        Netlist.set_fanins nl oid [| !cur |]
      end;
      Netlist.set_phase nl oid max_phase)
    (Netlist.outputs nl);
  let stats =
    {
      splitters = !splitters;
      buffers = !buffers;
      delay = max_phase;
      jj = Cell.netlist_jj_count nl;
      nets = count_nets nl;
    }
  in
  (nl, stats)

(* per-edge chains vs shared ladders: keep the cheaper result (JJ
   count, then pipeline depth); the ladder's fixpoints may give up,
   and then the per-edge result stands *)
let run maj =
  let ((_, e) as edge) = insert_with_stats maj in
  match insert_ladder_with_stats maj with
  | (_, l) as ladder when (l.jj, l.delay) < (e.jj, e.delay) -> ladder
  | _ -> edge
  | exception Failure _ -> edge
