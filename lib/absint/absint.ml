(* Monotone dataflow over the netlist DAG.

   The worklist is scheduled as topological levels: on a DAG every
   node's inputs are final before the node itself is visited, so one
   transfer per node reaches the fixpoint. Levels are a pure function
   of the netlist; inside a level the transfers are independent and
   shard over Parallel with static chunk boundaries, each lane
   writing only its own slots — results are identical at any pool
   size. *)

(* Group ids by dependency depth. [deps] gives, for each node, the
   ids whose facts the node's transfer reads; depth = 1 + max depth
   of deps. [order] must list deps before dependants. *)
let levels_of ~n ~order ~deps =
  let depth = Array.make n 0 in
  let max_depth = ref 0 in
  Array.iter
    (fun i ->
      let d = ref 0 in
      List.iter (fun f -> if depth.(f) >= !d then d := depth.(f) + 1) (deps i);
      depth.(i) <- !d;
      if !d > !max_depth then max_depth := !d)
    order;
  let buckets = Array.make (!max_depth + 1) [] in
  (* fill in reverse id order so each bucket ends up id-ascending *)
  for i = n - 1 downto 0 do
    buckets.(depth.(i)) <- i :: buckets.(depth.(i))
  done;
  Array.map Array.of_list buckets

let solve ~n ~levels ~deps ~bot ~transfer =
  let facts = Array.make n bot in
  (* distinct slots per lane: data-race free, order-independent. Under
     the sanitizer, writes and the declared dep reads of each transfer
     go through a footprint-tracked view — a dep scheduled into the
     same level as its reader shows up as a same-batch RW overlap,
     which is exactly a broken level invariant. *)
  let facts_v = Dsan.wrap ~label:"absint.facts" ~mode:Dsan.Footprint facts in
  Array.iter
    (fun level ->
      let m = Array.length level in
      ignore
        (Parallel.map_chunks ~label:"absint.level" ~chunk:1024 ~n:m (fun lo hi ->
             for k = lo to hi - 1 do
               let id = level.(k) in
               if Dsan.on () then begin
                 List.iter (fun f -> ignore (Dsan.get facts_v f)) (deps id);
                 Dsan.set facts_v id (transfer id facts)
               end
               else facts.(id) <- transfer id facts
             done)))
    levels;
  facts

let forward nl ~bot ~transfer =
  let deps i = Array.to_list (Netlist.fanins nl i) in
  solve ~n:(Netlist.size nl) ~levels:(Netlist.levels nl) ~deps ~bot ~transfer

type fanouts = { consumers : int list array; levels : int array array }

let fanouts nl =
  let n = Netlist.size nl in
  let consumers = Netlist.fanouts nl in
  let order = Netlist.topo_order nl in
  let rev = Array.init n (fun k -> order.(n - 1 - k)) in
  { consumers; levels = levels_of ~n ~order:rev ~deps:(Array.get consumers) }

let backward nl ~fanouts ~bot ~transfer =
  solve ~n:(Netlist.size nl) ~levels:fanouts.levels
    ~deps:(Array.get fanouts.consumers) ~bot ~transfer

let describe nl i =
  let base = Printf.sprintf "n%d:%s" i (Netlist.kind_name (Netlist.kind nl i)) in
  match Netlist.name nl i with
  | Some name -> Printf.sprintf "%s%S" base name
  | None -> base

let path_witness nl ids = List.map (describe nl) ids

let chase ~limit start next =
  let rec go acc i steps =
    if steps >= limit then List.rev (i :: acc)
    else
      match next i with
      | None -> List.rev (i :: acc)
      | Some j -> go (i :: acc) j (steps + 1)
  in
  go [] start 0
