(* Monotone dataflow over the netlist DAG.

   On a DAG, one transfer per node reaches the fixpoint when every
   node is visited after the nodes whose facts it reads: forward
   solves walk [Netlist.topo_order], backward solves its reverse. A
   transfer reads only its fan-ins' (or consumers') facts, so the
   result does not depend on which topological order is walked. *)

let solve ~n ~order ~bot ~transfer =
  let facts = Array.make n bot in
  Array.iter (fun id -> facts.(id) <- transfer id facts) order;
  facts

let forward nl ~bot ~transfer =
  solve ~n:(Netlist.size nl) ~order:(Netlist.topo_order nl) ~bot ~transfer

type fanouts = { consumers : int list array; order : int array }

let fanouts nl =
  let n = Netlist.size nl in
  let topo = Netlist.topo_order nl in
  {
    consumers = Netlist.fanouts nl;
    order = Array.init n (fun k -> topo.(n - 1 - k));
  }

let backward nl ~fanouts ~bot ~transfer =
  solve ~n:(Netlist.size nl) ~order:fanouts.order ~bot ~transfer

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
