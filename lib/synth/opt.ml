type stats = { nodes_before : int; nodes_after : int; iterations : int }

(* One rewriting pass: rebuild the netlist bottom-up through the
   hashing builder, which folds constants and identities and shares
   structurally identical gates. *)
let pass nl =
  let b = Builder.create () in
  let memo = Array.make (Netlist.size nl) (-1) in
  (* inputs first, preserving order *)
  List.iter
    (fun iid -> memo.(iid) <- Builder.input b ?name:(Netlist.name nl iid) ())
    (Netlist.inputs nl);
  let order = Netlist.topo_order nl in
  Array.iter
    (fun id ->
      if memo.(id) < 0 then
        let f k = memo.((Netlist.fanins nl id).(k)) in
        let result =
          match Netlist.kind nl id with
          | Netlist.Input -> memo.(id) (* already built *)
          | Netlist.Output -> -1 (* handled after the loop *)
          | Netlist.Const v -> Builder.const b v
          | Netlist.Buf -> f 0
          | Netlist.Not -> Builder.not_ b (f 0)
          | (Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
            | Netlist.Xnor) as k ->
              Builder.gate2 b k (f 0) (f 1)
          | (Netlist.Maj | Netlist.Splitter _) as k ->
              invalid_arg
                (Printf.sprintf
                   "Opt.optimize: node %d is a %s gate; Opt only accepts the \
                    pre-mapping AOI netlist. Post-mapping majority netlists \
                    are optimized by sf_resyn (Resyn.run), which runs as the \
                    flow's resyn stage between synth and place."
                   id (Netlist.kind_name k))
        in
        memo.(id) <- result)
    order;
  List.iter
    (fun oid -> Builder.output b ?name:(Netlist.name nl oid) memo.((Netlist.fanins nl oid).(0)))
    (Netlist.outputs nl);
  Builder.netlist b

(* copy only logic reachable from the primary outputs *)
let sweep nl =
  let reachable = Array.make (Netlist.size nl) false in
  let rec mark id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      Array.iter mark (Netlist.fanins nl id)
    end
  in
  List.iter mark (Netlist.outputs nl);
  List.iter (fun i -> reachable.(i) <- true) (Netlist.inputs nl);
  let out = Netlist.create () in
  let memo = Array.make (Netlist.size nl) (-1) in
  List.iter
    (fun iid ->
      memo.(iid) <- Netlist.add out ?name:(Netlist.name nl iid) Netlist.Input [||])
    (Netlist.inputs nl);
  let order = Netlist.topo_order nl in
  Array.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Input | Netlist.Output -> ()
      | kind ->
          if reachable.(id) then
            let fanins = Array.map (fun f -> memo.(f)) (Netlist.fanins nl id) in
            memo.(id) <- Netlist.add out ?name:(Netlist.name nl id) kind fanins)
    order;
  (* outputs last, preserving their original order *)
  List.iter
    (fun oid ->
      let driver = memo.((Netlist.fanins nl oid).(0)) in
      ignore (Netlist.add out ?name:(Netlist.name nl oid) Netlist.Output [| driver |]))
    (Netlist.outputs nl);
  out

let optimize_with_stats nl =
  let nodes_before = Netlist.size nl in
  let round n = sweep (pass n) in
  let rec fixpoint current iterations =
    let next = round current in
    if Netlist.size next >= Netlist.size current || iterations >= 4 then
      (current, iterations)
    else fixpoint next (iterations + 1)
  in
  let first = round nl in
  let result, iterations = fixpoint first 1 in
  (result, { nodes_before; nodes_after = Netlist.size result; iterations })

let optimize nl = fst (optimize_with_stats nl)
