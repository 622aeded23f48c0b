let cuts_per_node = 8

type cut = { leaves : int array; tt : int }

let trivial v = { leaves = [| v |]; tt = 0b10 }

let is_trivial v c =
  Array.length c.leaves = 1 && c.leaves.(0) = v && c.tt land 3 = 0b10

(* Re-express [tt] (over [old_leaves]) in terms of [new_leaves]
   (a superset, both sorted, |new| <= 3). *)
let expand old_leaves tt new_leaves =
  let n_new = Array.length new_leaves in
  let pos_of leaf =
    let rec find i = if new_leaves.(i) = leaf then i else find (i + 1) in
    find 0
  in
  let map = Array.map pos_of old_leaves in
  let tt' = ref 0 in
  for idx = 0 to (1 lsl n_new) - 1 do
    let old_idx = ref 0 in
    Array.iteri
      (fun old_var new_var ->
        if (idx lsr new_var) land 1 = 1 then old_idx := !old_idx lor (1 lsl old_var))
      map;
    if (tt lsr !old_idx) land 1 = 1 then tt' := !tt' lor (1 lsl idx)
  done;
  !tt'

let merge_leaves a b =
  let uniq = List.sort_uniq Int.compare (Array.to_list a @ Array.to_list b) in
  if List.length uniq <= 3 then Some (Array.of_list uniq) else None

let width_mask leaves = (1 lsl (1 lsl Array.length leaves)) - 1

let apply2 op ta tb mask =
  (match op with
  | Netlist.And -> ta land tb
  | Netlist.Or -> ta lor tb
  | Netlist.Nand -> lnot (ta land tb)
  | Netlist.Nor -> lnot (ta lor tb)
  | Netlist.Xor -> ta lxor tb
  | Netlist.Xnor -> lnot (ta lxor tb)
  | _ -> invalid_arg "Cuts.apply2")
  land mask

let tt3 c =
  let nvars = Array.length c.leaves in
  let tt = ref 0 in
  for idx = 0 to 7 do
    let small = idx land ((1 lsl nvars) - 1) in
    if (c.tt lsr small) land 1 = 1 then tt := !tt lor (1 lsl idx)
  done;
  !tt

let node_cuts nl cuts id =
  let base = [ trivial id ] in
  let fanin k = (Netlist.fanins nl id).(k) in
  let merged =
    match Netlist.kind nl id with
    | Netlist.Input | Netlist.Const _ | Netlist.Output -> []
    | Netlist.Not ->
        List.map
          (fun c -> { c with tt = lnot c.tt land width_mask c.leaves })
          cuts.(fanin 0)
    | Netlist.Buf | Netlist.Splitter _ -> cuts.(fanin 0)
    | ( Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
      | Netlist.Xnor ) as op ->
        List.concat_map
          (fun c1 ->
            List.filter_map
              (fun c2 ->
                match merge_leaves c1.leaves c2.leaves with
                | None -> None
                | Some leaves ->
                    let t1 = expand c1.leaves c1.tt leaves in
                    let t2 = expand c2.leaves c2.tt leaves in
                    Some { leaves; tt = apply2 op t1 t2 (width_mask leaves) })
              cuts.(fanin 1))
          cuts.(fanin 0)
    | Netlist.Maj ->
        List.concat_map
          (fun c1 ->
            List.concat_map
              (fun c2 ->
                match merge_leaves c1.leaves c2.leaves with
                | None -> []
                | Some l12 ->
                    List.filter_map
                      (fun c3 ->
                        match merge_leaves l12 c3.leaves with
                        | None -> None
                        | Some leaves ->
                            let t1 = expand c1.leaves c1.tt leaves in
                            let t2 = expand c2.leaves c2.tt leaves in
                            let t3 = expand c3.leaves c3.tt leaves in
                            let tt =
                              (t1 land t2) lor (t1 land t3) lor (t2 land t3)
                            in
                            Some { leaves; tt = tt land width_mask leaves })
                      cuts.(fanin 2))
              cuts.(fanin 1))
          cuts.(fanin 0)
  in
  (* dedupe preserving first occurrence, then cap at [cuts_per_node]
     keeping the trivial cut plus the widest merges *)
  let same a b =
    a.tt = b.tt
    && Array.length a.leaves = Array.length b.leaves
    && Array.for_all2 Int.equal a.leaves b.leaves
  in
  let all =
    List.rev
      (List.fold_left
         (fun acc c -> if List.exists (same c) acc then acc else c :: acc)
         [] (base @ merged))
  in
  if List.length all <= cuts_per_node then all
  else
    let rest =
      List.tl all
      |> List.stable_sort (fun a b ->
             Int.compare (Array.length b.leaves) (Array.length a.leaves))
    in
    List.hd all :: List.filteri (fun i _ -> i < cuts_per_node - 1) rest

let enumerate nl =
  let cuts = Array.make (Netlist.size nl) [] in
  (* level-synchronous: a node's cuts read only strictly shallower
     nodes, so each level shards over the pool with ordered combine;
     the fixed chunk keeps levels of up to 64 nodes (every level of a
     small AOI netlist) off the pool *)
  Array.iter
    (fun ids ->
      let results =
        Parallel.parallel_map ~label:"cuts" ~chunk:64 (fun id -> node_cuts nl cuts id) ids
      in
      Array.iteri (fun i id -> cuts.(id) <- results.(i)) ids)
    (Netlist.levels nl);
  cuts
