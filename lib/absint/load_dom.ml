(* Splitter-tree capacity intervals: [lo] observable sinks of [hi]
   structural sinks delivered by each subtree. *)

let is_splitter nl i =
  match Netlist.kind nl i with Netlist.Splitter _ -> true | _ -> false

let solve nl ~fanouts ~obs =
  let sink c = ((if obs.(c) = Obs_dom.Observable then 1 else 0), 1) in
  let transfer id facts =
    if is_splitter nl id then
      (* tree branches sum *)
      List.fold_left
        (fun (lo, hi) c ->
          let clo, chi = if is_splitter nl c then facts.(c) else sink c in
          (lo + clo, hi + chi))
        (0, 0) fanouts.Absint.consumers.(id)
    else sink id
  in
  Absint.backward nl ~fanouts ~bot:(0, 0) ~transfer

(* Walk the tree from a wasted root down to one wasted sink. *)
let wasted_path nl facts fanouts root =
  let obs_sink c = fst facts.(c) >= snd facts.(c) in
  let next i =
    if not (is_splitter nl i) then None
    else
      let r = ref None in
      List.iter
        (fun c -> if !r = None && not (obs_sink c) then r := Some c)
        fanouts.Absint.consumers.(i);
      !r
  in
  Absint.chase ~limit:(Netlist.size nl) root next

let check nl ~fanouts facts =
  let diags = ref [] in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      match nd.Netlist.kind with
      | Netlist.Splitter k ->
          let driver_is_splitter =
            Array.length nd.Netlist.fanins > 0
            && is_splitter nl nd.Netlist.fanins.(0)
          in
          let lo, hi = facts.(i) in
          if (not driver_is_splitter) && lo < hi then
            diags :=
              Diag.warning
                ~witness:
                  (Absint.path_witness nl (wasted_path nl facts fanouts i))
                ~rule:"AI-LOAD-01" (Diag.Node i)
                "splitter tree (root arity %d) delivers %d sink(s) but only \
                 %d provably affect(s) an output — capacity wasted"
                k hi lo
              :: !diags
      | _ -> ());
  List.rev !diags
