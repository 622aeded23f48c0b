(* Backward observability, refined by ternary-constant facts. *)

type fact =
  | Dead of int option
  | Blocked of { blocker : int; via : int }
  | Observable

let rank = function Dead _ -> 0 | Blocked _ -> 1 | Observable -> 2

let join a b =
  if rank a > rank b then a
  else if rank b > rank a then b
  else
    match (a, b) with
    | Blocked x, Blocked y ->
        (* deterministic tie-break: nearest (smallest) blocker, then
           smallest first hop *)
        if (x.blocker, x.via) <= (y.blocker, y.via) then a else b
    | Dead (Some x), Dead (Some y) -> Dead (Some (min x y))
    | Dead None, d | d, Dead None -> d
    | _ -> a

let solve nl ~fanouts ~consts =
  let transfer id facts =
    match Netlist.kind nl id with
    | Netlist.Output -> Observable
    | _ ->
        List.fold_left
          (fun acc c ->
            let edge =
              (* a provably-constant consumer passes no information:
                 every path through it is cut there *)
              if consts.(c) <> Const_dom.Unknown then
                Blocked { blocker = c; via = c }
              else
                match facts.(c) with
                | Observable -> Observable
                | Blocked { blocker; _ } -> Blocked { blocker; via = c }
                | Dead _ -> Dead (Some c)
            in
            join acc edge)
          (Dead None) fanouts.Absint.consumers.(id)
  in
  Absint.backward nl ~fanouts ~bot:(Dead None) ~transfer

let witness nl facts i =
  let limit = Netlist.size nl in
  let rec go acc j steps =
    if steps >= limit then List.rev (j :: acc)
    else
      match facts.(j) with
      | Dead (Some v) -> go (j :: acc) v (steps + 1)
      | Blocked { via; blocker } ->
          if via = blocker then List.rev (blocker :: j :: acc)
          else go (j :: acc) via (steps + 1)
      | _ -> List.rev (j :: acc)
  in
  match facts.(i) with
  | Observable -> []
  | _ -> Absint.path_witness nl (go [] i 0)

let check nl ~consts facts =
  let diags = ref [] in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      match (nd.Netlist.kind, facts.(i)) with
      | (Netlist.Input | Netlist.Output | Netlist.Const _), _ -> ()
      | _, Blocked { blocker; via }
        when via = blocker && consts.(i) = Const_dom.Unknown ->
          (* flag the gates feeding the blocking site directly; their
             upstream cones are implied (and stay un-spammed) *)
          diags :=
            Diag.warning ~witness:(witness nl facts i) ~rule:"AI-OBS-01"
              (Diag.Node i)
              "%s node provably does not affect any output: every path is \
               blocked at constant-valued node %d"
              (Netlist.kind_name nd.Netlist.kind)
              blocker
            :: !diags
      | _ -> ());
  List.rev !diags
