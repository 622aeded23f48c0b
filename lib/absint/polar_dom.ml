(* Inversion parity along Buf/Not/Splitter chains. *)

type fact = { root : int; inverted : bool; invs : int }

let solve nl =
  let transfer id facts =
    let f = Netlist.fanins nl id in
    match Netlist.kind nl id with
    | Netlist.Buf | Netlist.Splitter _ | Netlist.Output -> facts.(f.(0))
    | Netlist.Not ->
        let p = facts.(f.(0)) in
        { p with inverted = not p.inverted; invs = p.invs + 1 }
    | _ -> { root = id; inverted = false; invs = 0 }
  in
  Absint.forward nl ~bot:{ root = -1; inverted = false; invs = 0 } ~transfer

(* The chain from a node back to its root, rendered root-first. *)
let chain_to_root nl id =
  let next i =
    match Netlist.kind nl i with
    | Netlist.Buf | Netlist.Splitter _ | Netlist.Output | Netlist.Not ->
        Some (Netlist.fanins nl i).(0)
    | _ -> None
  in
  List.rev (Absint.chase ~limit:(Netlist.size nl) id next)

let check nl facts =
  let diags = ref [] in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      match nd.Netlist.kind with
      | Netlist.Not ->
          let f = facts.(i) in
          if f.invs >= 2 && not f.inverted && f.root >= 0 then
            diags :=
              Diag.warning
                ~witness:(Absint.path_witness nl (chain_to_root nl i))
                ~rule:"AI-POLAR-01" (Diag.Node i)
                "inverter pair cancels: node recomputes node %d with even \
                 parity through %d inverters (AQFP inversion is free — fold \
                 the parity into the consumer)"
                f.root f.invs
              :: !diags
      | _ -> ());
  List.rev !diags
