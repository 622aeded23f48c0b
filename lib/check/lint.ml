(* Structural netlist lints. The hard errors (arity, dangling ids,
   cycles, splitter fanout) come from [Netlist.validate_diags]; this
   pass adds the style/liveness findings on top. *)

let check ?(tier = Check.Full) ?facts nl =
  let facts = Facts.for_netlist ?facts nl in
  let structural = Facts.structural facts in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  (* duplicate names *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Netlist.iter nl (fun nd ->
      match nd.Netlist.name with
      | None -> ()
      | Some name -> (
          match Hashtbl.find_opt seen name with
          | Some first ->
              push
                (Diag.warning ~rule:"NL-NAME-01" (Diag.Node nd.Netlist.id)
                   "name %S already used by node %d" name first)
          | None -> Hashtbl.add seen name nd.Netlist.id));
  (* AIG-backed lints: structural hashing + constant propagation find
     redundant and degenerate logic. Conversion needs a structurally
     sound netlist (in-range fan-ins, correct arities, no cycles), and
     the [Fast] tier skips it — the absint constant pass (AI-CONST-01)
     covers degenerate logic at a fraction of the cost. *)
  if structural = [] && tier = Check.Full then begin
    let aig = Aig.create ~n_inputs:(List.length (Netlist.inputs nl)) in
    let lits = Aig.add_netlist aig nl in
    (* two gates computing the same AIG literal from the same fan-ins
       are redundant copies. Buffers and splitters are exempt: in AQFP
       they legitimately replicate a signal for pipelining/fan-out. *)
    let dup : (int list * int, int) Hashtbl.t = Hashtbl.create 64 in
    Netlist.iter nl (fun nd ->
        match nd.Netlist.kind with
        | Netlist.Input | Netlist.Output | Netlist.Const _ | Netlist.Buf
        | Netlist.Splitter _ ->
            ()
        | Netlist.Not | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor
        | Netlist.Xor | Netlist.Xnor | Netlist.Maj -> (
            let key =
              ( List.sort Int.compare (Array.to_list nd.Netlist.fanins),
                lits.(nd.Netlist.id) )
            in
            match Hashtbl.find_opt dup key with
            | Some first ->
                push
                  (Diag.warning ~rule:"NL-DUP-01" (Diag.Node nd.Netlist.id)
                     "structurally duplicate gate: %s node recomputes node %d \
                      (same function of the same fan-ins)"
                     (Netlist.kind_name nd.Netlist.kind) first)
            | None -> Hashtbl.add dup key nd.Netlist.id));
    List.iter
      (fun oid ->
        let l = lits.(oid) in
        if l = Aig.false_lit || l = Aig.true_lit then
          push
            (Diag.warning ~rule:"NL-CONST-01" (Diag.Node oid)
               "output%s is provably constant %d"
               (match Netlist.name nl oid with
               | Some n -> Printf.sprintf " %S" n
               | None -> "")
               (l land 1)))
      (Netlist.outputs nl)
  end;
  (* liveness: with a sound structure, backward observability upgrades
     NL-DEAD-01 from "has no consumers" to "provably does not affect
     any primary output" and ships the chain to the dead end as a
     witness. Broken structure falls back to the plain fan-out scan. *)
  if structural = [] then begin
    let obs = Facts.obs facts in
    Netlist.iter nl (fun nd ->
        let i = nd.Netlist.id in
        match (nd.Netlist.kind, obs.(i)) with
        | Netlist.Output, _ -> ()
        | Netlist.Input, Obs_dom.Dead None ->
            push
              (Diag.info ~rule:"NL-INPUT-01" (Diag.Node i)
                 "primary input%s is never used"
                 (match nd.Netlist.name with
                 | Some n -> Printf.sprintf " %S" n
                 | None -> ""))
        | Netlist.Input, _ -> ()
        | k, Obs_dom.Dead via ->
            push
              (Diag.warning
                 ~witness:(Obs_dom.witness nl obs i)
                 ~rule:"NL-DEAD-01" (Diag.Node i)
                 "dead logic: %s node provably does not affect any output%s"
                 (Netlist.kind_name k)
                 (match via with
                 | None -> " (no consumers)"
                 | Some _ -> " (all paths dead-end)"))
        | _ -> ())
  end
  else if
    not (List.exists (fun d -> d.Diag.rule = "NL-DANGLE-01") structural)
  then begin
    (* no NL-DANGLE-01 fired, so every fan-in id is in range *)
    let counts = Netlist.fanout_counts nl in
    Netlist.iter nl (fun nd ->
        if counts.(nd.Netlist.id) = 0 then
          match nd.Netlist.kind with
          | Netlist.Output -> ()
          | Netlist.Input ->
              push
                (Diag.info ~rule:"NL-INPUT-01" (Diag.Node nd.Netlist.id)
                   "primary input%s is never used"
                   (match nd.Netlist.name with
                   | Some n -> Printf.sprintf " %S" n
                   | None -> ""))
          | k ->
              push
                (Diag.warning ~rule:"NL-DEAD-01" (Diag.Node nd.Netlist.id)
                   "dead logic: %s node has no consumers"
                   (Netlist.kind_name k)))
  end;
  if Netlist.outputs nl = [] then
    push
      (Diag.warning ~rule:"NL-OUT-01" Diag.Global
         "netlist has no primary outputs");
  structural @ List.rev !diags
