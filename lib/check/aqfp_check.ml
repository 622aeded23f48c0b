(* AQFP legality: one scan over the nodes in id order. *)

let check nl =
  let n = Netlist.size nl in
  let unset = ref false in
  Netlist.iter nl (fun nd ->
      if nd.Netlist.phase < 0 then unset := true);
  if !unset then
    List.filter_map
      (fun i ->
        if Netlist.phase nl i < 0 then
          Some
            (Diag.error ~rule:"AQFP-PHASE-00" (Diag.Node i)
               "clock phase unset (levelize never ran)")
        else None)
      (List.init n (fun i -> i))
  else begin
    let counts = Netlist.fanout_counts nl in
    let max_phase =
      Netlist.fold nl
        (fun acc nd ->
          if nd.Netlist.kind = Netlist.Output then acc
          else max acc nd.Netlist.phase)
        0
    in
    let diags = ref [] in
    let push d = diags := d :: !diags in
    for i = 0 to n - 1 do
      let nd = Netlist.node nl i in
      (match nd.Netlist.kind with
      | Netlist.Nand | Netlist.Nor | Netlist.Xor | Netlist.Xnor ->
          push
            (Diag.error ~rule:"AQFP-KIND-01" (Diag.Node i)
               "non-majority gate %s survived synthesis"
               (Netlist.kind_name nd.Netlist.kind))
      | _ -> ());
      List.iter
        (function
          | Netlist.Source ->
              push
                (Diag.error ~rule:"AQFP-PHASE-01" (Diag.Node i)
                   "source at phase %d, expected 0" nd.Netlist.phase)
          | Netlist.Fanin f ->
              push
                (Diag.error ~rule:"AQFP-PHASE-01" (Diag.Node i)
                   "fanin %d at phase %d, expected %d (gate phase %d)" f
                   (Netlist.phase nl f) (nd.Netlist.phase - 1)
                   nd.Netlist.phase))
        (Netlist.imbalances nl i);
      (match nd.Netlist.kind with
      | Netlist.Splitter k when k < 2 || k > 4 ->
          push
            (Diag.error ~rule:"AQFP-SPLIT-01" (Diag.Node i)
               "splitter arity %d outside the library's 2..4" k)
      | _ -> ());
      (match nd.Netlist.kind with
      | Netlist.Splitter _ | Netlist.Output -> ()
      | _ ->
          if counts.(i) > 1 then
            push
              (Diag.error ~rule:"AQFP-FANOUT-01" (Diag.Node i)
                 "%s drives %d consumers (AQFP fan-out is 1; insert a \
                  splitter)"
                 (Netlist.kind_name nd.Netlist.kind)
                 counts.(i)));
      (match nd.Netlist.kind with
      | Netlist.Output ->
          let driver = nd.Netlist.fanins.(0) in
          let pd = Netlist.phase nl driver in
          if pd <> max_phase then
            push
              (Diag.error ~rule:"AQFP-PHASE-02" (Diag.Node i)
                 "primary output retires at phase %d, design finishes \
                  at %d (unbalanced output)"
                 pd max_phase)
      | _ -> ())
    done;
    List.rev !diags
  end
