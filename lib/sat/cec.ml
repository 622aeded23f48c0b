type verdict = Equal | Diff of bool array | Unknown of int

let default_budget = 200_000
let sim_rounds = 8
let sim_seed = 0x5eed_ca5e

(* Counterexample from a simulation word with a set miter bit. *)
let cex_of_words words bit =
  Array.map (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L) words

let lowest_set_bit w =
  let rec go i = if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then i else go (i + 1) in
  go 0

let check_outputs ?(conflict_budget = default_budget) a b =
  let n_in = List.length (Netlist.inputs a) in
  if List.length (Netlist.inputs b) <> n_in then
    invalid_arg "Cec.check_outputs: input count mismatch";
  let outs_a = Netlist.outputs a and outs_b = Netlist.outputs b in
  if List.length outs_a <> List.length outs_b then
    invalid_arg "Cec.check_outputs: output count mismatch";
  let aig = Aig.create ~n_inputs:n_in in
  let la = Aig.add_netlist aig a in
  let lb = Aig.add_netlist aig b in
  (* one XOR miter per output pair; a constant one is decided by
     strashing alone *)
  let xors =
    Array.of_list
      (List.map2 (fun oa ob -> Aig.mk_xor aig la.(oa) lb.(ob)) outs_a outs_b)
  in
  let verdicts =
    Array.map
      (fun x ->
        if x = Aig.false_lit then Some Equal
        else if x = Aig.true_lit then Some (Diff (Array.make n_in false))
        else None)
      xors
  in
  let is_open o = Option.is_none verdicts.(o) in
  let open_outputs () = List.filter is_open (List.init (Array.length xors) Fun.id) in
  if open_outputs () <> [] then begin
    (* Deterministic random simulation: an output's first differing
       round (lowest set bit) is its counterexample; the per-node
       response words become sweeping signatures. *)
    let rng = Rng.create sim_seed in
    let n_nodes = Aig.n_nodes aig in
    let sigs = Array.make_matrix n_nodes sim_rounds 0L in
    for round = 0 to sim_rounds - 1 do
      let words = Array.init n_in (fun _ -> Rng.bits64 rng) in
      let vals = Aig.sim aig words in
      Array.iteri
        (fun o x ->
          if is_open o then begin
            let w = Aig.lit_word vals x in
            if w <> 0L then
              verdicts.(o) <- Some (Diff (cex_of_words words (lowest_set_bit w)))
          end)
        xors;
      for v = 0 to n_nodes - 1 do
        sigs.(v).(round) <- vals.(v)
      done
    done;
    match open_outputs () with
    | [] -> ()
    | pending ->
      let solver = Solver.create () in
      let vars = Aig.to_solver aig solver in
      let slit l = Aig.solver_lit vars l in
      (* SAT sweeping: bucket nodes by canonical (phase-normalized)
         signature, prove each candidate against its bucket
         representative in node-id order, merge proven pairs with
         equality clauses. The sweep may spend at most half the
         conflict budget; each output's solve gets what it left. *)
      let budget_left = ref conflict_budget in
      let sweep_left = ref (conflict_budget / 2) in
      let buckets = Hashtbl.create 64 in
      let canon v =
        let ph = Int64.logand sigs.(v).(0) 1L = 1L in
        ((if ph then Array.map Int64.lognot sigs.(v) else sigs.(v)), ph)
      in
      let run_query assumptions =
        let before = Solver.conflicts solver in
        let cap = min !sweep_left 2000 in
        let r = Solver.solve ~assumptions ~conflict_budget:cap solver in
        let used = Solver.conflicts solver - before in
        sweep_left := !sweep_left - used;
        budget_left := !budget_left - used;
        r
      in
      let v = ref 0 in
      while !v < n_nodes && !sweep_left > 0 do
        let key, ph = canon !v in
        (match Hashtbl.find_opt buckets key with
        | None -> Hashtbl.add buckets key (!v, ph)
        | Some (r, phr) ->
          let lv = (2 * !v) lor (if ph then 1 else 0) in
          let lr = (2 * r) lor (if phr then 1 else 0) in
          let q1 = run_query [ slit lv; Solver.neg_lit (slit lr) ] in
          if q1 = Solver.Unsat && !sweep_left > 0 then begin
            let q2 = run_query [ Solver.neg_lit (slit lv); slit lr ] in
            if q2 = Solver.Unsat then begin
              (* proven: merge so later queries see the equivalence *)
              Solver.add_clause solver
                [ Solver.neg_lit (slit lv); slit lr ];
              Solver.add_clause solver
                [ slit lv; Solver.neg_lit (slit lr) ]
            end
          end);
        incr v
      done;
      let final_budget = max 1 !budget_left in
      List.iter
        (fun o ->
          verdicts.(o) <-
            Some
              (match
                 Solver.solve ~assumptions:[ slit xors.(o) ]
                   ~conflict_budget:final_budget solver
               with
              | Solver.Unsat -> Equal
              | Solver.Sat ->
                Diff
                  (Array.init n_in (fun i ->
                       Solver.model_value solver (slit (Aig.input_lit aig i))))
              | Solver.Unknown -> Unknown conflict_budget))
        pending
  end;
  Array.map Option.get verdicts

let check ?conflict_budget a b =
  (* a difference outranks an exhausted budget, which outranks a proof *)
  Array.fold_left
    (fun acc v ->
      match (acc, v) with
      | Diff _, _ | Unknown _, Equal -> acc
      | _, (Diff _ | Unknown _) | Equal, Equal -> v)
    Equal
    (check_outputs ?conflict_budget a b)
