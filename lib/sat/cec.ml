(* Fraig-style combinational equivalence checking (Mishchenko,
   Chatterjee, Brayton, Eén, ICCAD 2006). Both netlists share one
   strashed AIG with an XOR miter per output pair; 8 rounds of
   simulation settle the outputs they can and give every node a
   signature. For the rest, the miter is rebuilt node by node into a
   fresh AIG whose nodes are Tseitin-encoded, as they are created,
   into one incremental solver. A node whose rebuilt literal differs
   from its signature bucket's representative is proven against it
   with two solves decided only over the two nodes' cones; once both
   answer [Unsat], the node maps to the representative, and its
   fan-out re-hashes onto shared structure without a query of its own.
   An output whose rebuilt XOR is constant false is proven; each other
   open output gets one solve decided over its cone. *)

type verdict = Equal | Diff of bool array | Unknown of int

type stats = {
  sweep_sat : int;
  sweep_unsat : int;
  sweep_unknown : int;
  merged_strash : int;
  merged_proof : int;
  final_solves : int;
}

let default_budget = 200_000
let sim_rounds = 8
let sim_seed = 0x5eed_ca5e

(* Counterexample from a simulation word with a set miter bit. *)
let cex_of_words words bit =
  Array.map (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L) words

let lowest_set_bit w =
  let rec go i = if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then i else go (i + 1) in
  go 0

let check_outputs_stats ?(conflict_budget = default_budget) a b =
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
  let sat = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let by_strash = ref 0 and by_proof = ref 0 and finals = ref 0 in
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
      (* The fraig [f]: [map.(v)] is the literal of [f] equal to miter
         node [v]. Inputs and the constant keep their ids, and solver
         variable [i] is node [i] of [f] ({!Aig.encode}), so an [f]
         literal is also a solver literal. [fwd.(n)] is the literal an
         [f] node was proven equal to (-1: none), so that a later
         node hashing onto it maps straight to the representative. *)
      let solver = Solver.create () in
      let f = Aig.create ~n_inputs:n_in in
      Aig.encode f solver;
      let map = Array.init n_nodes (fun v -> if v <= n_in then 2 * v else Aig.false_lit) in
      let fwd = Array.make n_nodes (-1) in
      let map_lit l = map.(l lsr 1) lxor (l land 1) in
      let build v =
        if v > n_in then begin
          let a, b = Aig.fanins aig v in
          let l = Aig.mk_and f (map_lit a) (map_lit b) in
          Aig.encode f solver;
          let r = fwd.(l lsr 1) in
          map.(v) <- (if r < 0 then l else r lxor (l land 1))
        end
      in
      (* the nodes of [f] feeding [lits], as solver variables *)
      let mark = Array.make n_nodes 0 and stamp = ref 0 in
      let cone lits =
        incr stamp;
        let acc = ref [] in
        let rec visit n =
          if mark.(n) <> !stamp then begin
            mark.(n) <- !stamp;
            acc := n :: !acc;
            if n > n_in then begin
              let a, b = Aig.fanins f n in
              visit (a lsr 1);
              visit (b lsr 1)
            end
          end
        in
        List.iter (fun l -> visit (l lsr 1)) lits;
        !acc
      in
      (* SAT sweeping: bucket nodes by canonical (phase-normalized)
         signature and prove each candidate against its bucket
         representative in node-id order. The sweep may spend at most
         half the conflict budget; each output's solve gets what it
         left. Once the sweep budget is spent, the rest of the miter
         is still rebuilt, merging by hashing alone. *)
      let budget_left = ref conflict_budget in
      let sweep_left = ref (conflict_budget / 2) in
      let buckets = Hashtbl.create 64 in
      let canon v =
        let ph = Int64.logand sigs.(v).(0) 1L = 1L in
        ((if ph then Array.map Int64.lognot sigs.(v) else sigs.(v)), ph)
      in
      let run_query scope assumptions =
        let before = Solver.conflicts solver in
        let cap = min !sweep_left 2000 in
        let r = Solver.solve ~assumptions ~scope ~conflict_budget:cap solver in
        let used = Solver.conflicts solver - before in
        sweep_left := !sweep_left - used;
        budget_left := !budget_left - used;
        incr (match r with Solver.Sat -> sat | Solver.Unsat -> unsat | Solver.Unknown -> unknown);
        r
      in
      (* Counterexample reuse: the model of every sweep query that
         answers [Sat] becomes bit [k] of a pattern word per input (k =
         the k-th such model), and the miter is re-simulated on it. A
         later pair that some stored pattern already separates is not
         asked: the solver would answer [Sat], so the pair is handled
         as such an answer is (neither merged nor made a
         representative). [full] holds the node values of filled words,
         [cur] the word being filled, [cur_vals] its node values. *)
      let full = ref [] in
      let cur = Array.make n_in 0L and cur_bits = ref 0 in
      let cur_vals = ref [||] in
      let separated lv lr =
        let differ mask vals =
          Int64.logand mask (Int64.logxor (Aig.lit_word vals lv) (Aig.lit_word vals lr))
          <> 0L
        in
        (!cur_bits > 0
        && differ (Int64.pred (Int64.shift_left 1L !cur_bits)) !cur_vals)
        || List.exists (differ (-1L)) !full
      in
      let store_model () =
        let bit = Int64.shift_left 1L !cur_bits in
        for i = 0 to n_in - 1 do
          if Solver.model_value solver (Aig.input_lit f i) then
            cur.(i) <- Int64.logor cur.(i) bit
        done;
        incr cur_bits;
        let vals = Aig.sim aig cur in
        if !cur_bits = 64 then begin
          full := vals :: !full;
          Array.fill cur 0 n_in 0L;
          cur_bits := 0
        end
        else cur_vals := vals
      in
      for v = 0 to n_nodes - 1 do
        build v;
        if !sweep_left > 0 then begin
          let key, ph = canon v in
          match Hashtbl.find_opt buckets key with
          | None -> Hashtbl.add buckets key (v, ph)
          | Some (r, phr) ->
            let lv = (2 * v) lor Bool.to_int ph in
            let lr = (2 * r) lor Bool.to_int phr in
            let fv = map_lit lv and fr = map_lit lr in
            if fv = fr then incr by_strash
            else if not (separated lv lr) then begin
              let scope = cone [ fv; fr ] in
              let q1 = run_query scope [ fv; Aig.neg fr ] in
              if q1 = Solver.Sat then store_model ()
              else if q1 = Solver.Unsat && !sweep_left > 0 then begin
                let q2 = run_query scope [ Aig.neg fv; fr ] in
                if q2 = Solver.Sat then store_model ()
                else if q2 = Solver.Unsat then begin
                  (* proven: [v] becomes the representative, and so
                     does whatever hashes onto [v]'s node later *)
                  incr by_proof;
                  map.(v) <- fr lxor Bool.to_int ph;
                  fwd.(fv lsr 1) <- fr lxor (fv land 1)
                end
              end
            end
        end
      done;
      let final_budget = max 1 !budget_left in
      List.iter
        (fun o ->
          let x = map_lit xors.(o) in
          verdicts.(o) <-
            Some
              (if x = Aig.false_lit then Equal
               else begin
                 incr finals;
                 match
                   Solver.solve ~assumptions:[ x ] ~scope:(cone [ x ])
                     ~conflict_budget:final_budget solver
                 with
                 | Solver.Unsat -> Equal
                 | Solver.Sat ->
                   Diff
                     (Array.init n_in (fun i ->
                          Solver.model_value solver (Aig.input_lit f i)))
                 | Solver.Unknown -> Unknown conflict_budget
               end))
        pending
  end;
  ( Array.map Option.get verdicts,
    {
      sweep_sat = !sat;
      sweep_unsat = !unsat;
      sweep_unknown = !unknown;
      merged_strash = !by_strash;
      merged_proof = !by_proof;
      final_solves = !finals;
    } )

let check_outputs ?conflict_budget a b =
  fst (check_outputs_stats ?conflict_budget a b)

let check ?conflict_budget a b =
  (* a difference outranks an exhausted budget, which outranks a proof *)
  Array.fold_left
    (fun acc v ->
      match (acc, v) with
      | Diff _, _ | Unknown _, Equal -> acc
      | _, (Diff _ | Unknown _) | Equal, Equal -> v)
    Equal
    (check_outputs ?conflict_budget a b)
