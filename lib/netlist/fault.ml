type fault = { node : int; stuck_at : bool }

let pp_fault ppf f =
  Format.fprintf ppf "node %d stuck-at-%d" f.node (if f.stuck_at then 1 else 0)

let all_faults nl =
  Netlist.fold nl
    (fun acc nd ->
      match nd.Netlist.kind with
      | Netlist.Output -> acc
      | _ ->
          { node = nd.Netlist.id; stuck_at = false }
          :: { node = nd.Netlist.id; stuck_at = true }
          :: acc)
    []
  |> List.rev

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

(* Bit-parallel simulation with one node's value pinned. *)
let eval_words_faulty nl ~fault input_words =
  let inputs = Netlist.inputs nl in
  let values = Array.make (Netlist.size nl) 0 in
  List.iteri (fun i id -> values.(id) <- input_words.(i)) inputs;
  let order = Netlist.topo_order nl in
  let pinned = if fault.stuck_at then word_mask else 0 in
  Array.iter
    (fun id ->
      let f = Netlist.fanins nl id in
      let v k = values.(f.(k)) in
      let result =
        match Netlist.kind nl id with
        | Netlist.Input -> values.(id)
        | Const b -> if b then word_mask else 0
        | Buf | Output | Splitter _ -> v 0
        | Not -> lnot (v 0) land word_mask
        | And -> v 0 land v 1
        | Or -> v 0 lor v 1
        | Nand -> lnot (v 0 land v 1) land word_mask
        | Nor -> lnot (v 0 lor v 1) land word_mask
        | Xor -> v 0 lxor v 1
        | Xnor -> lnot (v 0 lxor v 1) land word_mask
        | Maj -> (v 0 land v 1) lor (v 0 land v 2) lor (v 1 land v 2)
      in
      values.(id) <- (if id = fault.node then pinned else result))
    order;
  Array.of_list (List.map (fun id -> values.(id)) (Netlist.outputs nl))

let words_of_vectors nl vectors =
  let n_in = List.length (Netlist.inputs nl) in
  List.iter
    (fun v ->
      if Array.length v <> n_in then invalid_arg "Fault: vector arity mismatch")
    vectors;
  (* pack up to 62 vectors per word column *)
  let rec chunks = function
    | [] -> []
    | vs ->
        let batch = List.filteri (fun i _ -> i < word_bits) vs in
        let rest = List.filteri (fun i _ -> i >= word_bits) vs in
        let words =
          Array.init n_in (fun k ->
              List.fold_left
                (fun (acc, bit) v ->
                  ((if v.(k) then acc lor (1 lsl bit) else acc), bit + 1))
                (0, 0) batch
              |> fst)
        in
        (words, List.length batch) :: chunks rest
  in
  chunks vectors

let detected_by_words nl fault (words, n_used) good_outputs =
  let mask = if n_used >= word_bits then word_mask else (1 lsl n_used) - 1 in
  let bad = eval_words_faulty nl ~fault words in
  let differs = ref false in
  Array.iteri
    (fun i g -> if (g lxor bad.(i)) land mask <> 0 then differs := true)
    good_outputs;
  !differs

let faulty_response nl fault vector =
  let words = Array.map (fun b -> if b then 1 else 0) vector in
  Array.map (fun w -> w land 1 = 1) (eval_words_faulty nl ~fault words)

let detects nl fault vector =
  let words = Array.map (fun b -> if b then 1 else 0) vector in
  let good = Sim.eval_words nl words in
  detected_by_words nl fault (words, 1) good

let coverage nl vectors =
  let faults = all_faults nl in
  let batches =
    List.map (fun (w, n) -> (w, n, Sim.eval_words nl w)) (words_of_vectors nl vectors)
  in
  let undetected =
    List.filter
      (fun fault ->
        not
          (List.exists
             (fun (w, n, good) -> detected_by_words nl fault (w, n) good)
             batches))
      faults
  in
  let total = List.length faults in
  let det = total - List.length undetected in
  ((if total = 0 then 1.0 else float_of_int det /. float_of_int total), undetected)

type tests = {
  vectors : bool array list;
  achieved : float;
  undetected : fault list;
}

let generate ?(seed = 1) nl =
  let target = 0.99 and max_vectors = 2000 in
  let rng = Rng.create seed in
  let n_in = List.length (Netlist.inputs nl) in
  let faults = ref (all_faults nl) in
  let total = float_of_int (List.length !faults) in
  let kept = ref [] in
  let n_kept = ref 0 in
  let stall = ref 0 in
  let continue = ref (total > 0.0) in
  while !continue do
    (* one batch of up to 62 random vectors *)
    let batch_size = min word_bits (max_vectors - !n_kept) in
    if batch_size <= 0 then continue := false
    else begin
      let batch =
        List.init batch_size (fun _ -> Array.init n_in (fun _ -> Rng.bool rng))
      in
      let words =
        Array.init n_in (fun k ->
            List.fold_left
              (fun (acc, bit) v ->
                ((if v.(k) then acc lor (1 lsl bit) else acc), bit + 1))
              (0, 0) batch
            |> fst)
      in
      let good = Sim.eval_words nl words in
      (* which vector detects which fault: per fault, find the lowest
         differing bit and keep only those vectors *)
      let useful_bits = ref 0 in
      faults :=
        List.filter
          (fun fault ->
            let bad = eval_words_faulty nl ~fault words in
            let diff = ref 0 in
            Array.iteri (fun i g -> diff := !diff lor (g lxor bad.(i))) good;
            let mask = (1 lsl batch_size) - 1 in
            let diff = !diff land mask in
            if diff = 0 then true (* still undetected *)
            else begin
              (* keep the first vector that exposes this fault *)
              let bit =
                let rec lowest k = if (diff lsr k) land 1 = 1 then k else lowest (k + 1) in
                lowest 0
              in
              useful_bits := !useful_bits lor (1 lsl bit);
              false
            end)
          !faults;
      List.iteri
        (fun bit v ->
          if (!useful_bits lsr bit) land 1 = 1 then begin
            kept := v :: !kept;
            incr n_kept
          end)
        batch;
      if !useful_bits = 0 then incr stall else stall := 0;
      let achieved = 1.0 -. (float_of_int (List.length !faults) /. total) in
      (* a long streak of useless batches means what is left is
         redundant (or astronomically hard) — stop *)
      if achieved >= target || !n_kept >= max_vectors || !faults = [] || !stall >= 20
      then continue := false
    end
  done;
  let achieved =
    if total = 0.0 then 1.0
    else 1.0 -. (float_of_int (List.length !faults) /. total)
  in
  { vectors = List.rev !kept; achieved; undetected = !faults }

let diagnose nl vectors observed =
  if List.length vectors <> List.length observed then
    invalid_arg "Fault.diagnose: vector/response count mismatch";
  let n_out = List.length (Netlist.outputs nl) in
  List.iter
    (fun o ->
      if Array.length o <> n_out then
        invalid_arg "Fault.diagnose: response arity mismatch")
    observed;
  let batches = words_of_vectors nl vectors in
  (* flatten observed responses in the same chunk order *)
  let rec obs_chunks obs =
    match obs with
    | [] -> []
    | _ ->
        let batch = List.filteri (fun i _ -> i < word_bits) obs in
        let rest = List.filteri (fun i _ -> i >= word_bits) obs in
        let words =
          Array.init n_out (fun k ->
              List.fold_left
                (fun (acc, bit) o ->
                  ((if o.(k) then acc lor (1 lsl bit) else acc), bit + 1))
                (0, 0) batch
              |> fst)
        in
        words :: obs_chunks rest
  in
  let observed_words = obs_chunks observed in
  List.filter
    (fun fault ->
      List.for_all2
        (fun (words, n_used) obs ->
          let mask = if n_used >= word_bits then word_mask else (1 lsl n_used) - 1 in
          let bad = eval_words_faulty nl ~fault words in
          Array.for_all Fun.id
            (Array.mapi (fun i b -> (b lxor obs.(i)) land mask = 0) bad))
        batches observed_words)
    (all_faults nl)
