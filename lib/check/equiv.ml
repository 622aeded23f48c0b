(* Per-output equivalence guards: one joint SAT proof of the open outputs. *)

(* The sub-netlist feeding the given output markers: every primary
   input (in order, used or not), their transitive fan-in and the
   markers themselves, in the original id order. *)
let restrict nl oids =
  let n = Netlist.size nl in
  let marked = Array.make n false in
  (* transitive fan-in; fanins may point forward (insertion rewires
     edges), so a plain DFS over ids is required, not an id sweep *)
  let rec visit i =
    if not marked.(i) then begin
      marked.(i) <- true;
      Array.iter visit (Netlist.fanins nl i)
    end
  in
  List.iter visit oids;
  List.iter (fun i -> marked.(i) <- true) (Netlist.inputs nl);
  let out = Netlist.create () in
  let map = Array.make n (-1) in
  (* two-pass build (cf. Netlist.copy): placeholders first, then the
     real, remapped fan-ins *)
  let pending = ref [] in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      if marked.(i) then begin
        let placeholder = Array.map (fun _ -> 0) nd.Netlist.fanins in
        let id = Netlist.add out ?name:nd.Netlist.name nd.Netlist.kind placeholder in
        map.(i) <- id;
        if Array.length nd.Netlist.fanins > 0 then pending := i :: !pending
      end);
  List.iter
    (fun i ->
      let remapped = Array.map (fun f -> map.(f)) (Netlist.fanins nl i) in
      Netlist.set_fanins out map.(i) remapped)
    !pending;
  out

let cone nl oid =
  (match Netlist.kind nl oid with
  | Netlist.Output -> ()
  | k ->
      invalid_arg
        (Printf.sprintf "Equiv.cone: node %d is %s, not an output" oid
           (Netlist.kind_name k)));
  restrict nl [ oid ]

(* The netlist a proof sees: constant-folded with the absint ternary
   facts, which preserves every output's function. *)
let folded nl = fst (Const_dom.fold nl)

(* The sub-netlist feeding output markers [oids], folded: one side of
   the joint SAT proof. *)
let joint_side nl oids = folded (restrict nl oids)

let sat_pair before after =
  (joint_side before (Netlist.outputs before), joint_side after (Netlist.outputs after))

type verdict =
  | Proven_equal
  | Proven_diff of bool array
  | Sampled_equal of int
  | Sampled_diff
  | Cex_invalid of bool array

(* A counterexample is only reported after it actually distinguishes
   the two cones under simulation; a non-replaying cex is a solver
   bug, not a design difference. *)
let replays ca cb cex = Sim.eval ca cex <> Sim.eval cb cex

(* The verdict of an output whose conflict budget ran out: simulation
   samples its two cones. *)
let sampled (ca, cb) budget =
  if Sim.equivalent ca cb then Sampled_equal budget else Sampled_diff

(* A CEC verdict for one output, settled against that output's two
   cones (only forced when needed): a counterexample must replay, a
   budget-out is sampled. *)
let of_cec cones = function
  | Cec.Equal -> Proven_equal
  | Cec.Diff cex ->
      let ca, cb = Lazy.force cones in
      if replays ca cb cex then Proven_diff cex else Cex_invalid cex
  | Cec.Unknown budget -> sampled (Lazy.force cones) budget

let bits v =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list v))

let bools_of_bits s =
  Array.init (String.length s) (fun i -> s.[i] = '1')

(* Proof-cache encoding. Only proven verdicts are stored; a cached
   counterexample is replayed on the way back in, and anything
   unparseable or stale is treated as a miss. *)
let cache_key ca cb =
  "eq1:" ^ Netlist.struct_hash ca ^ ":" ^ Netlist.struct_hash cb

let encode_verdict = function
  | Proven_equal -> Some "equal"
  | Proven_diff cex -> Some ("diff:" ^ bits cex)
  | Sampled_equal _ | Sampled_diff | Cex_invalid _ -> None

let decode_verdict ca cb s =
  if s = "equal" then Some Proven_equal
  else if String.length s > 5 && String.sub s 0 5 = "diff:" then begin
    let cex = bools_of_bits (String.sub s 5 (String.length s - 5)) in
    if
      Array.length cex = List.length (Netlist.inputs ca) && replays ca cb cex
    then Some (Proven_diff cex)
    else None
  end
  else None

(* [engine] has one value and selects nothing (see the interface) *)
let check_pair ?engine:(_ : [ `Sat ] = `Sat)
    ?(conflict_budget = Cec.default_budget) ?cache ~stage before after =
  let outs_b = Array.of_list (Netlist.outputs before) in
  let outs_a = Array.of_list (Netlist.outputs after) in
  let ins_b = List.length (Netlist.inputs before) in
  let ins_a = List.length (Netlist.inputs after) in
  if ins_b <> ins_a || Array.length outs_b <> Array.length outs_a then
    [
      Diag.error ~rule:"EQ-ARITY-01" Diag.Global
        "%s: IO mismatch (%d/%d inputs, %d/%d outputs)" stage ins_b ins_a
        (Array.length outs_b) (Array.length outs_a);
    ]
  else begin
    let n = Array.length outs_b in
    (* each cone is constant-folded with the absint ternary facts
       first — sound (folding preserves the function), and it shrinks
       both the proof and the cache key's sensitivity to dead constant
       cones. A cone is only extracted when a cache key or a non-equal
       SAT verdict needs it. *)
    let cones =
      Array.init n (fun i ->
          lazy (folded (cone before outs_b.(i)), folded (cone after outs_a.(i))))
    in
    let keys =
      match cache with
      | None -> [||]
      | Some _ ->
          Array.map (fun p -> let ca, cb = Lazy.force p in cache_key ca cb) cones
    in
    let cached =
      Array.init n (fun i ->
          match cache with
          | None -> None
          | Some c ->
              Option.bind (c.Memo.find keys.(i)) (fun s ->
                  let ca, cb = Lazy.force cones.(i) in
                  decode_verdict ca cb s))
    in
    let verdicts = Array.copy cached in
    let open_ =
      List.filter (fun i -> Option.is_none verdicts.(i)) (List.init n Fun.id)
    in
    (* every open output is proven jointly: one AIG, one simulation
       and one SAT sweep over the folded sub-netlists that feed those
       outputs, instead of one per cone *)
    if open_ <> [] then begin
      let sub nl outs = joint_side nl (List.map (fun i -> outs.(i)) open_) in
      let joint =
        Cec.check_outputs ~conflict_budget (sub before outs_b) (sub after outs_a)
      in
      List.iteri (fun k i -> verdicts.(i) <- Some (of_cec cones.(i) joint.(k))) open_
    end;
    let verdicts = Array.map Option.get verdicts in
    (match cache with
    | None -> ()
    | Some c ->
        Array.iteri
          (fun i v ->
            match cached.(i) with
            | Some _ -> ()
            | None -> (
                match encode_verdict v with
                | Some s -> c.Memo.store keys.(i) s
                | None -> ()))
          verdicts);
    let diags = ref [] in
    let push d = diags := d :: !diags in
    Array.iteri
      (fun i v ->
        let oid = outs_a.(i) in
        let name =
          match Netlist.name after oid with
          | Some n -> Printf.sprintf "%S" n
          | None -> Printf.sprintf "#%d" i
        in
        match v with
        | Proven_equal -> ()
        | Proven_diff cex ->
            push
              (Diag.error ~rule:"EQ-DIFF-01" (Diag.Node oid)
                 "%s: output %s differs (counterexample inputs %s)" stage name
                 (bits cex))
        | Sampled_diff ->
            push
              (Diag.error ~rule:"EQ-DIFF-02" (Diag.Node oid)
                 "%s: output %s differs under simulation fallback" stage name)
        | Sampled_equal budget ->
            push
              (Diag.warning ~rule:"EQ-TIMEOUT-01" (Diag.Node oid)
                 "%s: output %s exhausted the SAT conflict budget (%d); \
                  equivalence sampled, not proven"
                 stage name budget)
        | Cex_invalid cex ->
            push
              (Diag.error ~rule:"EQ-CEX-01" (Diag.Node oid)
                 "%s: output %s: internal error — SAT counterexample %s does \
                  not replay through simulation"
                 stage name (bits cex)))
      verdicts;
    List.rev !diags
  end
