(* Tests for the sf_sat subsystem: the CDCL solver must agree with
   brute-force enumeration and return valid models, DIMACS must
   round-trip, and the CEC sweeper must prove unmutated benchmark
   pairs equal while producing replayable counterexamples for seeded
   mutations, and the joint per-output check must agree with proving
   every output cone on its own. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- indexed heap ---------- *)

let test_iheap () =
  let act = [| 1.0; 5.0; 3.0; 5.0; 0.0 |] in
  let h =
    Iheap.create ~better:(fun a b ->
        act.(a) > act.(b) || (act.(a) = act.(b) && a < b))
  in
  List.iter (Iheap.insert h) [ 0; 1; 2; 3; 4 ];
  Iheap.insert h 1;
  checki "no duplicate insert" 5 (Iheap.length h);
  checkb "mem" true (Iheap.mem h 3);
  (* equal activities pop in index order: 1 before 3 *)
  let order = List.init 5 (fun _ -> Option.get (Iheap.pop h)) in
  checkb "pop order deterministic" true (order = [ 1; 3; 2; 0; 4 ]);
  checkb "empty" true (Iheap.is_empty h);
  Iheap.insert h 2;
  act.(4) <- 9.0;
  Iheap.insert h 4;
  Iheap.update h 2;
  checkb "best after update" true (Iheap.pop h = Some 4)

(* ---------- solver vs brute force ---------- *)

let eval_cnf cnf assignment =
  List.for_all
    (fun cl ->
      List.exists
        (fun d ->
          let v = assignment.(abs d - 1) in
          if d < 0 then not v else v)
        cl)
    cnf.Dimacs.clauses

let brute_force_sat cnf =
  let n = cnf.Dimacs.n_vars in
  let found = ref false in
  let m = 1 lsl n in
  let i = ref 0 in
  while (not !found) && !i < m do
    let a = Array.init n (fun k -> (!i lsr k) land 1 = 1) in
    if eval_cnf cnf a then found := true;
    incr i
  done;
  !found

let random_cnf rng =
  let n = 3 + Rng.int rng 10 in
  (* around the sat/unsat threshold so both answers occur *)
  let m = max 1 (n * (3 + Rng.int rng 3)) in
  let clauses =
    List.init m (fun _ ->
        let len = 2 + Rng.int rng 3 in
        List.init len (fun _ ->
            let v = 1 + Rng.int rng n in
            if Rng.bool rng then v else -v))
  in
  { Dimacs.n_vars = n; clauses }

let test_cdcl_vs_brute_force () =
  let rng = Rng.create 42 in
  let sat_seen = ref 0 and unsat_seen = ref 0 in
  for _ = 1 to 150 do
    let cnf = random_cnf rng in
    let expect = brute_force_sat cnf in
    (match Dimacs.solve cnf with
    | `Sat model ->
      incr sat_seen;
      checkb "solver sat iff brute-force sat" true expect;
      checkb "model satisfies the formula" true (eval_cnf cnf model)
    | `Unsat ->
      incr unsat_seen;
      checkb "solver unsat iff brute-force unsat" false expect
    | `Unknown -> Alcotest.fail "unbudgeted solve returned Unknown")
  done;
  checkb "exercised both answers" true (!sat_seen > 10 && !unsat_seen > 10)

let test_solver_determinism () =
  let rng = Rng.create 7 in
  let cnfs = List.init 20 (fun _ -> random_cnf rng) in
  let run () =
    List.map
      (fun cnf ->
        match Dimacs.solve cnf with
        | `Sat m -> "s" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list m))
        | `Unsat -> "u"
        | `Unknown -> "?")
      cnfs
  in
  checkb "identical reruns" true (run () = run ())

(* ---------- assumptions, incrementality, budget ---------- *)

let test_assumptions_incremental () =
  let s = Solver.create () in
  let x = Solver.lit_of_var (Solver.new_var s) in
  let y = Solver.lit_of_var (Solver.new_var s) in
  Solver.add_clause s [ x; y ];
  Solver.add_clause s [ Solver.neg_lit x; y ];
  (* x∨y, ¬x∨y ⊨ y *)
  checkb "y forced" true
    (Solver.solve ~assumptions:[ Solver.neg_lit y ] s = Solver.Unsat);
  checkb "still sat without assumptions" true (Solver.solve s = Solver.Sat);
  checkb "model has y" true (Solver.model_value s y);
  (* the assumption-unsat above must not have poisoned the solver *)
  checkb "okay" true (Solver.okay s);
  Solver.add_clause s [ Solver.neg_lit y ];
  checkb "now truly unsat" true (Solver.solve s = Solver.Unsat);
  checkb "not okay" false (Solver.okay s)

(* Pigeonhole PHP(n+1, n): classic hard UNSAT family. *)
let pigeonhole s n =
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Solver.new_var s)) in
  for i = 0 to n do
    Solver.add_clause s
      (List.init n (fun j -> Solver.lit_of_var v.(i).(j)))
  done;
  for j = 0 to n - 1 do
    for i = 0 to n do
      for k = i + 1 to n do
        Solver.add_clause s
          [
            Solver.neg_lit (Solver.lit_of_var v.(i).(j));
            Solver.neg_lit (Solver.lit_of_var v.(k).(j));
          ]
      done
    done
  done

let test_budget_and_php () =
  let s = Solver.create () in
  pigeonhole s 4;
  checkb "php(5,4) needs conflicts" true
    (Solver.solve ~conflict_budget:1 s = Solver.Unknown);
  (* learnt clauses survive; resumed solve finishes the proof *)
  checkb "php(5,4) unsat" true (Solver.solve s = Solver.Unsat);
  let s2 = Solver.create () in
  pigeonhole s2 6;
  checkb "php(7,6) unsat (restarts + reduction exercised)" true
    (Solver.solve s2 = Solver.Unsat);
  checkb "nontrivial conflict count" true (Solver.conflicts s2 > 50)

(* ---------- DIMACS ---------- *)

let test_dimacs_roundtrip () =
  let text = "c a comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n" in
  match Dimacs.parse text with
  | Error e -> Alcotest.fail e
  | Ok cnf ->
    checki "vars" 3 cnf.Dimacs.n_vars;
    checki "clauses" 3 (List.length cnf.Dimacs.clauses);
    (match Dimacs.parse (Dimacs.to_string cnf) with
    | Error e -> Alcotest.fail e
    | Ok cnf' ->
      checkb "round-trip" true (cnf = cnf');
      (match Dimacs.solve cnf' with
      | `Sat m ->
        checkb "¬x1 forced" false m.(0);
        checkb "model valid" true (eval_cnf cnf' m)
      | `Unsat | `Unknown -> Alcotest.fail "expected sat"));
    checkb "missing header rejected" true
      (match Dimacs.parse "1 2 0\n" with Error _ -> true | Ok _ -> false);
    checkb "junk rejected" true
      (match Dimacs.parse "p cnf 2 1\n1 x 0\n" with
      | Error _ -> true
      | Ok _ -> false)

(* ---------- AIG ---------- *)

let test_aig_strash () =
  let g = Aig.create ~n_inputs:3 in
  let a = Aig.input_lit g 0 and b = Aig.input_lit g 1 in
  let x1 = Aig.mk_and g a b in
  let x2 = Aig.mk_and g b a in
  checkb "commutative strash" true (x1 = x2);
  checkb "const fold" true (Aig.mk_and g a Aig.false_lit = Aig.false_lit);
  checkb "identity" true (Aig.mk_and g a Aig.true_lit = a);
  checkb "idempotent" true (Aig.mk_and g a a = a);
  checkb "contradiction" true (Aig.mk_and g a (Aig.neg a) = Aig.false_lit);
  let n = Aig.n_nodes g in
  ignore (Aig.mk_and g a b);
  checki "hash hit allocates nothing" n (Aig.n_nodes g);
  (* xor truth table via sim *)
  let x = Aig.mk_xor g a b in
  let vals = Aig.sim g [| 0b1010L; 0b1100L; 0L |] in
  checkb "xor sim" true
    (Int64.logand (Aig.lit_word vals x) 0b1111L = 0b0110L);
  let mj = Aig.mk_maj g a b (Aig.input_lit g 2) in
  let vals = Aig.sim g [| 0b10101010L; 0b11001100L; 0b11110000L |] in
  checkb "maj sim" true
    (Int64.logand (Aig.lit_word vals mj) 0xffL = 0b11101000L)

(* ---------- CEC ---------- *)

let xor3 assoc_left =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let c = Netlist.add nl Netlist.Input [||] in
  let o =
    if assoc_left then
      Netlist.add nl Netlist.Xor [| Netlist.add nl Netlist.Xor [| a; b |]; c |]
    else
      Netlist.add nl Netlist.Xor [| a; Netlist.add nl Netlist.Xor [| b; c |] |]
  in
  ignore (Netlist.add nl Netlist.Output [| o |]);
  nl

let replays a b cex =
  Sim.eval a cex <> Sim.eval b cex

let test_cec_basic () =
  let l = xor3 true and r = xor3 false in
  checkb "xor associativity proven" true (Cec.check l r = Cec.Equal);
  (* a genuinely different pair: xor3 vs maj *)
  let m = Netlist.create () in
  let a = Netlist.add m Netlist.Input [||] in
  let b = Netlist.add m Netlist.Input [||] in
  let c = Netlist.add m Netlist.Input [||] in
  ignore (Netlist.add m Netlist.Output [| Netlist.add m Netlist.Maj [| a; b; c |] |]);
  (match Cec.check l m with
  | Cec.Diff cex -> checkb "cex replays" true (replays l m cex)
  | Cec.Equal | Cec.Unknown _ -> Alcotest.fail "expected Diff");
  (* zero-ish budget on a non-trivial equivalence -> Unknown *)
  match Cec.check ~conflict_budget:0 l r with
  | Cec.Unknown b -> checki "budget echoed" 0 b
  | Cec.Equal -> Alcotest.fail "expected Unknown, got Equal"
  | Cec.Diff _ -> Alcotest.fail "expected Unknown, got Diff"

(* Pin a non-IO node to a constant; CEC must find a replayable cex, or
   prove the fault redundant in agreement with exhaustive/sampled
   simulation. *)
let mutation_targets nl =
  let n = Netlist.size nl in
  let eligible id =
    match Netlist.kind nl id with
    | Netlist.Input | Netlist.Output | Netlist.Const _ -> false
    | _ -> true
  in
  List.filter eligible [ n / 4; n / 2; (3 * n) / 4 ]
  |> List.sort_uniq compare

let test_cec_benchmarks_and_mutations () =
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      checkb
        (name ^ ": unmutated pair proven equal")
        true
        (Cec.check nl (Netlist.copy nl) = Cec.Equal);
      List.iteri
        (fun k id ->
          let m = Netlist.copy nl in
          Netlist.set_kind m id (Netlist.Const (k mod 2 = 0));
          Netlist.set_fanins m id [||];
          match Cec.check nl m with
          | Cec.Diff cex ->
            checkb
              (Printf.sprintf "%s: cex for stuck node %d replays" name id)
              true (replays nl m cex)
          | Cec.Equal ->
            (* redundant fault: simulation must agree *)
            checkb
              (Printf.sprintf "%s: node %d 'equal' is a redundant fault"
                 name id)
              true (Sim.equivalent nl m)
          | Cec.Unknown _ ->
            Alcotest.fail (name ^ ": mutation check exhausted budget"))
        (mutation_targets nl))
    Circuits.benchmark_names

(* ---------- joint vs per-cone CEC ---------- *)

(* Independent oracle for the simulation phase: over the eight
   fixed-seed rounds, the lowest differing bit of the first round in
   which the two single-output cones differ. *)
let sim_cex ca cb =
  let n_in = List.length (Netlist.inputs ca) in
  let aig = Aig.create ~n_inputs:n_in in
  let la = Aig.add_netlist aig ca and lb = Aig.add_netlist aig cb in
  let x =
    Aig.mk_xor aig
      la.(List.hd (Netlist.outputs ca))
      lb.(List.hd (Netlist.outputs cb))
  in
  let rng = Rng.create 0x5eed_ca5e in
  let rec low w i =
    if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then i
    else low w (i + 1)
  in
  let rec round k =
    if k = 8 then None
    else
      let words = Array.init n_in (fun _ -> Rng.bits64 rng) in
      let w = Aig.lit_word (Aig.sim aig words) x in
      if w = 0L then round (k + 1)
      else
        let bit = low w 0 in
        Some
          (Array.map
             (fun word ->
               Int64.logand (Int64.shift_right_logical word bit) 1L = 1L)
             words)
  in
  if x = Aig.false_lit || x = Aig.true_lit then None else round 0

let verdict_class = function
  | Cec.Equal -> "equal"
  | Cec.Diff _ -> "diff"
  | Cec.Unknown _ -> "unknown"

(* [check_outputs] on the whole pair against [check] on each output's
   cone: same verdict class, the per-cone simulation counterexample
   where there is one, and a replaying counterexample for every diff. *)
let differential what a b =
  let joint = Cec.check_outputs a b in
  let outs_a = Array.of_list (Netlist.outputs a) in
  let outs_b = Array.of_list (Netlist.outputs b) in
  checki (what ^ ": one verdict per output") (Array.length outs_a)
    (Array.length joint);
  Array.iteri
    (fun o v ->
      let ca = Equiv.cone a outs_a.(o) and cb = Equiv.cone b outs_b.(o) in
      let per = Cec.check ca cb in
      let what = Printf.sprintf "%s output %d" what o in
      Alcotest.(check string)
        (what ^ ": verdict class") (verdict_class per) (verdict_class v);
      (match v with
      | Cec.Diff cex -> checkb (what ^ ": cex replays") true (replays ca cb cex)
      | Cec.Equal | Cec.Unknown _ -> ());
      match sim_cex ca cb with
      | Some cex ->
          checkb (what ^ ": per-cone cex is the simulation one") true
            (per = Cec.Diff cex);
          checkb (what ^ ": joint cex is the per-cone one") true
            (v = Cec.Diff cex)
      | None -> ())
    joint

(* The three synthesis handoffs the flow proves, plus one pinned gate
   in each design's majority netlist. *)
let test_joint_matches_per_cone () =
  let diffs = ref 0 in
  List.iter
    (fun name ->
      let aoi = Opt.optimize (Circuits.benchmark name) in
      let maj = Aoi_to_maj.convert aoi in
      let aqfp0 = Synth_flow.run_quiet (Circuits.benchmark name) in
      let aqfp1, _ = Resyn.run ~effort:Resyn.Full aqfp0 in
      differential (name ^ " aoi->maj") aoi maj;
      differential (name ^ " maj->aqfp") maj (Insertion.insert maj);
      differential (name ^ " resyn") aqfp0 aqfp1;
      let m = Netlist.copy maj in
      let n = Netlist.size m in
      let rec gate i =
        match Netlist.kind m i with
        | Netlist.Maj | Netlist.And | Netlist.Or -> i
        | _ -> gate ((i + 1) mod n)
      in
      let g = gate (n / 2) in
      Netlist.set_kind m g (Netlist.Const false);
      Netlist.set_fanins m g [||];
      differential (Printf.sprintf "%s mutated at %d" name g) aoi m;
      Array.iter
        (function Cec.Diff _ -> incr diffs | Cec.Equal | Cec.Unknown _ -> ())
        (Cec.check_outputs aoi m))
    Circuits.benchmark_names;
  checkb "the mutations expose differing outputs" true (!diffs > 0)

(* ---------- sweep counterexample reuse ---------- *)

(* Random pairs over at most 10 inputs whose outputs are planted equal
   or unequal, built mostly from wide ANDs and decoder minterms: such
   nodes are rarely true, so many share the all-zero simulation
   signature with the constant node and the sweep asks the solver
   about them, and a counterexample found for one term often
   separates a later one. *)
let rare_pair rng =
  let n = 4 + Rng.int rng 7 in
  let a = Netlist.create () and b = Netlist.create () in
  let ins nl = Array.init n (fun _ -> Netlist.add nl Netlist.Input [||]) in
  let ia = ins a and ib = ins b in
  let lit nl xs (i, pos) =
    if pos then xs.(i) else Netlist.add nl Netlist.Not [| xs.(i) |]
  in
  let chain nl xs = function
    | [] -> Netlist.add nl (Netlist.Const true) [||]
    | l :: rest ->
        List.fold_left
          (fun acc l -> Netlist.add nl Netlist.And [| acc; lit nl xs l |])
          (lit nl xs l) rest
  in
  (* a wide term: [n - Rng.int 3] distinct inputs, random polarities *)
  let wide () =
    let order = Array.init n Fun.id in
    Rng.shuffle rng order;
    List.init (n - Rng.int rng 3) (fun k -> (order.(k), Rng.bool rng))
  in
  (* one minterm of a 3-input decoder ANDed onto a shared prefix *)
  let decoder_term prefix j =
    prefix @ List.init 3 (fun k -> (n - 1 - k, (j lsr k) land 1 = 1))
  in
  let prefix = List.init (n - 3) (fun i -> (i, Rng.bool rng)) in
  let outs = ref [] in
  let out oa ob = outs := (oa, ob) :: !outs in
  for _ = 1 to 6 + Rng.int rng 6 do
    match Rng.int rng 5 with
    | 0 ->
        (* equal: the same term chained in opposite orders *)
        let t = wide () in
        out (chain a ia t) (chain b ib (List.rev t))
    | 1 ->
        (* unequal: the last literal's polarity flipped *)
        let t = wide () in
        let t' =
          List.mapi
            (fun k (i, pos) -> if k = List.length t - 1 then (i, not pos) else (i, pos))
            t
        in
        out (chain a ia t) (chain b ib t')
    | 2 ->
        (* unequal: a rare term against constant false *)
        out (chain a ia (wide ()))
          (Netlist.add b (Netlist.Const false) [||])
    | 3 ->
        (* decoder terms: an OR of minterms, equal or one minterm off *)
        let js = List.init 3 (fun _ -> Rng.int rng 8) in
        let js' =
          if Rng.bool rng then List.rev js
          else List.mapi (fun k j -> if k = 0 then (j + 1) mod 8 else j) js
        in
        let any nl xs js =
          List.fold_left
            (fun acc j ->
              Netlist.add nl Netlist.Or [| acc; chain nl xs (decoder_term prefix j) |])
            (Netlist.add nl (Netlist.Const false) [||])
            js
        in
        out (any a ia js) (any b ib js')
    | _ ->
        (* majority of rare terms, operands permuted: equal *)
        let t1 = wide () and t2 = wide () and x = Rng.int rng n in
        let m nl xs order =
          let ops = [| chain nl xs t1; chain nl xs t2; xs.(x) |] in
          Netlist.add nl Netlist.Maj (Array.map (fun k -> ops.(k)) order)
        in
        out (m a ia [| 0; 1; 2 |]) (m b ib [| 2; 0; 1 |])
  done;
  List.iter
    (fun (oa, ob) ->
      ignore (Netlist.add a Netlist.Output [| oa |]);
      ignore (Netlist.add b Netlist.Output [| ob |]))
    (List.rev !outs);
  (n, a, b)

(* Which outputs differ on some input, by exhaustive simulation. *)
let exhaustive_diff n a b =
  let n_out = List.length (Netlist.outputs a) in
  let differs = Array.make n_out false in
  for v = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun k -> (v lsr k) land 1 = 1) in
    let ya = Sim.eval a x and yb = Sim.eval b x in
    for o = 0 to n_out - 1 do
      if ya.(o) <> yb.(o) then differs.(o) <- true
    done
  done;
  differs

let test_sweep_reuse_exact () =
  let rng = Rng.create 0x5ee9 in
  let past_sim = ref 0 in
  for pair = 1 to 60 do
    let n, a, b = rare_pair rng in
    let verdicts = Cec.check_outputs a b in
    let again = Cec.check_outputs a b in
    checkb (Printf.sprintf "pair %d: two calls agree" pair) true (verdicts = again);
    let differs = exhaustive_diff n a b in
    let outs_a = Array.of_list (Netlist.outputs a) in
    let outs_b = Array.of_list (Netlist.outputs b) in
    Array.iteri
      (fun o v ->
        let what = Printf.sprintf "pair %d output %d" pair o in
        Alcotest.(check string)
          (what ^ ": verdict class")
          (if differs.(o) then "diff" else "equal")
          (verdict_class v);
        (match v with
        | Cec.Diff cex ->
            checkb (what ^ ": cex replays") true
              ((Sim.eval a cex).(o) <> (Sim.eval b cex).(o))
        | Cec.Equal | Cec.Unknown _ -> ());
        if differs.(o)
           && sim_cex (Equiv.cone a outs_a.(o)) (Equiv.cone b outs_b.(o)) = None
        then incr past_sim)
      verdicts
  done;
  (* the property is only tested if differences reach the sweep *)
  checkb "some differences escape simulation" true (!past_sim > 0)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "iheap" `Quick test_iheap;
          Alcotest.test_case "cdcl vs brute force" `Quick
            test_cdcl_vs_brute_force;
          Alcotest.test_case "determinism" `Quick test_solver_determinism;
          Alcotest.test_case "assumptions + incremental" `Quick
            test_assumptions_incremental;
          Alcotest.test_case "budget + pigeonhole" `Quick test_budget_and_php;
          Alcotest.test_case "dimacs" `Quick test_dimacs_roundtrip;
        ] );
      ( "cec",
        [
          Alcotest.test_case "aig strash + sim" `Quick test_aig_strash;
          Alcotest.test_case "miter basics" `Quick test_cec_basic;
          Alcotest.test_case "benchmarks + mutations" `Slow
            test_cec_benchmarks_and_mutations;
          Alcotest.test_case "joint outputs match per-cone proofs" `Slow
            test_joint_matches_per_cone;
          Alcotest.test_case "sweep reuse matches exhaustive simulation" `Quick
            test_sweep_reuse_exact;
        ] );
    ]
