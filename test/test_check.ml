(* Tests for the sf_check static-verification subsystem: each seeded
   violation class must be caught by its rule id (and by nothing
   louder), the LVS-lite extraction must catch opens/shorts/swaps on
   routed layouts, and reports must be byte-identical at any worker
   count. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let count_rule rule diags =
  List.length (List.filter (fun d -> d.Diag.rule = rule) diags)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let errors diags = Diag.count Diag.Error diags

(* ---------- diagnostics type ---------- *)

let test_diag_render () =
  let d = Diag.error ~rule:"NL-ARITY-01" (Diag.Node 3) "bad arity %d" 7 in
  checks "text" "error   NL-ARITY-01 @ node 3: bad arity 7" (Diag.to_string d);
  let j = Diag.to_json d in
  checkb "json has rule" true
    (String.length j > 0 && j.[0] = '{'
    && contains j "\"rule\":\"NL-ARITY-01\"");
  let quoted = Diag.warning ~rule:"X-01" Diag.Global "say \"hi\"\n" in
  checkb "json escapes" true
    (contains (Diag.to_json quoted) "\\\"hi\\\"\\n")

(* ---------- netlist lints ---------- *)

(* Splitter 3 that really drives only two consumers *)
let test_splitter_fanout_mismatch () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let s = Netlist.add nl (Netlist.Splitter 3) [| a |] in
  let b1 = Netlist.add nl Netlist.Buf [| s |] in
  let b2 = Netlist.add nl Netlist.Buf [| s |] in
  ignore (Netlist.add nl Netlist.Output [| b1 |]);
  ignore (Netlist.add nl Netlist.Output [| b2 |]);
  let diags = Netlist.validate_diags nl in
  checki "NL-FANOUT-01 fires exactly once" 1 (count_rule "NL-FANOUT-01" diags);
  checki "no other errors" 1 (errors diags)

let test_lint_clean_and_dead () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let x = Netlist.add nl Netlist.And [| a; b |] in
  let dead = Netlist.add nl Netlist.Or [| a; b |] in
  ignore dead;
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| x |]);
  let diags = Lint.check nl in
  checki "no errors" 0 (errors diags);
  checki "NL-DEAD-01 once" 1 (count_rule "NL-DEAD-01" diags);
  (* duplicate names *)
  let nl2 = Netlist.create () in
  let a = Netlist.add nl2 ~name:"sig" Netlist.Input [||] in
  let n = Netlist.add nl2 ~name:"sig" Netlist.Not [| a |] in
  ignore (Netlist.add nl2 Netlist.Output [| n |]);
  checki "NL-NAME-01 once" 1 (count_rule "NL-NAME-01" (Lint.check nl2))

let test_lint_structural_dup_and_const () =
  (* NL-DUP-01: two gates computing the same function of the same
     fan-ins (And a b / And b a — commutatively identical) *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let x1 = Netlist.add nl Netlist.And [| a; b |] in
  let x2 = Netlist.add nl Netlist.And [| b; a |] in
  (* same fan-ins, different function: must NOT fire *)
  let x3 = Netlist.add nl Netlist.Or [| a; b |] in
  let m = Netlist.add nl Netlist.Maj [| x1; x2; x3 |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| m |]);
  let diags = Lint.check nl in
  checki "NL-DUP-01 fires exactly once" 1 (count_rule "NL-DUP-01" diags);
  checki "no NL-CONST-01" 0 (count_rule "NL-CONST-01" diags);
  (* parallel buffers are AQFP pipelining, never duplicates *)
  let nlb = Netlist.create () in
  let a = Netlist.add nlb Netlist.Input [||] in
  let s = Netlist.add nlb (Netlist.Splitter 2) [| a |] in
  let b1 = Netlist.add nlb Netlist.Buf [| s |] in
  let b2 = Netlist.add nlb Netlist.Buf [| s |] in
  ignore (Netlist.add nlb Netlist.Output [| b1 |]);
  ignore (Netlist.add nlb Netlist.Output [| b2 |]);
  checki "buffers exempt from NL-DUP-01" 0
    (count_rule "NL-DUP-01" (Lint.check nlb));
  (* NL-CONST-01: x AND NOT x is provably constant 0 *)
  let nlc = Netlist.create () in
  let x = Netlist.add nlc ~name:"x" Netlist.Input [||] in
  let nx = Netlist.add nlc Netlist.Not [| x |] in
  let z = Netlist.add nlc Netlist.And [| x; nx |] in
  ignore (Netlist.add nlc ~name:"zero" Netlist.Output [| z |]);
  let diags = Lint.check nlc in
  checki "NL-CONST-01 fires exactly once" 1 (count_rule "NL-CONST-01" diags);
  checki "no NL-DUP-01 here" 0 (count_rule "NL-DUP-01" diags)

(* ---------- AQFP legality ---------- *)

(* legal chain: in -> buf -> buf -> out *)
let balanced_chain () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b1 = Netlist.add nl Netlist.Buf [| a |] in
  let b2 = Netlist.add nl Netlist.Buf [| b1 |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| b2 |]);
  ignore (Netlist.levelize nl);
  (nl, b2)

let test_aqfp_phase_misalignment () =
  let nl, b2 = balanced_chain () in
  checki "clean chain" 0 (List.length (Aqfp_check.check nl));
  Netlist.set_phase nl b2 3 (* was 2: fanin now two phases above *);
  let diags = Aqfp_check.check nl in
  checki "AQFP-PHASE-01 fires exactly once" 1
    (count_rule "AQFP-PHASE-01" diags);
  checki "nothing else fires" 1 (List.length diags)

let test_aqfp_fanout_violation () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Buf [| a |] in
  let c1 = Netlist.add nl Netlist.Buf [| b |] in
  let c2 = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl Netlist.Output [| c1 |]);
  ignore (Netlist.add nl Netlist.Output [| c2 |]);
  ignore (Netlist.levelize nl);
  let diags = Aqfp_check.check nl in
  checki "AQFP-FANOUT-01 fires exactly once" 1
    (count_rule "AQFP-FANOUT-01" diags);
  checki "nothing else fires" 1 (List.length diags)

let test_aqfp_output_balancing () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let s = Netlist.add nl (Netlist.Splitter 2) [| a |] in
  let b1 = Netlist.add nl Netlist.Buf [| s |] in
  let b2 = Netlist.add nl Netlist.Buf [| b1 |] in
  (* early output: retires at phase 2 while the design ends at 3 *)
  let early = Netlist.add nl Netlist.Buf [| s |] in
  ignore (Netlist.add nl Netlist.Output [| b2 |]);
  ignore (Netlist.add nl Netlist.Output [| early |]);
  ignore (Netlist.levelize nl);
  let diags = Aqfp_check.check nl in
  checki "AQFP-PHASE-02 fires exactly once" 1
    (count_rule "AQFP-PHASE-02" diags);
  checki "nothing else fires" 1 (List.length diags)

(* ---------- path balance (AQFP-PHASE-01) ---------- *)

let test_phase_accepts_bundled () =
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      checki (name ^ " balanced post-insertion") 0
        (count_rule "AQFP-PHASE-01" (Aqfp_check.check aqfp)))
    [ "adder8"; "decoder"; "c432" ]

let test_phase_rejects_unbalance () =
  (* a -> splitter -> {buf -> g, g}: g's fan-ins sit at phases 2 and
     1, so the splitter is one hop short *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let s = Netlist.add nl (Netlist.Splitter 2) [| a |] in
  let b = Netlist.add nl Netlist.Buf [| s |] in
  let g = Netlist.add nl Netlist.And [| b; s |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| g |]);
  ignore (Netlist.levelize nl);
  match Aqfp_check.check nl with
  | [ d ] ->
      checks "rule" "AQFP-PHASE-01" d.Diag.rule;
      checkb "located at the gate" true (d.Diag.loc = Diag.Node g);
      checks "names the fan-in and both phases"
        (Printf.sprintf "fanin %d at phase 1, expected 2 (gate phase 3)" s)
        d.Diag.message
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* A source off phase 0 is caught even when every fan-in edge is one
   phase deep: a whole chain shifted down by one, and a constant tied
   in at its consumer's phase - 1 without re-levelizing. *)
let test_phase_sources_at_zero () =
  let only_source nl src =
    match Aqfp_check.check nl with
    | [ d ] ->
        checks "rule" "AQFP-PHASE-01" d.Diag.rule;
        checkb "located at the source" true (d.Diag.loc = Diag.Node src);
        checks "message" "source at phase 1, expected 0" d.Diag.message
    | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
  in
  let nl, _ = balanced_chain () in
  let a = List.hd (Netlist.inputs nl) in
  Netlist.iter nl (fun nd ->
      Netlist.set_phase nl nd.Netlist.id (nd.Netlist.phase + 1));
  only_source nl a;
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let ba = Netlist.add nl Netlist.Buf [| a |] in
  let bb = Netlist.add nl Netlist.Buf [| b |] in
  let g = Netlist.add nl Netlist.And [| ba; bb |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| g |]);
  ignore (Netlist.levelize nl);
  checki "clean before the tie" 0 (List.length (Aqfp_check.check nl));
  let c = Netlist.add nl (Netlist.Const true) [||] in
  Netlist.set_phase nl c 1;
  Netlist.set_fanins nl g [| c; bb |];
  only_source nl c

(* ---------- equivalence guards ---------- *)

let two_gate_pair kind_a kind_b =
  let mk kind =
    let nl = Netlist.create () in
    let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
    let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
    let g = Netlist.add nl kind [| a; b |] in
    ignore (Netlist.add nl ~name:"y" Netlist.Output [| g |]);
    nl
  in
  (mk kind_a, mk kind_b)

let test_equiv_guard () =
  let same_a, same_b = two_gate_pair Netlist.And Netlist.And in
  checki "equal pair is clean" 0
    (List.length (Equiv.check_pair ~stage:"t" same_a same_b));
  let diff_a, diff_b = two_gate_pair Netlist.And Netlist.Or in
  let diags = Equiv.check_pair ~stage:"t" diff_a diff_b in
  checki "EQ-DIFF-01 fires exactly once" 1 (count_rule "EQ-DIFF-01" diags);
  (* the synthesis driver runs the guards and a real synthesis is clean *)
  let aoi = Circuits.kogge_stone_adder 4 in
  let _, report = Synth_flow.run ~check:true aoi in
  checki "synthesis guards clean" 0 (errors report.Synth_flow.guard_diags)

(* xor association: equivalent, but structurally different enough
   that nothing collapses by hashing alone *)
let xor3_pair () =
  let mk left =
    let nl = Netlist.create () in
    let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
    let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
    let c = Netlist.add nl ~name:"c" Netlist.Input [||] in
    let o =
      if left then
        Netlist.add nl Netlist.Xor [| Netlist.add nl Netlist.Xor [| a; b |]; c |]
      else
        Netlist.add nl Netlist.Xor [| a; Netlist.add nl Netlist.Xor [| b; c |] |]
    in
    ignore (Netlist.add nl ~name:"y" Netlist.Output [| o |]);
    nl
  in
  (mk true, mk false)

let severity_of rule diags =
  match List.find_opt (fun d -> d.Diag.rule = rule) diags with
  | Some d -> Some d.Diag.severity
  | None -> None

let test_equiv_sat () =
  let l, r = xor3_pair () in
  checki "sat proves it" 0 (List.length (Equiv.check_pair ~stage:"t" l r));
  (* starved SAT: the output is sampled, an EQ-TIMEOUT-01 warning
     carrying the budget *)
  let d = Equiv.check_pair ~conflict_budget:0 ~stage:"t" l r in
  checki "EQ-TIMEOUT-01 once" 1 (count_rule "EQ-TIMEOUT-01" d);
  checki "and nothing else" 1 (List.length d);
  checkb "timeout is a warning" true
    (severity_of "EQ-TIMEOUT-01" d = Some Diag.Warning);
  checkb "budget value in message" true
    (match List.find_opt (fun x -> x.Diag.rule = "EQ-TIMEOUT-01") d with
    | Some x -> contains x.Diag.message "(0)"
    | None -> false);
  (* a real difference is a proven, replayed cex *)
  let diff_a, diff_b = two_gate_pair Netlist.And Netlist.Or in
  let d = Equiv.check_pair ~stage:"t" diff_a diff_b in
  checki "EQ-DIFF-01 once" 1 (count_rule "EQ-DIFF-01" d);
  checki "no EQ-CEX-01" 0 (count_rule "EQ-CEX-01" d)

let test_equiv_proof_cache () =
  let mem : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let hits = ref 0 and stores = ref 0 in
  let cache =
    {
      Memo.find =
        (fun k ->
          let r = Hashtbl.find_opt mem k in
          (match r with Some _ -> incr hits | None -> ());
          r);
      store =
        (fun k v ->
          incr stores;
          Hashtbl.replace mem k v);
    }
  in
  let l, r = xor3_pair () in
  let d1 = Equiv.check_pair ~cache ~stage:"t" l r in
  checki "cold run stores the proof" 1 !stores;
  checki "cold run has no hits" 0 !hits;
  let d2 = Equiv.check_pair ~cache ~stage:"t" l r in
  checki "warm run stores nothing new" 1 !stores;
  checki "warm run hits" 1 !hits;
  checkb "verdicts identical warm vs cold" true (d1 = d2);
  (* cached counterexamples replay on the way back in *)
  let diff_a, diff_b = two_gate_pair Netlist.And Netlist.Or in
  let d3 = Equiv.check_pair ~cache ~stage:"t" diff_a diff_b in
  let d4 = Equiv.check_pair ~cache ~stage:"t" diff_a diff_b in
  checki "diff cached too" 2 !stores;
  checkb "cached diff identical" true (d3 = d4);
  checki "EQ-DIFF-01 from cache" 1 (count_rule "EQ-DIFF-01" d4)

(* Two outputs over a, b, c: output "d" is a&b against a|b (differs),
   output "x" the xor3 association pair (equal). *)
let two_output_pair () =
  let mk left =
    let nl = Netlist.create () in
    let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
    let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
    let c = Netlist.add nl ~name:"c" Netlist.Input [||] in
    let d = Netlist.add nl (if left then Netlist.And else Netlist.Or) [| a; b |] in
    let x =
      if left then
        Netlist.add nl Netlist.Xor [| Netlist.add nl Netlist.Xor [| a; b |]; c |]
      else
        Netlist.add nl Netlist.Xor [| a; Netlist.add nl Netlist.Xor [| b; c |] |]
    in
    ignore (Netlist.add nl ~name:"d" Netlist.Output [| d |]);
    ignore (Netlist.add nl ~name:"x" Netlist.Output [| x |]);
    nl
  in
  (mk true, mk false)

(* A cache over a table, recording the keys it is asked to store. *)
let recording_cache entries =
  let mem : (string, string) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace mem k v) entries;
  let stored = ref [] in
  ( {
      Memo.find = Hashtbl.find_opt mem;
      store =
        (fun k v ->
          stored := (k, v) :: !stored;
          Hashtbl.replace mem k v);
    },
    stored )

(* A budget-out samples only the outputs the joint proof left open:
   on the two-output pair a zero budget still reports d's difference,
   and the stage guards of the bundled designs are proven clean. *)
let test_equiv_budget_outs () =
  let l, r = two_output_pair () in
  let d = Equiv.check_pair ~conflict_budget:0 ~stage:"t" l r in
  checki "d's difference still reported" 1 (count_rule "EQ-DIFF-01" d);
  checkb "x is proven or sampled, nothing else" true
    (List.for_all
       (fun x -> x.Diag.rule = "EQ-DIFF-01" || x.Diag.rule = "EQ-TIMEOUT-01")
       d);
  List.iter
    (fun name ->
      let _, report = Synth_flow.run ~check:true (Circuits.benchmark name) in
      checki (name ^ ": flow guards proven clean") 0
        (List.length report.Synth_flow.guard_diags))
    [ "adder8"; "c432"; "apc32" ]

let test_equiv_cache_compat () =
  (* proof keys hash the folded per-output cones, so proofs already in
     a database stay valid *)
  let l, r = xor3_pair () in
  let cache, stored = recording_cache [] in
  ignore (Equiv.check_pair ~cache ~stage:"t" l r);
  checkb "xor3 proof key pinned" true
    (!stored
    = [
        ( "eq1:846739089203413c1f6f183dee3c8ee8:aba6b37859bb08b35b13ed0dc8eb1093",
          "equal" );
      ]);
  let l, r = two_output_pair () in
  let uncached = Equiv.check_pair ~stage:"t" l r in
  checki "output d differs" 1 (count_rule "EQ-DIFF-01" uncached);
  let cold, stored = recording_cache [] in
  checkb "cold run diagnostics" true
    (Equiv.check_pair ~cache:cold ~stage:"t" l r = uncached);
  let all = List.rev !stored in
  checki "cold run stores both outputs" 2 (List.length all);
  let d_entry = List.hd all and x_entry = List.nth all 1 in
  (* one output pre-cached: only the other one is proven and stored *)
  let partial, stored = recording_cache [ d_entry ] in
  checkb "partial run diagnostics" true
    (Equiv.check_pair ~cache:partial ~stage:"t" l r = uncached);
  checkb "only the miss is stored" true (!stored = [ x_entry ]);
  let warm, stored = recording_cache all in
  checkb "warm run diagnostics" true
    (Equiv.check_pair ~cache:warm ~stage:"t" l r = uncached);
  checki "warm run stores nothing" 0 (List.length !stored);
  (* a hit is trusted, not re-proven: a cached "equal" for d hides its
     difference *)
  let trusted, _ = recording_cache [ (fst d_entry, "equal") ] in
  checki "the cached output is not proven again" 0
    (List.length (Equiv.check_pair ~cache:trusted ~stage:"t" l r))

(* The joint SAT proof proves every c432 output; with a zero conflict
   budget every output it leaves open is sampled as EQ-TIMEOUT-01.
   Neither report may depend on the pool size. *)
let test_equiv_joint_determinism () =
  let aoi = Circuits.benchmark "c432" in
  let aqfp = Synth_flow.run_quiet aoi in
  let render ?conflict_budget () =
    List.map Diag.to_string
      (Equiv.check_pair ?conflict_budget ~stage:"t" aoi aqfp)
  in
  let at_jobs_1_and_4 render =
    Parallel.set_jobs 1;
    let r1 = render () in
    Parallel.set_jobs 4;
    let r4 = render () in
    Parallel.set_jobs 1;
    (r1, r4)
  in
  let r1, r4 = at_jobs_1_and_4 render in
  checkb "c432 proven clean" true (r1 = []);
  checkb "c432 reports identical at jobs 1 vs 4" true (r1 = r4);
  let r1, r4 = at_jobs_1_and_4 (render ~conflict_budget:0) in
  checkb "a zero conflict budget leaves c432 outputs sampled" true
    (r1 <> []
    && List.for_all (fun l -> contains l "EQ-TIMEOUT-01") r1);
  checkb "budget-out reports identical at jobs 1 vs 4" true (r1 = r4);
  (* a pinned gate in apc32: the messages carry the same
     counterexamples as proving each output cone on its own *)
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let m = Netlist.copy aqfp in
  Netlist.set_kind m 87 (Netlist.Const false);
  Netlist.set_fanins m 87 [||];
  let cex = "11110010001010111110011000010010" in
  let expected =
    List.map
      (fun (node, out, cex) ->
        Printf.sprintf
          "error   EQ-DIFF-01 @ node %d: mut: output %S differs \
           (counterexample inputs %s)"
          node out cex)
      [
        (123, "cnt0", cex);
        (176, "cnt1", cex);
        (205, "cnt2", cex);
        (220, "cnt3", cex);
        (226, "cnt4", cex);
        (227, "cnt5", String.make 32 '1');
      ]
  in
  let got =
    List.map Diag.to_string
      (Equiv.check_pair ~stage:"mut" aqfp m)
  in
  Alcotest.(check (list string)) "apc32 EQ-DIFF-01 messages pinned" expected got

(* ---------- placement audit ---------- *)

(* two-bit column design: 2 inputs, 2 buffers, 2 outputs; returns the
   netlist and a placed problem *)
let two_lane_problem () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let ba = Netlist.add nl Netlist.Buf [| a |] in
  let bb = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl ~name:"oa" Netlist.Output [| ba |]);
  ignore (Netlist.add nl ~name:"ob" Netlist.Output [| bb |]);
  ignore (Netlist.levelize nl);
  let p = Problem.of_netlist Tech.default nl in
  (nl, p)

let test_place_audit () =
  let nl, p = two_lane_problem () in
  checki "clean placement" 0 (List.length (Place_audit.check nl p));
  (* overlap: slam the second cell of row 0 onto the first *)
  let saved = Problem.copy_positions p in
  let row0 = p.Problem.row_cells.(0) in
  p.Problem.cells.(row0.(1)).Problem.x <- p.Problem.cells.(row0.(0)).Problem.x;
  let diags = Place_audit.check nl p in
  checki "PL-OVERLAP-01 fires exactly once" 1 (count_rule "PL-OVERLAP-01" diags);
  checki "nothing else fires" 1 (List.length diags);
  Problem.restore_positions p saved;
  (* row/phase mismatch *)
  let buf = p.Problem.row_cells.(1).(0) in
  let node = p.Problem.cells.(buf).Problem.node in
  let old_phase = Netlist.phase nl node in
  Netlist.set_phase nl node 5;
  let diags = Place_audit.check nl p in
  checki "PL-ROW-01 fires exactly once" 1 (count_rule "PL-ROW-01" diags);
  Netlist.set_phase nl node old_phase;
  (* off-grid *)
  p.Problem.cells.(row0.(0)).Problem.x <- 3.7;
  let diags = Place_audit.check nl p in
  checki "PL-GRID-01 fires exactly once" 1 (count_rule "PL-GRID-01" diags);
  Problem.restore_positions p saved

(* ---------- LVS-lite ---------- *)

(* pin coordinates, mirroring the router's conventions *)
let src_pin p ni =
  let e = p.Problem.nets.(ni) in
  let c = p.Problem.cells.(e.Problem.src) in
  ( Problem.pin_x p ni `Src,
    Problem.row_top p c.Problem.row +. c.Problem.lib.Cell.height )

let dst_pin p ni =
  let e = p.Problem.nets.(ni) in
  let c = p.Problem.cells.(e.Problem.dst) in
  (Problem.pin_x p ni `Dst, Problem.row_top p c.Problem.row)

(* hand-drawn rectilinear route src-pin -> dx at height ym -> dst-pin *)
let fake_route p ~net ~to_net ~ym =
  let sx, sy = src_pin p net in
  let dx, dy = dst_pin p to_net in
  let points =
    if Float.abs (sx -. dx) < 1e-9 then [ (sx, sy); (dx, dy) ]
    else [ (sx, sy); (sx, ym); (dx, ym); (dx, dy) ]
  in
  { Router.net; points; vias = 2; length = 0.0 }

let routed_two_lane () =
  let nl, p = two_lane_problem () in
  ignore (Placer.place Placer.Superflow p);
  let routing = Router.route_all p in
  (nl, p, routing)

let test_lvs_clean () =
  let _, p, routing = routed_two_lane () in
  let layout = Layout.build p routing in
  checki "clean routed layout" 0 (List.length (Lvs.check p layout))

let test_lvs_open () =
  let _, p, routing = routed_two_lane () in
  let layout = Layout.build p routing in
  (* erase net 0's drawn geometry *)
  let keep (w : Layout.wire) = w.Layout.net <> 0 in
  let layout' =
    {
      layout with
      Layout.wires = Array.of_list (List.filter keep (Array.to_list layout.Layout.wires));
      vias =
        Array.of_list
          (List.filter (fun v -> v.Layout.net <> 0) (Array.to_list layout.Layout.vias));
    }
  in
  let diags = Lvs.check p layout' in
  checki "LVS-OPEN-01 fires exactly once" 1 (count_rule "LVS-OPEN-01" diags);
  checki "nothing else fires" 1 (List.length diags)

let test_lvs_swap () =
  let _, p, routing = routed_two_lane () in
  (* nets 0 and 1 both span row 0 -> row 1; redraw them crossed, at
     different jog heights so the two drawn nets stay separate *)
  let _, sy = src_pin p 0 in
  let routes =
    Array.map
      (fun rt ->
        match rt.Router.net with
        | 0 -> fake_route p ~net:0 ~to_net:1 ~ym:(sy +. 7.0)
        | 1 -> fake_route p ~net:1 ~to_net:0 ~ym:(sy +. 13.0)
        | _ -> rt)
      routing.Router.routes
  in
  let layout = Layout.build p { routing with Router.routes } in
  let diags = Lvs.check p layout in
  checki "LVS-SWAP-01 fires exactly twice (both directions)" 2
    (count_rule "LVS-SWAP-01" diags);
  checki "no opens reported on a swap" 0 (count_rule "LVS-OPEN-01" diags)

let test_lvs_short_and_float () =
  let _, p, routing = routed_two_lane () in
  let layout = Layout.build p routing in
  (* a drawn bridge between the two sink pins shorts both nets *)
  let x0, y0 = dst_pin p 0 and x1, y1 = dst_pin p 1 in
  checkb "sinks share a row" true (Float.abs (y0 -. y1) < 1e-9);
  let bridge = { Layout.net = 0; layer = 10; a = Geom.pt x0 y0; b = Geom.pt x1 y1 } in
  (* plus a floating stub far away from everything *)
  let stub =
    { Layout.net = 0; layer = 10; a = Geom.pt 900.0 900.0; b = Geom.pt 950.0 900.0 }
  in
  let layout' =
    { layout with Layout.wires = Array.append layout.Layout.wires [| bridge; stub |] }
  in
  let diags = Lvs.check p layout' in
  checki "LVS-SHORT-01 fires exactly once" 1 (count_rule "LVS-SHORT-01" diags);
  checki "LVS-FLOAT-01 fires exactly once" 1 (count_rule "LVS-FLOAT-01" diags);
  checki "opens suppressed on shorted nets" 0 (count_rule "LVS-OPEN-01" diags)

(* ---------- full gate + determinism ---------- *)

let test_full_gate_clean_and_deterministic () =
  let render jobs =
    let r =
      Flow.run ~jobs ~check:true (Circuits.benchmark "adder8")
    in
    match r.Flow.check_report with
    | None -> Alcotest.fail "check report missing"
    | Some rep ->
        checkb "adder8 gate is clean" true (Check.ok rep);
        (Check.render_text rep, Check.render_json rep)
  in
  let t1, j1 = render 1 in
  let t4, j4 = render 4 in
  Parallel.auto_jobs ();
  checks "text report identical at jobs=1/jobs=4" t1 t4;
  checks "json report identical at jobs=1/jobs=4" j1 j4

let test_crashing_pass_is_contained () =
  let rep = Check.run [ Check.pass "boom" (fun () -> failwith "nope") ] in
  checki "CHECK-CRASH-01 once" 1 (count_rule "CHECK-CRASH-01" rep.Check.diags);
  checkb "gate fails" false (Check.ok rep)

(* ---------- fuzz: checker must survive stuck-at mutants ---------- *)

let test_fuzz_stuck_at_mutations () =
  let aqfp = Synth_flow.run_quiet (Circuits.kogge_stone_adder 4) in
  let logic =
    Netlist.fold aqfp
      (fun acc nd ->
        match nd.Netlist.kind with
        | Netlist.Input | Netlist.Output -> acc
        | _ -> nd.Netlist.id :: acc)
      []
    |> List.rev
  in
  let n_checked = ref 0 in
  List.iteri
    (fun i id ->
      if i mod 7 = 0 then begin
        let mutated = Netlist.copy aqfp in
        (* pin the gate's output: retype to a constant, like a JJ stuck
           in one flux state; the polarity alternates *)
        Netlist.set_kind mutated id (Netlist.Const (i mod 14 = 0));
        Netlist.set_fanins mutated id [||];
        (* every pass family must produce diagnostics, not exceptions *)
        let d1 = Lint.check mutated in
        let d2 = Aqfp_check.check mutated in
        ignore (List.length d1 + List.length d2);
        incr n_checked
      end)
    logic;
  checkb "fuzzed some netlists" true (!n_checked > 20)

let () =
  Alcotest.run "check"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "render text and json" `Quick test_diag_render;
          Alcotest.test_case "crashing pass contained" `Quick
            test_crashing_pass_is_contained;
        ] );
      ( "netlist lints",
        [
          Alcotest.test_case "splitter fanout mismatch (NL-FANOUT-01)" `Quick
            test_splitter_fanout_mismatch;
          Alcotest.test_case "dead logic and duplicate names" `Quick
            test_lint_clean_and_dead;
          Alcotest.test_case
            "structural duplicates + constant outputs (NL-DUP-01, NL-CONST-01)"
            `Quick test_lint_structural_dup_and_const;
        ] );
      ( "aqfp legality",
        [
          Alcotest.test_case "phase misalignment (AQFP-PHASE-01)" `Quick
            test_aqfp_phase_misalignment;
          Alcotest.test_case "fan-out > 1 (AQFP-FANOUT-01)" `Quick
            test_aqfp_fanout_violation;
          Alcotest.test_case "output balancing (AQFP-PHASE-02)" `Quick
            test_aqfp_output_balancing;
        ] );
      ( "phase",
        [
          Alcotest.test_case "accepts bundled designs" `Quick
            test_phase_accepts_bundled;
          Alcotest.test_case "rejects seeded unbalance" `Quick
            test_phase_rejects_unbalance;
          Alcotest.test_case "sources at phase 0 (AQFP-PHASE-01)" `Quick
            test_phase_sources_at_zero;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "guards (EQ-DIFF-01)" `Quick test_equiv_guard;
          Alcotest.test_case "sat (timeout, budget-out, replayed cex)" `Quick
            test_equiv_sat;
          Alcotest.test_case "budget-outs sampled per output" `Quick
            test_equiv_budget_outs;
          Alcotest.test_case "proof cache" `Quick test_equiv_proof_cache;
          Alcotest.test_case "proof cache keys and partial hits" `Quick
            test_equiv_cache_compat;
          Alcotest.test_case "joint proof determinism and cex text" `Quick
            test_equiv_joint_determinism;
        ] );
      ( "placement audit",
        [
          Alcotest.test_case "overlap / row / grid rules" `Quick
            test_place_audit;
        ] );
      ( "lvs-lite",
        [
          Alcotest.test_case "clean routed layout" `Quick test_lvs_clean;
          Alcotest.test_case "open (LVS-OPEN-01)" `Quick test_lvs_open;
          Alcotest.test_case "swapped sinks (LVS-SWAP-01)" `Quick test_lvs_swap;
          Alcotest.test_case "short + float (LVS-SHORT-01)" `Quick
            test_lvs_short_and_float;
        ] );
      ( "full gate",
        [
          Alcotest.test_case "adder8 clean, reports identical at jobs=1/4"
            `Quick test_full_gate_clean_and_deterministic;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "stuck-at mutants never crash the checker"
            `Quick test_fuzz_stuck_at_mutations;
        ] );
    ]
