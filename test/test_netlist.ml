(* Tests for the netlist IR, truth tables, simulation and the .bench
   parser. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Small helper: y = (a & b) | ~c *)
let sample_netlist () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Input [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Input [||] in
  let c = Netlist.add nl ~name:"c" Netlist.Input [||] in
  let ab = Netlist.add nl Netlist.And [| a; b |] in
  let nc = Netlist.add nl Netlist.Not [| c |] in
  let y = Netlist.add nl Netlist.Or [| ab; nc |] in
  ignore (Netlist.add nl ~name:"y" Netlist.Output [| y |]);
  nl

(* ---------- Netlist structure ---------- *)

let test_add_and_query () =
  let nl = sample_netlist () in
  checki "size" 7 (Netlist.size nl);
  checki "inputs" 3 (List.length (Netlist.inputs nl));
  checki "outputs" 1 (List.length (Netlist.outputs nl));
  checki "arity of and" 2 (Netlist.arity Netlist.And);
  checki "arity of maj" 3 (Netlist.arity Netlist.Maj);
  checki "arity of spl" 1 (Netlist.arity (Netlist.Splitter 3))

let test_add_arity_checked () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  checkb "raises" true
    (try
       ignore (Netlist.add nl Netlist.And [| a |]);
       false
     with Invalid_argument _ -> true)

let test_dangling_fanin () =
  let nl = Netlist.create () in
  checkb "raises" true
    (try
       ignore (Netlist.add nl Netlist.Not [| 5 |]);
       false
     with Invalid_argument _ -> true)

let test_fanout_counts () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Not [| a |] in
  let y = Netlist.add nl Netlist.Not [| a |] in
  let z = Netlist.add nl Netlist.And [| x; y |] in
  ignore (Netlist.add nl Netlist.Output [| z |]);
  let counts = Netlist.fanout_counts nl in
  checki "a has 2 fanouts" 2 counts.(a);
  checki "z has 1 fanout" 1 counts.(z);
  let outs = Netlist.fanouts nl in
  checki "a fanout list" 2 (List.length outs.(a))

let test_topo_order () =
  let nl = sample_netlist () in
  let order = Netlist.topo_order nl in
  let pos = Array.make (Netlist.size nl) 0 in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Netlist.iter nl (fun nd ->
      Array.iter
        (fun f -> checkb "fanin before node" true (pos.(f) < pos.(nd.Netlist.id)))
        nd.Netlist.fanins)

let test_levelize () =
  let nl = sample_netlist () in
  let depth = Netlist.levelize nl in
  checki "depth" 2 depth;
  List.iter (fun i -> checki "input phase" 0 (Netlist.phase nl i)) (Netlist.inputs nl)

let test_is_balanced_detects () =
  let nl = sample_netlist () in
  ignore (Netlist.levelize nl);
  (* or(ab@1, nc@1) is balanced here, but inputs at phase 0 feeding
     the or at phase 2 would not be; this netlist IS balanced. *)
  checkb "sample is balanced" true (Netlist.is_balanced nl);
  let nl2 = Netlist.create () in
  let a = Netlist.add nl2 Netlist.Input [||] in
  let x = Netlist.add nl2 Netlist.Not [| a |] in
  let y = Netlist.add nl2 Netlist.And [| x; a |] in
  ignore (Netlist.add nl2 Netlist.Output [| y |]);
  ignore (Netlist.levelize nl2);
  checkb "unbalanced detected" false (Netlist.is_balanced nl2)

(* The rule pins sources to phase 0: an input at phase 1 under a chain
   shifted down with it, and a constant tied in at its consumer's
   phase - 1, leave every fan-in edge one phase deep and are still
   unbalanced. *)
let test_is_balanced_sources () =
  let nl = sample_netlist () in
  ignore (Netlist.levelize nl);
  Netlist.iter nl (fun nd ->
      Netlist.set_phase nl nd.Netlist.id (nd.Netlist.phase + 1));
  checkb "shifted input unbalanced" false (Netlist.is_balanced nl);
  let a = List.hd (Netlist.inputs nl) in
  checkb "the input is the violation" true
    (Netlist.imbalances nl a = [ Netlist.Source ]);
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Buf [| a |] in
  let g = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl Netlist.Output [| g |]);
  ignore (Netlist.levelize nl);
  checkb "chain balanced" true (Netlist.is_balanced nl);
  let c = Netlist.add nl (Netlist.Const false) [||] in
  Netlist.set_phase nl c 1;
  Netlist.set_fanins nl g [| c |];
  checkb "tied constant unbalanced" false (Netlist.is_balanced nl);
  checkb "only the constant" true
    (List.for_all
       (fun i -> (Netlist.imbalances nl i = []) = (i <> c))
       (List.init (Netlist.size nl) Fun.id))

let test_validate_ok () =
  checkb "no diagnostics" true (Netlist.validate_diags (sample_netlist ()) = [])

let test_copy_independent () =
  let nl = sample_netlist () in
  let nl2 = Netlist.copy nl in
  checki "same size" (Netlist.size nl) (Netlist.size nl2);
  checkb "equivalent" true (Sim.equivalent nl nl2)

let test_set_kind_io_protected () =
  let nl = sample_netlist () in
  let input = List.hd (Netlist.inputs nl) in
  checkb "raises" true
    (try
       Netlist.set_kind nl input Netlist.Buf;
       false
     with Invalid_argument _ -> true)

(* ---------- Truth ---------- *)

let test_truth_vars () =
  (* var 0 over 2 vars: f(a,b)=a -> truth table 0b1010 *)
  checki "var0" 0b1010 (Truth.var 0 2);
  checki "var1" 0b1100 (Truth.var 1 2);
  checki "mask2" 0b1111 (Truth.mask 2)

let test_truth_ops () =
  let a = Truth.var 0 3 and b = Truth.var 1 3 and c = Truth.var 2 3 in
  let f = Truth.maj a b c in
  (* majority agrees with naive evaluation *)
  for i = 0 to 7 do
    let bits = Array.init 3 (fun k -> (i lsr k) land 1 = 1) in
    let expect =
      (bits.(0) && bits.(1)) || (bits.(0) && bits.(2)) || (bits.(1) && bits.(2))
    in
    checkb "maj pointwise" expect (Truth.eval f bits)
  done;
  checki "and as maj with const0" (Truth.and_ a b) (Truth.maj a b (Truth.const false 3));
  checki "or as maj with const1" (Truth.or_ a b) (Truth.maj a b (Truth.const true 3))

let test_truth_of_fun () =
  let xor3 = Truth.of_fun 3 (fun v -> v.(0) <> v.(1) <> v.(2)) in
  checki "xor3"
    (Truth.xor (Truth.xor (Truth.var 0 3) (Truth.var 1 3)) (Truth.var 2 3))
    xor3

let test_truth_support () =
  let a = Truth.var 0 3 in
  checkb "depends on 0" true (Truth.depends_on 3 a 0);
  checkb "not on 1" false (Truth.depends_on 3 a 1)

let test_truth_not_involution () =
  let f = Truth.of_fun 3 (fun v -> v.(0) && not v.(2)) in
  checki "double negation" f (Truth.not_ 3 (Truth.not_ 3 f))

let test_truth_to_string () =
  Alcotest.(check string) "render" "01" (Truth.to_string 1 (Truth.var 0 1))

(* ---------- Sim ---------- *)

let test_eval_sample () =
  let nl = sample_netlist () in
  (* y = (a&b) | ~c *)
  let cases =
    [
      ([| false; false; false |], true);
      ([| false; false; true |], false);
      ([| true; true; true |], true);
      ([| true; false; true |], false);
    ]
  in
  List.iter
    (fun (ins, expect) ->
      let outs = Sim.eval nl ins in
      checkb "eval" expect outs.(0))
    cases

let test_eval_all_kinds () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let c = Netlist.add nl Netlist.Input [||] in
  let outs =
    [
      Netlist.add nl Netlist.And [| a; b |];
      Netlist.add nl Netlist.Or [| a; b |];
      Netlist.add nl Netlist.Nand [| a; b |];
      Netlist.add nl Netlist.Nor [| a; b |];
      Netlist.add nl Netlist.Xor [| a; b |];
      Netlist.add nl Netlist.Xnor [| a; b |];
      Netlist.add nl Netlist.Maj [| a; b; c |];
      Netlist.add nl Netlist.Buf [| a |];
      Netlist.add nl Netlist.Not [| a |];
      Netlist.add nl (Netlist.Const true) [||];
      Netlist.add nl (Netlist.Const false) [||];
      Netlist.add nl (Netlist.Splitter 2) [| a |];
    ]
  in
  List.iter (fun o -> ignore (Netlist.add nl Netlist.Output [| o |])) outs;
  for i = 0 to 7 do
    let va = i land 1 = 1 and vb = (i lsr 1) land 1 = 1 and vc = (i lsr 2) land 1 = 1 in
    let r = Sim.eval nl [| va; vb; vc |] in
    let expect =
      [|
        va && vb;
        va || vb;
        not (va && vb);
        not (va || vb);
        va <> vb;
        va = vb;
        (va && vb) || (va && vc) || (vb && vc);
        va;
        not va;
        true;
        false;
        va;
      |]
    in
    Array.iteri (fun k e -> checkb (Printf.sprintf "kind %d case %d" k i) e r.(k)) expect
  done

let test_equivalent_positive_negative () =
  let nl = sample_netlist () in
  checkb "self-equivalent" true (Sim.equivalent nl nl);
  let nl2 = Netlist.create () in
  let a = Netlist.add nl2 Netlist.Input [||] in
  let b = Netlist.add nl2 Netlist.Input [||] in
  let c = Netlist.add nl2 Netlist.Input [||] in
  let ab = Netlist.add nl2 Netlist.And [| a; b |] in
  let y = Netlist.add nl2 Netlist.Or [| ab; c |] in
  (* c not inverted: different function *)
  ignore (Netlist.add nl2 Netlist.Output [| y |]);
  checkb "different function detected" false (Sim.equivalent nl nl2)

let test_signature_deterministic () =
  let nl = sample_netlist () in
  Alcotest.(check (array int)) "stable" (Sim.signature nl) (Sim.signature nl)

let prop_sim_word_matches_scalar =
  QCheck.Test.make ~name:"bit-parallel simulation matches scalar" ~count:100
    QCheck.(triple bool bool bool)
    (fun (a, b, c) ->
      let nl = sample_netlist () in
      let scalar = (Sim.eval nl [| a; b; c |]).(0) in
      let words =
        Array.map (fun x -> if x then -1 land ((1 lsl 62) - 1) else 0) [| a; b; c |]
      in
      let word = (Sim.eval_words nl words).(0) in
      (word land 1 = 1) = scalar)

(* ---------- structural stats ---------- *)

let test_stats_sample () =
  let s = Netlist_stats.analyze (sample_netlist ()) in
  checki "nodes" 7 s.Netlist_stats.nodes;
  checki "inputs" 3 s.Netlist_stats.inputs;
  checki "gates" 3 s.Netlist_stats.gates;
  checki "depth" 2 s.Netlist_stats.depth;
  checkb "mix has and" true (List.mem_assoc "and" s.Netlist_stats.gate_mix);
  checki "widths sum to non-output nodes" 6
    (Array.fold_left ( + ) 0 s.Netlist_stats.width_per_level)

let test_stats_balanced_aqfp_has_low_variance_info () =
  let aqfp = Synth_flow.run_quiet (Circuits.kogge_stone_adder 4) in
  let s = Netlist_stats.analyze aqfp in
  checkb "depth positive" true (s.Netlist_stats.depth > 0);
  checkb "cv computed" true (s.Netlist_stats.width_cv >= 0.0);
  (* after splitter insertion, max fanout is the splitter arity *)
  checkb "fanout bounded" true (s.Netlist_stats.fanout_max <= 3);
  let hist_total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Netlist_stats.fanout_histogram in
  checki "histogram covers all non-output nodes" (s.Netlist_stats.inputs + s.Netlist_stats.gates) hist_total

(* ---------- Bench parser ---------- *)

let bench_src =
  {|
# tiny example
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
t1 = AND(a, b)
t2 = NOT(c)
y = OR(t1, t2)
|}

let test_bench_parse () =
  match Bench_parser.parse bench_src with
  | Error e -> Alcotest.fail e
  | Ok nl ->
      checki "inputs" 3 (List.length (Netlist.inputs nl));
      checki "outputs" 1 (List.length (Netlist.outputs nl));
      checkb "same function as hand-built" true (Sim.equivalent nl (sample_netlist ()))

let test_bench_nary_decomposition () =
  let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = NAND(a,b,c,d)\n" in
  match Bench_parser.parse src with
  | Error e -> Alcotest.fail e
  | Ok nl ->
      for i = 0 to 15 do
        let ins = Array.init 4 (fun k -> (i lsr k) land 1 = 1) in
        let expect = not (Array.for_all Fun.id ins) in
        checkb "nand4" expect (Sim.eval nl ins).(0)
      done

let test_bench_use_before_def () =
  let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(t)\nt = NOT(a)\n" in
  match Bench_parser.parse src with
  | Error e -> Alcotest.fail e
  | Ok nl -> checkb "buffer function" true ((Sim.eval nl [| true |]).(0) = true)

let test_bench_errors () =
  let cases =
    [
      "y = FROB(a)\nINPUT(a)\nOUTPUT(y)\n";
      "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
      "INPUT(a)\nOUTPUT(y)\n";
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n";
    ]
  in
  List.iter
    (fun src ->
      match Bench_parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should reject: " ^ src))
    cases

let test_bench_cycle_detected () =
  let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n" in
  match Bench_parser.parse src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle accepted"

let test_bench_error_line_numbers () =
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  (* the undefined reference is made on line 3 *)
  (match Bench_parser.parse "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" with
  | Error e ->
      checkb ("undefined signal located: " ^ e) true (starts_with "line 3:" e)
  | Ok _ -> Alcotest.fail "accepted undefined signal");
  (* the edge closing the cycle is on line 4 (z = NOT(y)) *)
  match Bench_parser.parse "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n" with
  | Error e -> checkb ("cycle located: " ^ e) true (starts_with "line 4:" e)
  | Ok _ -> Alcotest.fail "cycle accepted"

(* renders a pure-AOI netlist as .bench text: the round-trip oracle for
   the parser *)
let to_bench nl =
  let buf = Buffer.create 1024 in
  let node_name id =
    match Netlist.name nl id with Some s -> s | None -> Printf.sprintf "n%d" id
  in
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (node_name id)))
    (Netlist.inputs nl);
  List.iter
    (fun id ->
      let driver = (Netlist.fanins nl id).(0) in
      Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (node_name driver)))
    (Netlist.outputs nl);
  Netlist.iter nl (fun nd ->
      let args () =
        String.concat ", " (Array.to_list (Array.map node_name nd.Netlist.fanins))
      in
      let emit op =
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" (node_name nd.Netlist.id) op (args ()))
      in
      match nd.Netlist.kind with
      | Netlist.Input | Netlist.Output -> ()
      | Netlist.Not -> emit "NOT"
      | Netlist.Buf -> emit "BUFF"
      | Netlist.And -> emit "AND"
      | Netlist.Or -> emit "OR"
      | Netlist.Nand -> emit "NAND"
      | Netlist.Nor -> emit "NOR"
      | Netlist.Xor -> emit "XOR"
      | Netlist.Xnor -> emit "XNOR"
      | Netlist.Const _ | Netlist.Maj | Netlist.Splitter _ ->
          invalid_arg "to_bench: netlist is not pure AOI");
  Buffer.contents buf

let test_bench_roundtrip () =
  let nl = sample_netlist () in
  let text = to_bench nl in
  match Bench_parser.parse text with
  | Error e -> Alcotest.fail e
  | Ok nl2 -> checkb "roundtrip equivalent" true (Sim.equivalent nl nl2)

let () =
  Alcotest.run "sf_netlist"
    [
      ( "netlist",
        [
          Alcotest.test_case "add/query" `Quick test_add_and_query;
          Alcotest.test_case "arity checked" `Quick test_add_arity_checked;
          Alcotest.test_case "dangling fanin" `Quick test_dangling_fanin;
          Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "levelize" `Quick test_levelize;
          Alcotest.test_case "is_balanced" `Quick test_is_balanced_detects;
          Alcotest.test_case "is_balanced pins sources" `Quick
            test_is_balanced_sources;
          Alcotest.test_case "validate" `Quick test_validate_ok;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "set_kind io protected" `Quick test_set_kind_io_protected;
        ] );
      ( "truth",
        [
          Alcotest.test_case "vars" `Quick test_truth_vars;
          Alcotest.test_case "ops" `Quick test_truth_ops;
          Alcotest.test_case "of_fun" `Quick test_truth_of_fun;
          Alcotest.test_case "support" `Quick test_truth_support;
          Alcotest.test_case "not involution" `Quick test_truth_not_involution;
          Alcotest.test_case "to_string" `Quick test_truth_to_string;
        ] );
      ( "sim",
        [
          Alcotest.test_case "sample" `Quick test_eval_sample;
          Alcotest.test_case "all kinds" `Quick test_eval_all_kinds;
          Alcotest.test_case "equivalence" `Quick test_equivalent_positive_negative;
          Alcotest.test_case "signature deterministic" `Quick test_signature_deterministic;
          QCheck_alcotest.to_alcotest prop_sim_word_matches_scalar;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sample" `Quick test_stats_sample;
          Alcotest.test_case "aqfp profile" `Quick test_stats_balanced_aqfp_has_low_variance_info;
        ] );
      ( "bench",
        [
          Alcotest.test_case "parse" `Quick test_bench_parse;
          Alcotest.test_case "nary decomposition" `Quick test_bench_nary_decomposition;
          Alcotest.test_case "use before def" `Quick test_bench_use_before_def;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "error line numbers" `Quick
            test_bench_error_line_numbers;
          Alcotest.test_case "cycle" `Quick test_bench_cycle_detected;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
        ] );
    ]
