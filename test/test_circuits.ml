(* Functional correctness of the benchmark circuit generators: each
   generator is checked against its specification-level reference. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let bits_of_int w n = Array.init w (fun i -> (n lsr i) land 1 = 1)

let int_of_bits bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* ---------- Kogge-Stone adder ---------- *)

let check_adder w trials seed =
  let nl = Circuits.kogge_stone_adder w in
  Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
  let rng = Rng.create seed in
  for _ = 1 to trials do
    let a = Rng.int rng (1 lsl w) and b = Rng.int rng (1 lsl w) in
    let cin = Rng.bool rng in
    let inputs = Array.concat [ bits_of_int w a; bits_of_int w b; [| cin |] ] in
    let outs = Sim.eval nl inputs in
    let sum_bits = Array.sub outs 0 w and cout = outs.(w) in
    let expect_sum, expect_cout = Circuits.Reference.add w a b cin in
    checki (Printf.sprintf "sum %d+%d" a b) expect_sum (int_of_bits sum_bits);
    checkb "cout" expect_cout cout
  done

let test_adder8_exhaustive_corners () =
  let nl = Circuits.kogge_stone_adder 8 in
  List.iter
    (fun (a, b, cin) ->
      let inputs = Array.concat [ bits_of_int 8 a; bits_of_int 8 b; [| cin |] ] in
      let outs = Sim.eval nl inputs in
      let expect_sum, expect_cout = Circuits.Reference.add 8 a b cin in
      checki "corner sum" expect_sum (int_of_bits (Array.sub outs 0 8));
      checkb "corner cout" expect_cout outs.(8))
    [
      (0, 0, false); (255, 255, true); (255, 1, false); (128, 128, false);
      (170, 85, true); (1, 254, true);
    ]

let test_adder_widths () =
  check_adder 4 50 1;
  check_adder 8 100 2;
  check_adder 16 50 3

let test_adder2_exhaustive () =
  let nl = Circuits.kogge_stone_adder 2 in
  for a = 0 to 3 do
    for b = 0 to 3 do
      List.iter
        (fun cin ->
          let inputs = Array.concat [ bits_of_int 2 a; bits_of_int 2 b; [| cin |] ] in
          let outs = Sim.eval nl inputs in
          let expect_sum, expect_cout = Circuits.Reference.add 2 a b cin in
          checki "sum2" expect_sum (int_of_bits (Array.sub outs 0 2));
          checkb "cout2" expect_cout outs.(2))
        [ false; true ]
    done
  done

(* ---------- Parallel counter ---------- *)

let check_counter n trials seed =
  let nl = Circuits.parallel_counter n in
  Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
  let n_out = List.length (Netlist.outputs nl) in
  let rng = Rng.create seed in
  for _ = 1 to trials do
    let inputs = Array.init n (fun _ -> Rng.bool rng) in
    let outs = Sim.eval nl inputs in
    let expect = Array.to_list inputs |> List.filter Fun.id |> List.length in
    checki (Printf.sprintf "count of %d" n) expect (int_of_bits outs);
    checki "output bits" n_out (Array.length outs)
  done

let test_counter_small_exhaustive () =
  let nl = Circuits.parallel_counter 5 in
  for v = 0 to 31 do
    let inputs = bits_of_int 5 v in
    let outs = Sim.eval nl inputs in
    checki "popcount5" (Circuits.Reference.popcount v) (int_of_bits outs)
  done

let test_counter_sizes () =
  check_counter 8 100 4;
  check_counter 32 60 5;
  check_counter 128 20 6

let test_counter_all_ones_zeros () =
  List.iter
    (fun n ->
      let nl = Circuits.parallel_counter n in
      let outs1 = Sim.eval nl (Array.make n true) in
      checki "all ones" n (int_of_bits outs1);
      let outs0 = Sim.eval nl (Array.make n false) in
      checki "all zeros" 0 (int_of_bits outs0))
    [ 3; 7; 32 ]

let test_counter_approximate_mode () =
  (* approximate counters undercount by a bounded amount and are never
     above the true count; approx_below = 0 stays exact *)
  let n = 16 in
  let exact = Circuits.parallel_counter ~approx_below:0 n in
  let approx = Circuits.parallel_counter ~approx_below:2 n in
  checkb "approx is smaller" true (Netlist.size approx <= Netlist.size exact);
  let rng = Rng.create 17 in
  let max_err = ref 0 in
  for _ = 1 to 300 do
    let inputs = Array.init n (fun _ -> Rng.bool rng) in
    let true_count = Array.to_list inputs |> List.filter Fun.id |> List.length in
    checki "exact mode" true_count (int_of_bits (Sim.eval exact inputs));
    let approx_count = int_of_bits (Sim.eval approx inputs) in
    checkb "never overcounts" true (approx_count <= true_count);
    if true_count - approx_count > !max_err then max_err := true_count - approx_count
  done;
  (* dropped carries all have weight < 2^2; with 16 inputs the
     truncated columns host well under 8 compressions *)
  checkb (Printf.sprintf "error bounded (saw %d)" !max_err) true (!max_err <= 16)

(* ---------- Multiplier ---------- *)

let test_multiplier_small_exhaustive () =
  List.iter
    (fun w ->
      let nl = Circuits.array_multiplier w in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
      for a = 0 to (1 lsl w) - 1 do
        for b = 0 to (1 lsl w) - 1 do
          let inputs = Array.append (bits_of_int w a) (bits_of_int w b) in
          let outs = Sim.eval nl inputs in
          checki
            (Printf.sprintf "%d*%d" a b)
            (Circuits.Reference.multiply w a b)
            (int_of_bits outs)
        done
      done)
    [ 1; 2; 3; 4 ]

let test_multiplier_random_8 () =
  let nl = Circuits.array_multiplier 8 in
  let rng = Rng.create 77 in
  for _ = 1 to 60 do
    let a = Rng.int rng 256 and b = Rng.int rng 256 in
    let inputs = Array.append (bits_of_int 8 a) (bits_of_int 8 b) in
    let outs = Sim.eval nl inputs in
    checki (Printf.sprintf "%d*%d" a b) (a * b) (int_of_bits outs)
  done

let test_multiplier_through_synthesis () =
  let nl = Circuits.array_multiplier 4 in
  let aqfp = Synth_flow.run_quiet nl in
  checkb "balanced" true (Netlist.is_balanced aqfp);
  checkb "equivalent" true (Sim.equivalent nl aqfp)

(* ---------- BNN neuron ---------- *)

let test_bnn_exhaustive_small () =
  List.iter
    (fun n ->
      let nl = Circuits.bnn_neuron n in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
      for v = 0 to (1 lsl (2 * n)) - 1 do
        let xs = Array.init n (fun i -> (v lsr i) land 1 = 1) in
        let ws = Array.init n (fun i -> (v lsr (n + i)) land 1 = 1) in
        let r = Sim.eval nl (Array.append xs ws) in
        checkb
          (Printf.sprintf "bnn%d v=%d" n v)
          (Circuits.Reference.bnn_fire xs ws)
          r.(0)
      done)
    [ 2; 3; 5 ]

let test_bnn_random_large () =
  let nl = Circuits.bnn_neuron 64 in
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let xs = Array.init 64 (fun _ -> Rng.bool rng) in
    let ws = Array.init 64 (fun _ -> Rng.bool rng) in
    let r = Sim.eval nl (Array.append xs ws) in
    checkb "bnn64" (Circuits.Reference.bnn_fire xs ws) r.(0)
  done

let test_bnn_through_synthesis () =
  let nl = Circuits.bnn_neuron 8 in
  let aqfp = Synth_flow.run_quiet nl in
  checkb "balanced" true (Netlist.is_balanced aqfp);
  checkb "equivalent" true (Sim.equivalent nl aqfp)

(* ---------- Decoder ---------- *)

let test_decoder_one_hot () =
  List.iter
    (fun n ->
      let nl = Circuits.decoder n in
      checki "outputs" (1 lsl n) (List.length (Netlist.outputs nl));
      for code = 0 to (1 lsl n) - 1 do
        let outs = Sim.eval nl (bits_of_int n code) in
        Array.iteri
          (fun i v -> checkb (Printf.sprintf "dec%d out%d" code i) (i = code) v)
          outs
      done)
    [ 2; 3; 5 ]

let test_decoder7_spot () =
  let nl = Circuits.decoder 7 in
  let outs = Sim.eval nl (bits_of_int 7 93) in
  Array.iteri (fun i v -> checkb "one-hot 93" (i = 93) v) outs

(* ---------- Sorter ---------- *)

let check_sorter n trials seed =
  let nl = Circuits.sorter n in
  Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
  let rng = Rng.create seed in
  for _ = 1 to trials do
    let inputs = Array.init n (fun _ -> Rng.bool rng) in
    let outs = Sim.eval nl inputs in
    let expect = Circuits.Reference.sorted_outputs (Array.to_list inputs) in
    Alcotest.(check (list bool)) "sorted" expect (Array.to_list outs)
  done

let test_sorter_small_exhaustive () =
  let nl = Circuits.sorter 4 in
  for v = 0 to 15 do
    let inputs = bits_of_int 4 v in
    let outs = Sim.eval nl inputs in
    let expect = Circuits.Reference.sorted_outputs (Array.to_list inputs) in
    Alcotest.(check (list bool)) "sorted4" expect (Array.to_list outs)
  done

let test_sorter_sizes () =
  check_sorter 8 100 7;
  check_sorter 32 60 8

let test_sorter_rejects_non_power_of_two () =
  checkb "raises" true
    (try
       ignore (Circuits.sorter 12);
       false
     with Invalid_argument _ -> true)

(* ---------- ISCAS-like profiles ---------- *)

let test_iscas_profiles () =
  List.iter
    (fun (name, pi, po) ->
      let nl = Circuits.benchmark name in
      Alcotest.(check bool) "valid netlist" true (Netlist.validate_diags nl = []);
      checki (name ^ " pi") pi (List.length (Netlist.inputs nl));
      checki (name ^ " po") po (List.length (Netlist.outputs nl)))
    [ ("c432", 36, 7); ("c499", 41, 32); ("c1355", 41, 32); ("c1908", 33, 25) ]

let test_iscas_deterministic () =
  let a = Circuits.benchmark "c432" and b = Circuits.benchmark "c432" in
  checkb "same netlist across calls" true (Sim.equivalent a b);
  checki "same size" (Netlist.size a) (Netlist.size b)

let test_iscas_depth_scales () =
  let shallow = Circuits.iscas_like ~seed:1 ~pi:10 ~po:4 ~gates:100 ~depth:5 in
  let deep = Circuits.iscas_like ~seed:1 ~pi:10 ~po:4 ~gates:100 ~depth:25 in
  let d1 = Netlist.levelize shallow and d2 = Netlist.levelize deep in
  checkb "deep profile is deeper" true (d2 > d1)

let test_benchmark_names () =
  checki "nine benchmarks" 9 (List.length Circuits.benchmark_names);
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      checkb (name ^ " nonempty") true (Netlist.size nl > 0))
    Circuits.benchmark_names;
  checkb "unknown raises" true
    (try
       ignore (Circuits.benchmark "nonesuch");
       false
     with Not_found -> true)

(* ---------- shipped benchmark files ---------- *)

let benchmarks_dir () =
  (* tests run from the build sandbox; walk up to the source tree *)
  let rec find dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir "benchmarks" in
      if Sys.file_exists (Filename.concat candidate "adder8.bench") then Some candidate
      else find (Filename.concat dir "..") (depth + 1)
  in
  find "." 0

let test_shipped_bench_files_match_generators () =
  match benchmarks_dir () with
  | None -> () (* running outside the repo tree; nothing to check *)
  | Some dir ->
      List.iter
        (fun name ->
          let path = Filename.concat dir (name ^ ".bench") in
          match Bench_parser.parse_file path with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok from_file ->
              checkb (name ^ " matches generator") true
                (Sim.equivalent from_file (Circuits.benchmark name)))
        Circuits.benchmark_names

(* ---------- Properties ---------- *)

let prop_adder_random =
  QCheck.Test.make ~name:"adder matches integer addition" ~count:100
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let nl = Circuits.kogge_stone_adder 8 in
      let inputs = Array.concat [ bits_of_int 8 a; bits_of_int 8 b; [| cin |] ] in
      let outs = Sim.eval nl inputs in
      let expect_sum, expect_cout = Circuits.Reference.add 8 a b cin in
      int_of_bits (Array.sub outs 0 8) = expect_sum && outs.(8) = expect_cout)

let prop_sorter_is_popcount_preserving =
  QCheck.Test.make ~name:"sorter preserves popcount" ~count:100
    QCheck.(list_of_size (Gen.return 8) bool)
    (fun bits ->
      let nl = Circuits.sorter 8 in
      let outs = Sim.eval nl (Array.of_list bits) in
      let ones l = List.length (List.filter Fun.id l) in
      ones (Array.to_list outs) = ones bits)

let () =
  Alcotest.run "sf_circuits"
    [
      ( "adder",
        [
          Alcotest.test_case "corners" `Quick test_adder8_exhaustive_corners;
          Alcotest.test_case "widths" `Quick test_adder_widths;
          Alcotest.test_case "2-bit exhaustive" `Quick test_adder2_exhaustive;
          QCheck_alcotest.to_alcotest prop_adder_random;
        ] );
      ( "counter",
        [
          Alcotest.test_case "exhaustive small" `Quick test_counter_small_exhaustive;
          Alcotest.test_case "sizes" `Quick test_counter_sizes;
          Alcotest.test_case "extremes" `Quick test_counter_all_ones_zeros;
          Alcotest.test_case "approximate mode" `Quick test_counter_approximate_mode;
        ] );
      ( "multiplier",
        [
          Alcotest.test_case "exhaustive small" `Quick test_multiplier_small_exhaustive;
          Alcotest.test_case "random 8-bit" `Quick test_multiplier_random_8;
          Alcotest.test_case "through synthesis" `Slow test_multiplier_through_synthesis;
        ] );
      ( "bnn",
        [
          Alcotest.test_case "exhaustive small" `Quick test_bnn_exhaustive_small;
          Alcotest.test_case "random 64" `Quick test_bnn_random_large;
          Alcotest.test_case "through synthesis" `Quick test_bnn_through_synthesis;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "one-hot" `Quick test_decoder_one_hot;
          Alcotest.test_case "decoder7 spot" `Quick test_decoder7_spot;
        ] );
      ( "sorter",
        [
          Alcotest.test_case "exhaustive small" `Quick test_sorter_small_exhaustive;
          Alcotest.test_case "sizes" `Quick test_sorter_sizes;
          Alcotest.test_case "non-power-of-two" `Quick test_sorter_rejects_non_power_of_two;
          QCheck_alcotest.to_alcotest prop_sorter_is_popcount_preserving;
        ] );
      ( "shipped_files",
        [ Alcotest.test_case "match generators" `Slow test_shipped_bench_files_match_generators ] );
      ( "iscas",
        [
          Alcotest.test_case "profiles" `Quick test_iscas_profiles;
          Alcotest.test_case "deterministic" `Quick test_iscas_deterministic;
          Alcotest.test_case "depth scales" `Quick test_iscas_depth_scales;
          Alcotest.test_case "all benchmarks" `Quick test_benchmark_names;
        ] );
    ]
