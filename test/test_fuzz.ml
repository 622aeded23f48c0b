(* Parser robustness: every text/binary reader in the repo must return
   [Error] on malformed input — never raise, never loop. Inputs are
   random garbage, truncations of valid documents, and valid documents
   with random mutations. *)

let to_alco = QCheck_alcotest.to_alcotest

let no_exception f =
  match f () with
  | Ok _ | Error _ -> true
  | exception Stack_overflow -> false
  | exception _ -> false

let arb_garbage =
  QCheck.(
    string_gen_of_size (Gen.int_range 0 400)
      (Gen.map Char.chr (Gen.int_range 1 126)))

(* a valid instance of each format, used for truncation/mutation *)
let valid_verilog =
  "module m(a, b, y);\n  input [1:0] a;\n  input b;\n  output y;\n  assign y = a[0] & b;\nendmodule\n"

let valid_bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"

let valid_tech = Tech_writer.to_string Tech.default

let valid_def =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  let r = Router.route_all p in
  Def.to_string (Def.of_design p r)

let valid_gds =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  let r = Router.route_all p in
  Bytes.to_string (Gds.to_bytes (Layout.to_gds (Layout.build p r)))

let truncate_mutate valid rng =
  let n = String.length valid in
  match Rng.int rng 3 with
  | 0 ->
      (* truncation *)
      String.sub valid 0 (Rng.int rng (max 1 n))
  | 1 ->
      (* single byte mutation *)
      let b = Bytes.of_string valid in
      let i = Rng.int rng (max 1 n) in
      Bytes.set b i (Char.chr (1 + Rng.int rng 125));
      Bytes.to_string b
  | _ ->
      (* splice two random halves *)
      let i = Rng.int rng (max 1 n) and j = Rng.int rng (max 1 n) in
      String.sub valid 0 i ^ String.sub valid j (n - j)

let fuzz_parser name parse valid =
  QCheck.Test.make ~name ~count:150
    QCheck.(pair arb_garbage (int_bound 1_000_000))
    (fun (garbage, seed) ->
      let rng = Rng.create seed in
      no_exception (fun () -> parse garbage)
      && no_exception (fun () -> parse (truncate_mutate valid rng)))

let fuzz_verilog = fuzz_parser "verilog parser never raises" Verilog.parse valid_verilog
let fuzz_bench = fuzz_parser "bench parser never raises" Bench_parser.parse valid_bench
let fuzz_tech = fuzz_parser "tech parser never raises" Tech.of_string valid_tech
let fuzz_def = fuzz_parser "def parser never raises" Def.of_string valid_def

let fuzz_gds =
  QCheck.Test.make ~name:"gds reader never raises" ~count:150
    QCheck.(pair arb_garbage (int_bound 1_000_000))
    (fun (garbage, seed) ->
      let rng = Rng.create seed in
      no_exception (fun () -> Gds.of_bytes (Bytes.of_string garbage))
      && no_exception (fun () ->
             Gds.of_bytes (Bytes.of_string (truncate_mutate valid_gds rng))))

(* valid inputs stay accepted after the fuzz campaign (sanity that the
   fixtures really are valid) *)
let test_fixtures_valid () =
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "verilog" true (ok (Verilog.parse valid_verilog));
  Alcotest.(check bool) "bench" true (ok (Bench_parser.parse valid_bench));
  Alcotest.(check bool) "tech" true (ok (Tech.of_string valid_tech));
  Alcotest.(check bool) "def" true (ok (Def.of_string valid_def));
  Alcotest.(check bool) "gds" true (ok (Gds.of_bytes (Bytes.of_string valid_gds)))

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers",
        [
          Alcotest.test_case "fixtures valid" `Quick test_fixtures_valid;
          to_alco fuzz_verilog;
          to_alco fuzz_bench;
          to_alco fuzz_tech;
          to_alco fuzz_def;
          to_alco fuzz_gds;
        ] );
    ]
