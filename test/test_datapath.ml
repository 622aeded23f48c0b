(* Functional correctness of the datapath generators, each against its
   reference, plus a spot check through the full synthesis flow. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* the specification each generator is checked against *)
module Ref = struct
  let subtract w a b =
    let mask = (1 lsl w) - 1 in
    let d = (a - b) land mask in
    (d, a >= b)

  let shift_left w x s = (x lsl s) land ((1 lsl w) - 1)

  let priority n v =
    let rec go i = if i < 0 then None else if (v lsr i) land 1 = 1 then Some i else go (i - 1) in
    go (n - 1)

  let mux _n v s = (v lsr s) land 1 = 1

  let parity v =
    let rec go acc v = if v = 0 then acc else go (acc <> (v land 1 = 1)) (v lsr 1) in
    go false v
end

let bits_of w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let int_of bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* ---------- adders agree with each other and the reference ---------- *)

let test_ripple_exhaustive () =
  let nl = Datapath.ripple_adder 3 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      List.iter
        (fun cin ->
          let outs = Sim.eval nl (Array.concat [ bits_of 3 a; bits_of 3 b; [| cin |] ]) in
          let expect_sum, expect_cout = Circuits.Reference.add 3 a b cin in
          checki "sum" expect_sum (int_of (Array.sub outs 0 3));
          checkb "cout" expect_cout outs.(3))
        [ false; true ]
    done
  done

let test_adders_equivalent () =
  (* ripple, carry-select and Kogge-Stone compute the same function *)
  List.iter
    (fun w ->
      let ks = Circuits.kogge_stone_adder w in
      checkb "ripple = kogge-stone" true (Sim.equivalent (Datapath.ripple_adder w) ks);
      checkb "carry-select = kogge-stone" true
        (Sim.equivalent (Datapath.carry_select_adder w) ks);
      checkb "carry-select block=2" true
        (Sim.equivalent (Datapath.carry_select_adder ~block:2 w) ks))
    [ 4; 8 ]

let test_adder_depth_tradeoff () =
  (* the architectural point: ripple is deepest, kogge-stone shallowest *)
  let depth nl = Netlist.levelize (Netlist.copy nl) in
  let w = 16 in
  let ripple = depth (Datapath.ripple_adder w) in
  let ks = depth (Circuits.kogge_stone_adder w) in
  checkb (Printf.sprintf "ripple %d > kogge-stone %d" ripple ks) true (ripple > ks)

(* ---------- subtractor ---------- *)

let test_subtractor_exhaustive () =
  let nl = Datapath.subtractor 4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let outs = Sim.eval nl (Array.append (bits_of 4 a) (bits_of 4 b)) in
      let expect_d, expect_ge = Ref.subtract 4 a b in
      checki (Printf.sprintf "%d-%d" a b) expect_d (int_of (Array.sub outs 0 4));
      checkb "no-borrow flag" expect_ge outs.(4)
    done
  done

(* ---------- comparator ---------- *)

let test_comparator_exhaustive () =
  let nl = Datapath.comparator 3 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let outs = Sim.eval nl (Array.append (bits_of 3 a) (bits_of 3 b)) in
      let lt, eq, gt = (outs.(0), outs.(1), outs.(2)) in
      checkb "lt" (a < b) lt;
      checkb "eq" (a = b) eq;
      checkb "gt" (a > b) gt;
      checkb "one-hot" true
        (List.length (List.filter Fun.id [ lt; eq; gt ]) = 1)
    done
  done

(* ---------- barrel shifter ---------- *)

let test_barrel_shifter_exhaustive () =
  let w = 8 in
  let nl = Datapath.barrel_shifter w in
  for x = 0 to 255 do
    if x mod 7 = 0 then
      for s = 0 to w - 1 do
        let outs = Sim.eval nl (Array.append (bits_of w x) (bits_of 3 s)) in
        checki
          (Printf.sprintf "%d<<%d" x s)
          (Ref.shift_left w x s)
          (int_of outs)
      done
  done

(* ---------- priority encoder ---------- *)

let test_priority_encoder_exhaustive () =
  let n = 8 in
  let nl = Datapath.priority_encoder n in
  for v = 0 to 255 do
    let outs = Sim.eval nl (bits_of n v) in
    let y = int_of (Array.sub outs 0 3) in
    let valid = outs.(3) in
    match Ref.priority n v with
    | Some idx ->
        checkb "valid" true valid;
        checki "index" idx y
    | None -> checkb "invalid" false valid
  done

(* ---------- mux tree ---------- *)

let test_mux_tree_exhaustive () =
  let n = 8 in
  let nl = Datapath.mux_tree n in
  for v = 0 to 255 do
    if v mod 5 = 0 then
      for s = 0 to n - 1 do
        let outs = Sim.eval nl (Array.append (bits_of n v) (bits_of 3 s)) in
        checkb "mux" (Ref.mux n v s) outs.(0)
      done
  done

(* ---------- parity ---------- *)

let test_parity_exhaustive () =
  let nl = Datapath.parity 6 in
  for v = 0 to 63 do
    let outs = Sim.eval nl (bits_of 6 v) in
    checkb "parity" (Ref.parity v) outs.(0)
  done

(* ---------- through the flow ---------- *)

let test_datapath_through_synthesis () =
  List.iter
    (fun (label, nl) ->
      let aqfp = Synth_flow.run_quiet nl in
      checkb (label ^ " balanced") true (Netlist.is_balanced aqfp);
      checkb (label ^ " equivalent") true (Sim.equivalent nl aqfp))
    [
      ("carry_select8", Datapath.carry_select_adder 8);
      ("comparator4", Datapath.comparator 4);
      ("barrel8", Datapath.barrel_shifter 8);
      ("prio8", Datapath.priority_encoder 8);
    ]

let test_datapath_full_flow () =
  let r = Flow.run (Datapath.comparator 4) in
  checkb "drc clean" true (r.Flow.violations = []);
  checkb "equivalent" true (Sim.equivalent (Datapath.comparator 4) r.Flow.aqfp_netlist)

let prop_carry_select_blocks =
  QCheck.Test.make ~name:"carry-select equals reference for any block size" ~count:20
    QCheck.(pair (int_range 1 6) (int_range 2 10))
    (fun (block, w) ->
      Sim.equivalent
        (Datapath.carry_select_adder ~block w)
        (Circuits.kogge_stone_adder w))

let () =
  Alcotest.run "datapath"
    [
      ( "adders",
        [
          Alcotest.test_case "ripple exhaustive" `Quick test_ripple_exhaustive;
          Alcotest.test_case "architectures agree" `Quick test_adders_equivalent;
          Alcotest.test_case "depth tradeoff" `Quick test_adder_depth_tradeoff;
          QCheck_alcotest.to_alcotest prop_carry_select_blocks;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "subtractor" `Quick test_subtractor_exhaustive;
          Alcotest.test_case "comparator" `Quick test_comparator_exhaustive;
          Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter_exhaustive;
          Alcotest.test_case "priority encoder" `Quick test_priority_encoder_exhaustive;
          Alcotest.test_case "mux tree" `Quick test_mux_tree_exhaustive;
          Alcotest.test_case "parity" `Quick test_parity_exhaustive;
        ] );
      ( "flow",
        [
          Alcotest.test_case "through synthesis" `Quick test_datapath_through_synthesis;
          Alcotest.test_case "full flow" `Quick test_datapath_full_flow;
        ] );
    ]
