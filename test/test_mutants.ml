(* Mutation campaign over the buffered netlists of adder8, c432 and
   apc32. Six structural mutant classes are planted, each checked with
   the phases the mutation leaves and again after re-levelizing,
   through the netlist passes of the check stage: lint at the Full
   tier, the four absint passes and aqfp. The pinned table says which
   rules catch which class and which rule is the only one to catch a
   mutant, so a change that merges or drops a rule shows here as the
   mutants that stop being caught, and a rule can go only where its
   sole count is zero. *)

let designs = [ "adder8"; "c432"; "apc32" ]

(* mutants per class and design, spread evenly over the candidates *)
let per_design = 6

(* one finding as the report prints it, witness left out: new nodes
   can lengthen the witness of a finding that was already there *)
let key (d : Diag.t) =
  Printf.sprintf "%s %s %s" d.Diag.rule (Diag.loc_string d.Diag.loc) d.Diag.message

let findings nl =
  let facts = Facts.create nl in
  let passes =
    [ Check.pass "lint" (fun () -> Lint.check ~tier:Check.Full ~facts nl) ]
    @ Absint_check.passes ~facts nl
    @ [ Check.pass "aqfp" (fun () -> Aqfp_check.check nl) ]
  in
  (Check.run passes).Check.diags

let is_gate nl i =
  match Netlist.kind nl i with
  | Netlist.Input | Netlist.Output | Netlist.Const _ | Netlist.Splitter _ -> false
  | _ -> true

let ids nl p = List.filter (p nl) (List.init (Netlist.size nl) Fun.id)

let spread k l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= k then l else List.init k (fun i -> a.(i * n / k))

(* a new node at a given phase, as an edit that does not re-levelize
   leaves it *)
let add_at nl kind fanins phase =
  let id = Netlist.add nl kind fanins in
  Netlist.set_phase nl id phase;
  id

let set_fanin nl g slot f =
  let fs = Array.copy (Netlist.fanins nl g) in
  fs.(slot) <- f;
  Netlist.set_fanins nl g fs

(* [nl] rebuilt without buffer [b]: its consumer reads its driver.
   Fan-ins may point to higher ids, so the nodes are added first (on
   placeholder fan-ins) and wired second. *)
let drop nl b =
  let out = Netlist.create () in
  let driver = (Netlist.fanins nl b).(0) in
  let id i = if i < b then i else i - 1 in
  Netlist.iter nl (fun nd ->
      if nd.Netlist.id <> b then begin
        let kind = nd.Netlist.kind in
        let i = Netlist.add out ?name:nd.Netlist.name kind (Array.make (Netlist.arity kind) 0) in
        Netlist.set_phase out i nd.Netlist.phase
      end);
  Netlist.iter nl (fun nd ->
      if nd.Netlist.id <> b then
        Netlist.set_fanins out (id nd.Netlist.id)
          (Array.map (fun f -> id (if f = b then driver else f)) nd.Netlist.fanins));
  out

(* Each class lists its sites on the pristine netlist and returns the
   [k]-th mutant, built on a copy. *)
type mutant_class = {
  name : string;
  sites : Netlist.t -> int list;
  plant : Netlist.t -> k:int -> int -> Netlist.t;
}

let edit f nl ~k site =
  let nl = Netlist.copy nl in
  f nl ~k site;
  nl

(* the first gate after [g], one phase deeper, that satisfies [p] *)
let deeper nl g p =
  let ph = Netlist.phase nl g + 1 in
  List.find_opt (fun h -> h > g && Netlist.phase nl h = ph && p h) (ids nl is_gate)

let classes =
  [
    {
      name = "drop-buffer";
      sites = (fun nl -> ids nl (fun nl i -> Netlist.kind nl i = Netlist.Buf));
      plant = (fun nl ~k:_ b -> drop nl b);
    };
    (* fan-in 0 of a gate and of a gate one phase deeper that it does
       not drive trade places *)
    {
      name = "swap-fanins";
      sites = (fun nl -> ids nl is_gate);
      plant =
        edit (fun nl ~k:_ g ->
            let fg = (Netlist.fanins nl g).(0) in
            match deeper nl g (fun h -> (Netlist.fanins nl h).(0) <> g) with
            | Some h ->
                set_fanin nl g 0 (Netlist.fanins nl h).(0);
                set_fanin nl h 0 fg
            | None -> ());
    };
    (* a gate one phase deeper reads the gate as its fan-in 0 *)
    {
      name = "second-consumer";
      sites = (fun nl -> ids nl is_gate);
      plant =
        edit (fun nl ~k:_ g ->
            match deeper nl g (fun c -> not (Array.mem g (Netlist.fanins nl c))) with
            | Some c -> set_fanin nl c 0 g
            | None -> ());
    };
    (* alternately one more and one fewer declared output *)
    {
      name = "splitter-arity";
      sites =
        (fun nl ->
          ids nl (fun nl i ->
              match Netlist.kind nl i with Netlist.Splitter _ -> true | _ -> false));
      plant =
        edit (fun nl ~k s ->
            match Netlist.kind nl s with
            | Netlist.Splitter a ->
                Netlist.set_kind nl s (Netlist.Splitter (if k mod 2 = 0 then a + 1 else a - 1))
            | _ -> ());
    };
    (* two inverters spliced into the gate's fan-in 0, at the two
       phases just above the gate *)
    {
      name = "inverter-pair";
      sites = (fun nl -> ids nl is_gate);
      plant =
        edit (fun nl ~k:_ g ->
            let p = Netlist.phase nl g in
            let n1 = add_at nl Netlist.Not [| (Netlist.fanins nl g).(0) |] (p - 2) in
            set_fanin nl g 0 (add_at nl Netlist.Not [| n1 |] (p - 1)));
    };
    (* the gate's fan-in 0 comes from a new constant, alternately 0
       and 1, one phase above the gate *)
    {
      name = "tie-constant";
      sites = (fun nl -> ids nl is_gate);
      plant =
        edit (fun nl ~k g ->
            set_fanin nl g 0
              (add_at nl (Netlist.Const (k mod 2 = 1)) [||] (Netlist.phase nl g - 1)));
    };
  ]

(* per rule, a count in a table, rendered sorted by rule as
   [rule<sep>count] items *)
let bump tbl r =
  Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r))

let render ~sep ~between tbl =
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (r, n) -> Printf.sprintf "%s%s%d" r sep n)
  |> String.concat between

(* One row of the table: the mutant count, then per rule the number
   of mutants on which it reported something the pristine netlist
   does not, then the mutants no rule caught and, per rule, those it
   alone caught. *)
let campaign cls ~relevel =
  let fired = Hashtbl.create 16 and sole = Hashtbl.create 16 in
  let mutants = ref 0 and uncaught = ref 0 in
  List.iter
    (fun name ->
      let base = Synth_flow.run_quiet (Circuits.benchmark name) in
      let before = List.map key (findings base) in
      List.iteri
        (fun k site ->
          let nl = cls.plant base ~k site in
          if relevel then ignore (Netlist.levelize nl);
          let rules =
            List.filter (fun d -> not (List.mem (key d) before)) (findings nl)
            |> List.map (fun d -> d.Diag.rule)
            |> List.sort_uniq String.compare
          in
          incr mutants;
          List.iter (bump fired) rules;
          match rules with
          | [] -> incr uncaught
          | [ r ] -> bump sole r
          | _ -> ())
        (spread per_design (cls.sites base)))
    designs;
  Printf.sprintf "%s%s %d: %s | uncaught=%d sole=%s" cls.name
    (if relevel then " +relevel" else "")
    !mutants
    (render ~sep:"=" ~between:" " fired)
    !uncaught
    (if Hashtbl.length sole = 0 then "-" else render ~sep:":" ~between:"," sole)

(* Every mutant is caught. AQFP-PHASE-01 alone catches every dropped
   buffer and every swap left un-levelized; re-levelized, 13 swaps
   also move an output off the last phase, so AQFP-PHASE-02 shares
   those. NL-FANOUT-01 alone catches a splitter whose new arity stays
   in 2..4. A tied constant off phase 0 is an AQFP-PHASE-01 source
   violation, levelized or not. *)
let expected =
  [
    "drop-buffer 18: AQFP-PHASE-01=18 | uncaught=0 sole=AQFP-PHASE-01:18";
    "drop-buffer +relevel 18: AQFP-PHASE-01=18 | uncaught=0 sole=AQFP-PHASE-01:18";
    "swap-fanins 18: AQFP-PHASE-01=18 | uncaught=0 sole=AQFP-PHASE-01:18";
    "swap-fanins +relevel 18: AQFP-PHASE-01=18 AQFP-PHASE-02=13 | uncaught=0 \
     sole=AQFP-PHASE-01:5";
    "second-consumer 18: AI-LOAD-01=16 AQFP-FANOUT-01=18 NL-DEAD-01=16 NL-FANOUT-01=2 \
     | uncaught=0 sole=-";
    "second-consumer +relevel 18: AI-LOAD-01=16 AQFP-FANOUT-01=18 NL-DEAD-01=16 \
     NL-FANOUT-01=2 | uncaught=0 sole=-";
    "splitter-arity 18: AQFP-SPLIT-01=4 NL-FANOUT-01=18 | uncaught=0 sole=NL-FANOUT-01:14";
    "splitter-arity +relevel 18: AQFP-SPLIT-01=4 NL-FANOUT-01=18 | uncaught=0 \
     sole=NL-FANOUT-01:14";
    "inverter-pair 18: AI-POLAR-01=18 AQFP-PHASE-01=18 NL-DUP-01=2 | uncaught=0 sole=-";
    "inverter-pair +relevel 18: AI-POLAR-01=18 AQFP-PHASE-01=18 AQFP-PHASE-02=13 \
     NL-DUP-01=2 | uncaught=0 sole=-";
    "tie-constant 18: AI-CONST-01=3 AI-LOAD-01=11 AI-OBS-01=3 AQFP-PHASE-01=18 \
     NL-CONST-01=2 NL-DEAD-01=11 NL-FANOUT-01=7 | uncaught=0 sole=-";
    "tie-constant +relevel 18: AI-CONST-01=3 AI-LOAD-01=11 AI-OBS-01=3 AQFP-PHASE-01=18 \
     NL-CONST-01=2 NL-DEAD-01=11 NL-FANOUT-01=7 | uncaught=0 sole=-";
  ]

let test_table () =
  let table =
    List.concat_map
      (fun cls -> [ campaign cls ~relevel:false; campaign cls ~relevel:true ])
      classes
  in
  Alcotest.(check (list string)) "class x rule table" expected table

let () =
  Alcotest.run "mutants"
    [ ("campaign", [ Alcotest.test_case "class x rule table" `Quick test_table ]) ]
