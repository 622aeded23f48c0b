(* Tests for the sf_resyn cut-based majority resynthesis engine:
   every resynthesized design must prove equivalent to its input
   (bundled benchmarks and random profile-matched netlists alike) and
   never worsen JJ count or phase depth; the engine must be
   idempotent (a second run accepts zero rewrites and returns its
   input byte-for-byte) and deterministic across worker-pool sizes;
   and Opt.optimize must refuse post-mapping netlists with a message
   that redirects to this engine. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let resyn ?(effort = Resyn.Full) aoi =
  let aqfp0 = Synth_flow.run_quiet aoi in
  let aqfp1, r = Resyn.run ~effort aqfp0 in
  (aqfp0, aqfp1, r)

let assert_equal_and_no_worse name aoi =
  let aqfp0, aqfp1, r = resyn aoi in
  (match Cec.check aqfp0 aqfp1 with
  | Cec.Equal -> ()
  | Cec.Diff _ -> Alcotest.failf "%s: resyn changed the function" name
  | Cec.Unknown _ -> Alcotest.failf "%s: resyn equivalence unknown" name);
  checkb (name ^ " jj no worse") true (r.Resyn.jj_after <= r.Resyn.jj_before);
  checkb
    (name ^ " depth no worse")
    true
    (r.Resyn.depth_after <= r.Resyn.depth_before);
  (* metrics in the report describe the returned netlist *)
  checki (name ^ " jj_after") r.Resyn.jj_after (Cell.netlist_jj_count aqfp1);
  (* every window is accounted for: proven fresh, served from a cache,
     or refused ([failed] also counts cached/memoized refutations, so
     it bounds the gap rather than closing an exact sum) *)
  let served =
    r.Resyn.cec.Resyn.proved + r.Resyn.cec.Resyn.cached
    + r.Resyn.cec.Resyn.memoized
  in
  checkb (name ^ " cec served bound") true (served <= r.Resyn.cec.Resyn.windows);
  checkb
    (name ^ " cec refusals bound")
    true
    (r.Resyn.cec.Resyn.windows <= served + r.Resyn.cec.Resyn.failed)

let test_bundled_designs () =
  List.iter
    (fun name -> assert_equal_and_no_worse name (Circuits.benchmark name))
    Circuits.benchmark_names

let test_random_netlists () =
  (* 30 random profile-matched netlists in the c-series shape *)
  for seed = 1 to 30 do
    let aoi =
      Circuits.iscas_like ~seed ~pi:8 ~po:4
        ~gates:(20 + (7 * seed mod 40))
        ~depth:(4 + (seed mod 5))
    in
    assert_equal_and_no_worse (Printf.sprintf "iscas_like seed %d" seed) aoi
  done

let test_improves_bundled () =
  (* the acceptance bar: full effort strictly improves JJ count or
     phase depth on at least half the bundled designs *)
  let improved =
    List.length
      (List.filter
         (fun name ->
           let _, _, r = resyn (Circuits.benchmark name) in
           r.Resyn.jj_after < r.Resyn.jj_before
           || r.Resyn.depth_after < r.Resyn.depth_before)
         Circuits.benchmark_names)
  in
  let total = List.length Circuits.benchmark_names in
  checkb
    (Printf.sprintf "%d/%d designs improved" improved total)
    true
    (2 * improved >= total)

let test_idempotent () =
  List.iter
    (fun name ->
      let _, aqfp1, _ = resyn (Circuits.benchmark name) in
      let aqfp2, r2 = Resyn.run ~effort:Resyn.Full aqfp1 in
      checki (name ^ " second run accepts 0") 0 (Resyn.rewrites_accepted r2);
      checks (name ^ " fixpoint is stable")
        (Netlist.struct_hash aqfp1)
        (Netlist.struct_hash aqfp2);
      (* when nothing improves, the very same netlist comes back *)
      checkb (name ^ " physically unchanged") true (aqfp1 == aqfp2))
    [ "adder8"; "apc32"; "c432" ]

let test_jobs_independent () =
  let run jobs =
    Parallel.set_jobs jobs;
    let _, aqfp1, _ = resyn (Circuits.benchmark "apc32") in
    Netlist.struct_hash aqfp1
  in
  let h1 = run 1 in
  let h4 = run 4 in
  Parallel.set_jobs 1;
  checks "jobs=1 = jobs=4" h1 h4

let test_effort_off_is_identity () =
  let aqfp0 = Synth_flow.run_quiet (Circuits.benchmark "adder8") in
  let aqfp1, r = Resyn.run aqfp0 in
  checkb "same netlist" true (aqfp0 == aqfp1);
  checki "no rounds" 0 r.Resyn.rounds;
  checki "no windows" 0 r.Resyn.cec.Resyn.windows

let test_cache_warm_reproves_nothing () =
  let tbl = Hashtbl.create 64 in
  let cache =
    {
      Memo.find = (fun k -> Hashtbl.find_opt tbl k);
      store = (fun k v -> Hashtbl.replace tbl k v);
    }
  in
  let aqfp0 = Synth_flow.run_quiet (Circuits.benchmark "apc32") in
  let a1, r1 = Resyn.run ~effort:Resyn.Full ~cache aqfp0 in
  let a2, r2 = Resyn.run ~effort:Resyn.Full ~cache aqfp0 in
  checkb "cold run proves" true (r1.Resyn.cec.Resyn.proved > 0);
  checki "warm run proves nothing" 0 r2.Resyn.cec.Resyn.proved;
  checks "warm result identical" (Netlist.struct_hash a1)
    (Netlist.struct_hash a2)

(* ---------- NPN canonicalization ---------- *)

let test_npn_classes () =
  let seen = Hashtbl.create 32 in
  for f = 0 to 255 do
    Hashtbl.replace seen (fst (Npn.canon f)) ()
  done;
  checki "3-input NPN classes" 14 (Hashtbl.length seen)

(* NPN canonicalization as it stood before the table built at module
   initialisation: [apply] tabulates through [Truth.of_fun] and
   [canon] searches all 96 transforms on every call. Kept as the
   oracle for [Npn.canon]. *)
module Reference_npn = struct
  let perms =
    [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |];
       [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

  let apply (t : Npn.transform) f =
    Truth.of_fun 3 (fun ys ->
        let xs = Array.make 3 false in
        for j = 0 to 2 do
          let k = t.Npn.perm.(j) in
          xs.(k) <- ys.(j) <> (t.Npn.phase land (1 lsl k) <> 0)
        done;
        Truth.eval f xs <> t.Npn.out_neg)

  let canon f =
    let f = f land 255 in
    let best = ref (f, Npn.identity) in
    Array.iter
      (fun perm ->
        for phase = 0 to 7 do
          List.iter
            (fun out_neg ->
              let t = { Npn.perm; phase; out_neg } in
              let g = apply t f in
              if g < fst !best then best := (g, t))
            [ false; true ]
        done)
      perms;
    !best
end

let show_transform (t : Npn.transform) =
  Printf.sprintf "perm=%d%d%d phase=%d out_neg=%b" t.Npn.perm.(0) t.Npn.perm.(1)
    t.Npn.perm.(2) t.Npn.phase t.Npn.out_neg

let test_npn_matches_reference () =
  (* the transform matters as much as the representative: [uncanon]
     reads it *)
  for f = 0 to 255 do
    let g, t = Npn.canon f in
    let g', t' = Reference_npn.canon f in
    checki (Printf.sprintf "tt %d representative" f) g' g;
    checks (Printf.sprintf "tt %d transform" f) (show_transform t') (show_transform t);
    checki (Printf.sprintf "tt %d witness" f) g (Npn.apply t f);
    Array.iter
      (fun perm ->
        for phase = 0 to 15 do
          let t = { Npn.perm; phase = phase land 7; out_neg = phase >= 8 } in
          if Npn.apply t f <> Reference_npn.apply t f then
            Alcotest.failf "tt %d: apply differs under %s" f (show_transform t)
        done)
      Reference_npn.perms
  done

let test_npn_uncanon_semantics () =
  (* uncanon must transport the canonical class representative's
     implementation back so that it computes the original function;
     checked via Maj_db over every 3-input truth table *)
  for f = 0 to 255 do
    let g, t = Npn.canon f in
    let impl' = Npn.uncanon t (Maj_db.lookup g) in
    for v = 0 to 7 do
      let x = [| v land 1 = 1; v land 2 <> 0; v land 4 <> 0 |] in
      checkb
        (Printf.sprintf "tt %d vector %d" f v)
        (Truth.eval f x) (Maj_eval.eval_impl impl' x)
    done
  done

(* ---------- struct_hash commutative canonicalization ---------- *)

let test_struct_hash_commutative () =
  let mk order =
    let nl = Netlist.create () in
    let a = Netlist.add nl Netlist.Input [||] in
    let b = Netlist.add nl Netlist.Input [||] in
    let c = Netlist.add nl Netlist.Input [||] in
    let perm = Array.map (fun i -> [| a; b; c |].(i)) order in
    let m = Netlist.add nl Netlist.Maj perm in
    ignore (Netlist.add nl Netlist.Output [| m |]);
    Netlist.struct_hash nl
  in
  checks "maj(a,b,c) = maj(c,a,b)" (mk [| 0; 1; 2 |]) (mk [| 2; 0; 1 |]);
  checks "maj(a,b,c) = maj(b,c,a)" (mk [| 0; 1; 2 |]) (mk [| 1; 2; 0 |])

(* ---------- Opt precondition ---------- *)

let test_opt_rejects_mapped_netlists () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let c = Netlist.add nl Netlist.Input [||] in
  let m = Netlist.add nl Netlist.Maj [| a; b; c |] in
  ignore (Netlist.add nl Netlist.Output [| m |]);
  match Opt.optimize nl with
  | _ -> Alcotest.fail "Opt.optimize accepted a majority netlist"
  | exception Invalid_argument msg ->
      checkb "names the node kind" true (contains msg "maj");
      checkb "redirects to sf_resyn" true (contains msg "sf_resyn")

let () =
  Alcotest.run "resyn"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bundled designs" `Quick test_bundled_designs;
          Alcotest.test_case "random netlists" `Slow test_random_netlists;
        ] );
      ( "qor",
        [
          Alcotest.test_case "improves half the designs" `Quick
            test_improves_bundled;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "effort off is identity" `Quick
            test_effort_off_is_identity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4" `Quick test_jobs_independent;
          Alcotest.test_case "warm cache" `Quick
            test_cache_warm_reproves_nothing;
        ] );
      ( "npn",
        [
          Alcotest.test_case "class count" `Quick test_npn_classes;
          Alcotest.test_case "canon matches reference" `Quick
            test_npn_matches_reference;
          Alcotest.test_case "uncanon semantics" `Quick
            test_npn_uncanon_semantics;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "commutative struct_hash" `Quick
            test_struct_hash_commutative;
        ] );
      ( "opt",
        [
          Alcotest.test_case "rejects mapped netlists" `Quick
            test_opt_rejects_mapped_netlists;
        ] );
    ]
