(* Tests for sf_mlint: one seeded fixture per SL-* rule (each must fire
   exactly once, at the expected file:line), suppression and baseline
   round-trips, the registry lock-step with sf_check's Rules, and the
   self-run: the repo at HEAD must lint clean. *)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let known_ids = List.map (fun (e : Rules.entry) -> e.Rules.id) Rules.all

let check_fixture ~rule ~path ~line src =
  let fs, _supp =
    Mlint.check_source ~known_ids (Sl_source.of_string ~path src)
  in
  checki (rule ^ " fires exactly once") 1 (List.length fs);
  let f = List.hd fs in
  checks (rule ^ " rule id") rule f.Mlint.rule;
  checks (rule ^ " path") path f.Mlint.path;
  checki (rule ^ " line") line f.Mlint.line

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ---------- one fixture per rule ---------- *)

let test_hash () =
  check_fixture ~rule:"SL-HASH-01" ~path:"lib/fix/f.ml" ~line:2
    "let f h =\n  Hashtbl.iter (fun _ v -> ignore v) h\n"

let test_hash_sanitized () =
  (* a sort in the same top-level definition sanitizes the iteration *)
  let fs, _ =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml"
         "let f h = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])\n")
  in
  checki "sorted fold is clean" 0 (List.length fs)

let test_time () =
  check_fixture ~rule:"SL-TIME-01" ~path:"lib/fix/f.ml" ~line:1
    "let t () = Sys.time ()\n"

let test_time_bench () =
  (* harnesses are held to the timing rule alone: the exit, the print,
     the unsorted Hashtbl walk and the catch-all stay quiet there *)
  check_fixture ~rule:"SL-TIME-01" ~path:"bench/fix/f.ml" ~line:4
    "let f h =\n\
    \  Hashtbl.iter (fun _ v -> print_endline v) h;\n\
    \  (try exit 1 with _ -> ());\n\
    \  Unix.gettimeofday ()\n"

let test_time_bench_run () =
  let root = Filename.temp_dir "mlint_test" "" in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir (Filename.concat root "bench") 0o755;
  write_file (Filename.concat root "bench/study.ml")
    "let t0 = Sys.time ()\nlet () = print_endline \"ok\"\n";
  match Mlint.run ~known_ids ~root () with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check (list string))
        "bench/ scanned for SL-TIME-01 only" [ "SL-TIME-01 bench/study.ml:1" ]
        (Mlint.baseline_lines rep.Mlint.findings)

let test_marshal () =
  check_fixture ~rule:"SL-MARSHAL-01" ~path:"lib/fix/f.ml" ~line:1
    "let s x = Marshal.to_string x []\n"

let test_poly () =
  check_fixture ~rule:"SL-POLY-01" ~path:"lib/place/f.ml" ~line:1
    "let s l = List.sort compare l\n"

let test_poly_scoped () =
  (* outside the stage libraries the rule stays quiet *)
  let fs, _ =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/util/f.ml" "let s l = List.sort compare l\n")
  in
  checki "poly compare outside stage dirs" 0 (List.length fs)

let test_global () =
  check_fixture ~rule:"SL-GLOBAL-01" ~path:"lib/fix/f.ml" ~line:1
    "let cache = ref 0\n"

let test_catch () =
  check_fixture ~rule:"SL-CATCH-01" ~path:"lib/fix/f.ml" ~line:1
    "let f g = try g () with _ -> 0\n"

let test_label () =
  check_fixture ~rule:"SL-LABEL-01" ~path:"lib/fix/f.ml" ~line:1
    "let f xs = Parallel.parallel_map (fun x -> x) xs\n"

let test_label_ok () =
  let fs, _ =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml"
         "let f xs = Parallel.parallel_map ~label:\"fix\" (fun x -> x) xs\n")
  in
  checki "labeled Parallel call is clean" 0 (List.length fs)

let test_print () =
  check_fixture ~rule:"SL-PRINT-01" ~path:"lib/fix/f.ml" ~line:1
    "let f () = print_endline \"hi\"\n"

let test_exit () =
  check_fixture ~rule:"SL-EXIT-01" ~path:"lib/fix/f.ml" ~line:1
    "let f () = exit 1\n"

let test_ruleid () =
  check_fixture ~rule:"SL-RULEID-01" ~path:"lib/fix/f.ml" ~line:1
    "let r = \"ZZ-FAKE-99\"\n"

let test_ruleid_known () =
  let fs, _ =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml" "let r = \"SL-HASH-01\"\n")
  in
  checki "registered id is clean" 0 (List.length fs)

let test_parse () =
  check_fixture ~rule:"SL-PARSE-01" ~path:"lib/fix/f.ml" ~line:1
    "let let let\n"

(* ---------- suppression ---------- *)

let test_suppress_above () =
  let fs, supp =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml"
         "(* sl-ignore: SL-EXIT-01 fixture exercises the marker *)\nlet f () = exit 1\n")
  in
  checki "suppressed finding dropped" 0 (List.length fs);
  checki "suppression counted" 1 supp

let test_suppress_trailing () =
  let fs, supp =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml"
         "let f () = exit 1 (* sl-ignore: SL-EXIT-01 fixture *)\n")
  in
  checki "trailing marker suppresses" 0 (List.length fs);
  checki "counted" 1 supp

let test_suppress_wrong_rule () =
  let fs, supp =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml"
         "(* sl-ignore: SL-HASH-01 names the wrong rule *)\nlet f () = exit 1\n")
  in
  checki "wrong rule id does not suppress" 1 (List.length fs);
  checki "nothing counted" 0 supp

(* ---------- baseline round-trip on a temp tree ---------- *)

let make_tree () =
  let root = Filename.temp_dir "mlint_test" "" in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir (Filename.concat root "lib/fix") 0o755;
  write_file (Filename.concat root "lib/fix/bad.ml") "let f () = exit 1\n";
  root

let test_run_finds () =
  let root = make_tree () in
  match Mlint.run ~known_ids ~root () with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      checki "one error" 1 rep.Mlint.errors;
      let f = List.hd rep.Mlint.findings in
      checks "path is root-relative" "lib/fix/bad.ml" f.Mlint.path;
      (* the serialized finding is a valid baseline entry *)
      Alcotest.(check (list string))
        "baseline lines" [ "SL-EXIT-01 lib/fix/bad.ml:1" ]
        (Mlint.baseline_lines rep.Mlint.findings)

let test_baseline_roundtrip () =
  let root = make_tree () in
  let baseline = [ "# header"; ""; "SL-EXIT-01 lib/fix/bad.ml:1" ] in
  match Mlint.run ~known_ids ~baseline ~root () with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      checki "baselined finding gone" 0 rep.Mlint.errors;
      checki "counted as baselined" 1 rep.Mlint.baselined;
      Alcotest.(check (list string)) "no stale entries" [] rep.Mlint.stale_baseline

let test_baseline_stale () =
  let root = make_tree () in
  let baseline = [ "SL-EXIT-01 lib/fix/bad.ml:1"; "SL-EXIT-01 lib/fix/gone.ml:9" ] in
  match Mlint.run ~known_ids ~baseline ~root () with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check (list string))
        "unmatched entry reported stale" [ "SL-EXIT-01 lib/fix/gone.ml:9" ]
        rep.Mlint.stale_baseline

(* ---------- registry lock-step ---------- *)

let test_registry_sync () =
  List.iter
    (fun (id, sev) ->
      match Rules.find id with
      | None -> Alcotest.failf "%s missing from Rules registry" id
      | Some e ->
          checks (id ^ " owned by the mlint pass") "mlint" e.Rules.pass;
          checkb (id ^ " severity matches") true (e.Rules.severity = sev);
          checkb (id ^ " explainable") true
            (match Rules.explain id with Ok _ -> true | Error _ -> false))
    Mlint.rules;
  let registered =
    List.filter_map
      (fun (e : Rules.entry) -> if e.Rules.pass = "mlint" then Some e.Rules.id else None)
      Rules.all
  in
  Alcotest.(check (list string))
    "every mlint-pass registry entry is implemented" registered Mlint.rule_ids;
  Alcotest.(check (list string)) "registry self-check" [] (Rules.self_check ())

(* ---------- rendering ---------- *)

let test_render () =
  let fs, _ =
    Mlint.check_source ~known_ids
      (Sl_source.of_string ~path:"lib/fix/f.ml" "let f () = exit 1\n")
  in
  let f = List.hd fs in
  let txt = Mlint.render_text f in
  checkb "text names the rule" true (contains_sub ~sub:"SL-EXIT-01" txt);
  checkb "text carries file:line:col" true
    (contains_sub ~sub:"lib/fix/f.ml:1:11" txt);
  let js = Mlint.render_json f in
  checkb "json carries the witness snippet" true (contains_sub ~sub:"exit 1" js)

(* ---------- self-run: the repo lints clean ---------- *)

let find_repo_root () =
  let looks_like_root d =
    Sys.file_exists (Filename.concat d "dune-project")
    && Sys.is_directory (Filename.concat d "lib")
    && Sys.is_directory (Filename.concat d "bin")
  in
  let rec up d n =
    if n = 0 then None
    else if looks_like_root d then Some d
    else up (Filename.dirname d) (n - 1)
  in
  up (Sys.getcwd ()) 8

let test_self_run () =
  match find_repo_root () with
  | None -> Alcotest.fail "cannot locate the repo root from the test sandbox"
  | Some root -> (
      match Mlint.run ~known_ids ~root () with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          List.iter
            (fun f -> Printf.eprintf "unexpected: %s\n" (Mlint.render_text f))
            rep.Mlint.findings;
          checki "repo lints clean: no errors" 0 rep.Mlint.errors;
          checki "repo lints clean: no warnings" 0 rep.Mlint.warnings;
          checkb "scanned a real tree" true (rep.Mlint.files > 50))

let () =
  Alcotest.run "sf_mlint"
    [
      ( "rules fire once",
        [
          Alcotest.test_case "SL-HASH-01" `Quick test_hash;
          Alcotest.test_case "SL-HASH-01 sanitized" `Quick test_hash_sanitized;
          Alcotest.test_case "SL-TIME-01" `Quick test_time;
          Alcotest.test_case "SL-TIME-01 bench scope" `Quick test_time_bench;
          Alcotest.test_case "SL-TIME-01 bench run" `Quick test_time_bench_run;
          Alcotest.test_case "SL-MARSHAL-01" `Quick test_marshal;
          Alcotest.test_case "SL-POLY-01" `Quick test_poly;
          Alcotest.test_case "SL-POLY-01 scope" `Quick test_poly_scoped;
          Alcotest.test_case "SL-GLOBAL-01" `Quick test_global;
          Alcotest.test_case "SL-CATCH-01" `Quick test_catch;
          Alcotest.test_case "SL-LABEL-01" `Quick test_label;
          Alcotest.test_case "SL-LABEL-01 labeled" `Quick test_label_ok;
          Alcotest.test_case "SL-PRINT-01" `Quick test_print;
          Alcotest.test_case "SL-EXIT-01" `Quick test_exit;
          Alcotest.test_case "SL-RULEID-01" `Quick test_ruleid;
          Alcotest.test_case "SL-RULEID-01 known" `Quick test_ruleid_known;
          Alcotest.test_case "SL-PARSE-01" `Quick test_parse;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "marker above" `Quick test_suppress_above;
          Alcotest.test_case "marker trailing" `Quick test_suppress_trailing;
          Alcotest.test_case "wrong rule" `Quick test_suppress_wrong_rule;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "run finds" `Quick test_run_finds;
          Alcotest.test_case "round-trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "stale entries" `Quick test_baseline_stale;
        ] );
      ( "registry",
        [ Alcotest.test_case "lock-step with Rules" `Quick test_registry_sync ] );
      ("rendering", [ Alcotest.test_case "text and json" `Quick test_render ]);
      ("self-run", [ Alcotest.test_case "repo lints clean" `Quick test_self_run ]);
    ]
