(* Tests for sf_db: deterministic artifact codecs (exact round-trips,
   loud corruption failures), the content-addressed store, and the
   cached/resumable stage graph in Flow.run_staged. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmp_dir () =
  let f = Filename.temp_file "sfdb_test" "" in
  Sys.remove f;
  f

let with_db f =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Db.open_ dir with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok db -> f dir db)

let expect_rule name rule = function
  | Ok _ -> Alcotest.fail (name ^ ": expected a structured error")
  | Error d -> checks name rule d.Diag.rule

let gds_bytes layout = Bytes.to_string (Gds.to_bytes (Layout.to_gds layout))

(* ---------- codec round-trips ---------- *)

(* decode (encode x) must rebuild a value whose re-encoding is
   byte-identical to the first encoding *)
let roundtrip name (codec : 'a Artifact.codec) v =
  let bytes = codec.Artifact.encode v in
  match codec.Artifact.decode bytes with
  | Error d -> Alcotest.fail (name ^ ": " ^ Diag.to_string d)
  | Ok v' ->
      checkb (name ^ " re-encode byte-identical") true
        (String.equal bytes (codec.Artifact.encode v'));
      v'

let test_netlist_codec_all_benchmarks () =
  List.iter
    (fun name ->
      let nl = Circuits.benchmark name in
      let nl' = roundtrip ("netlist " ^ name) Artifact.netlist nl in
      checks (name ^ " same shape")
        (Format.asprintf "%a" Netlist.pp_stats nl)
        (Format.asprintf "%a" Netlist.pp_stats nl'))
    Circuits.benchmark_names

let flow_result =
  (* one shared flow run keeps the artifact tests fast *)
  lazy (Flow.run ~check:true (Circuits.benchmark "adder8"))

let test_flow_artifact_codecs () =
  let r = Lazy.force flow_result in
  ignore (roundtrip "aqfp netlist" Artifact.netlist r.Flow.aqfp_netlist);
  ignore (roundtrip "tech" Artifact.tech Tech.default);
  ignore (roundtrip "problem" Artifact.problem r.Flow.problem);
  ignore (roundtrip "placement" Artifact.placement r.Flow.placement);
  ignore (roundtrip "routing" Artifact.routing r.Flow.routing);
  ignore (roundtrip "sta" Artifact.sta r.Flow.sta);
  ignore (roundtrip "energy" Artifact.energy r.Flow.energy);
  ignore (roundtrip "synth report" Artifact.synth_report r.Flow.synth_report);
  ignore (roundtrip "drc" Artifact.drc r.Flow.violations);
  let layout' = roundtrip "layout" Artifact.layout r.Flow.layout in
  checkb "layout GDS identical" true
    (String.equal (gds_bytes r.Flow.layout) (gds_bytes layout'));
  match r.Flow.check_report with
  | None -> Alcotest.fail "flow ~check:true lost its report"
  | Some rep ->
      let rep' = roundtrip "check report" Artifact.check_report rep in
      checks "check report renders identically" (Check.render_text rep)
        (Check.render_text rep')

(* ---------- corruption: loud, structured failure ---------- *)

let test_corrupt_frames () =
  let codec = Artifact.netlist in
  let good = codec.Artifact.encode (Circuits.benchmark "adder8") in
  let n = String.length good in
  (* truncations at both interesting places *)
  expect_rule "cut mid-payload" "DB-TRUNC-01"
    (codec.Artifact.decode (String.sub good 0 (n - 10)));
  expect_rule "cut mid-header" "DB-TRUNC-01"
    (codec.Artifact.decode (String.sub good 0 10));
  expect_rule "cut before magic" "DB-MAGIC-01"
    (codec.Artifact.decode (String.sub good 0 3));
  expect_rule "garbage" "DB-MAGIC-01" (codec.Artifact.decode "not a frame");
  (* single flipped payload bit *)
  let flipped = Bytes.of_string good in
  let at = n - 20 in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
  expect_rule "bit flip" "DB-CKSUM-01"
    (codec.Artifact.decode (Bytes.to_string flipped));
  (* right payload, wrong wrapper *)
  let payload =
    match Codec.split good with
    | Ok (_, _, p) -> p
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  expect_rule "future version" "DB-VERSION-01"
    (codec.Artifact.decode (Codec.seal ~kind:codec.Artifact.kind ~version:999 payload));
  expect_rule "wrong kind" "DB-KIND-01"
    (codec.Artifact.decode
       (Codec.seal ~kind:"banana" ~version:codec.Artifact.version payload));
  (* structurally valid frame whose payload is noise *)
  expect_rule "noise payload" "DB-PARSE-01"
    (codec.Artifact.decode
       (Codec.seal ~kind:codec.Artifact.kind ~version:codec.Artifact.version
          "\x42\x42\x42\x42"))

let test_save_load_files () =
  let nl = Circuits.benchmark "decoder" in
  let path = Filename.temp_file "sfdb_artifact" ".sfo" in
  Artifact.save Artifact.netlist path nl;
  (match Artifact.load Artifact.netlist path with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok nl' ->
      checkb "file round-trip" true
        (String.equal
           (Artifact.netlist.Artifact.encode nl)
           (Artifact.netlist.Artifact.encode nl')));
  Sys.remove path;
  expect_rule "missing file" "DB-IO-01" (Artifact.load Artifact.netlist path)

(* ---------- the store ---------- *)

let test_store_objects () =
  with_db (fun dir db ->
      let bytes = Artifact.tech.Artifact.encode Tech.default in
      let h = Db.put_object db bytes in
      checks "content address" h (Db.hash bytes);
      (match Db.get_object db h with
      | Ok b -> checkb "bytes back" true (String.equal b bytes)
      | Error d -> Alcotest.fail (Diag.to_string d));
      expect_rule "unknown object" "DB-IO-01"
        (Db.get_object db (Db.hash "no such object"));
      (* tampered object files fail their address check... *)
      let path = Filename.concat (Filename.concat dir "objects") (h ^ ".sfo") in
      let oc = open_out_bin path in
      output_string oc "tampered";
      close_out oc;
      expect_rule "tampered object" "DB-CKSUM-01" (Db.get_object db h);
      (* ...and a re-put heals them in place *)
      ignore (Db.put_object db bytes);
      match Db.get_object db h with
      | Ok b -> checkb "healed" true (String.equal b bytes)
      | Error d -> Alcotest.fail (Diag.to_string d))

let test_store_stages () =
  with_db (fun _dir db ->
      let key = Db.stage_key [ "a"; "b" ] in
      checkb "distinct keys" true (key <> Db.stage_key [ "ab"; "" ]);
      checkb "miss" true (Db.get_stage db ~stage:"synth" ~key = None);
      Db.put_stage db ~stage:"synth" ~key
        ~slots:[ ("aqfp0", "h1"); ("report", "h2") ]
        ~scalars:[ ("lines", 3) ];
      match Db.get_stage db ~stage:"synth" ~key with
      | Some (slots, scalars) ->
          checki "slots" 2 (List.length slots);
          checks "slot hash" "h1" (List.assoc "aqfp0" slots);
          checki "scalar" 3 (List.assoc "lines" scalars)
      | None -> Alcotest.fail "stage entry lost")

let test_open_rejects_foreign_dirs () =
  let dir = tmp_dir () in
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "stray.txt") in
  output_string oc "hello";
  close_out oc;
  expect_rule "foreign dir" "DB-DIR-01" (Db.open_ dir);
  rm_rf dir;
  let dir = tmp_dir () in
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "meta") in
  output_string oc "sf_db 99\n";
  close_out oc;
  expect_rule "future db format" "DB-VERSION-01" (Db.open_ dir);
  rm_rf dir

(* ---------- the cached stage graph ---------- *)

let aoi () = Circuits.benchmark "adder8"

let outcome_names staged =
  List.map
    (fun (st, o) ->
      ( Flow.stage_name st,
        match o with Flow.Cached _ -> `Hit | Flow.Computed _ -> `Miss ))
    staged.Flow.outcomes

let test_warm_rerun_all_hits () =
  with_db (fun _dir db ->
      let cold = Flow.run ~check:true ~db (aoi ()) in
      checki "cold misses" 6 (Db.misses db);
      checki "cold hits" 0 (Db.hits db);
      Db.reset_log db;
      let warm = Flow.run ~check:true ~db (aoi ()) in
      checki "warm hits" 6 (Db.hits db);
      checki "warm misses" 0 (Db.misses db);
      checkb "GDS byte-identical" true
        (String.equal (gds_bytes cold.Flow.layout) (gds_bytes warm.Flow.layout));
      checks "check report byte-identical"
        (Check.render_text (Option.get cold.Flow.check_report))
        (Check.render_text (Option.get warm.Flow.check_report));
      checkb "same wirelength" true
        (cold.Flow.routing.Router.wirelength
        = warm.Flow.routing.Router.wirelength);
      (* a database-free run agrees with both *)
      let plain = Flow.run ~check:true (aoi ()) in
      checkb "cache matches plain run" true
        (String.equal (gds_bytes plain.Flow.layout) (gds_bytes warm.Flow.layout)))

let test_param_change_invalidates_suffix () =
  with_db (fun _dir db ->
      ignore (Flow.run ~db (aoi ()));
      Db.reset_log db;
      (* new seed: synthesis is untouched, everything after re-runs *)
      ignore (Flow.run ~db ~seed:7 (aoi ()));
      let log = List.map (fun (s, o, _) -> (s, o)) (Db.outcomes db) in
      checkb "synth hit" true (List.mem ("synth", Db.Hit) log);
      checkb "resyn hit" true (List.mem ("resyn", Db.Hit) log);
      checkb "place recomputed" true (List.mem ("place", Db.Miss) log);
      checkb "route recomputed" true (List.mem ("route", Db.Miss) log);
      checkb "layout recomputed" true (List.mem ("layout", Db.Miss) log);
      Db.reset_log db;
      (* ...and the original seed still hits everything *)
      ignore (Flow.run ~db (aoi ()));
      checki "original seed all hits" 5 (Db.hits db))

let test_partial_run_then_resume () =
  with_db (fun _dir db ->
      (* simulate an interrupted run: stop after placement *)
      (match Flow.run_staged ~db ~to_stage:Flow.Place (aoi ()) with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok staged ->
          checkb "no layout yet" true (staged.Flow.built = None);
          checkb "no result yet" true (staged.Flow.result = None);
          checki "three stages ran" 3 (List.length staged.Flow.outcomes));
      (* resuming finishes from the persisted prefix *)
      match Flow.run_staged ~db ~from_stage:Flow.Place (aoi ()) with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok staged ->
          Alcotest.(check (list (pair string bool)))
            "prefix loaded, suffix computed"
            [
              ("synth", true); ("resyn", true); ("place", true);
              ("route", false); ("layout", false);
            ]
            (List.map
               (fun (s, o) -> (s, o = `Hit))
               (outcome_names staged));
          let r = Option.get staged.Flow.result in
          let plain = Flow.run (aoi ()) in
          checkb "resumed bytes = uninterrupted bytes" true
            (String.equal (gds_bytes r.Flow.layout)
               (gds_bytes plain.Flow.layout)))

let test_from_stage_requires_cached_prefix () =
  with_db (fun _dir db ->
      expect_rule "empty db" "DB-FROM-01"
        (Flow.run_staged ~db ~from_stage:Flow.Route (aoi ())));
  expect_rule "from without db" "DB-RANGE-01"
    (Flow.run_staged ~from_stage:Flow.Place (aoi ()));
  with_db (fun _dir db ->
      expect_rule "from after to" "DB-RANGE-01"
        (Flow.run_staged ~db ~from_stage:Flow.Layout ~to_stage:Flow.Place
           (aoi ())))

let test_corrupt_cache_self_heals () =
  with_db (fun dir db ->
      let cold = Flow.run ~db (aoi ()) in
      (* flip the last byte of every stored object: every load now
         fails its checksum *)
      let objects = Filename.concat dir "objects" in
      Array.iter
        (fun e ->
          let path = Filename.concat objects e in
          let ic = open_in_bin path in
          let b = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
          close_in ic;
          let last = Bytes.length b - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out oc)
        (Sys.readdir objects);
      Db.reset_log db;
      let healed = Flow.run ~db (aoi ()) in
      checkb "recomputed, not crashed" true (Db.misses db > 0);
      checkb "warned about corruption" true (Db.warnings db <> []);
      checkb "bytes as before" true
        (String.equal (gds_bytes cold.Flow.layout) (gds_bytes healed.Flow.layout));
      Db.reset_log db;
      ignore (Flow.run ~db (aoi ()));
      checki "store healed: warm again" 0 (Db.misses db))

(* The stage-key table, as code: perturbing one config field away from
   [Flow.default] must change [key_params] for exactly these stages. *)
let test_key_participation () =
  let d = Flow.default in
  (* names every field, so a new one fails to compile until it is
     added to the table below *)
  let {
    Flow.tech;
    algorithm = _;
    router = _;
    seed = _;
    equiv_engine = _;
    check_tier = _;
    resyn_effort = _;
  } =
    d
  in
  let wider = { tech with Tech.s_min = 2. *. tech.Tech.s_min } in
  (* field, perturbed config, stages it keys when guarded, unguarded *)
  let table =
    Flow.
      [
        ("tech", { d with tech = wider }, [ Place ], [ Place ]);
        ("algorithm", { d with algorithm = Placer.Gordian }, [ Place ],
         [ Place ]);
        ("router", { d with router = Router.Negotiated }, [ Route ], [ Route ]);
        ("seed", { d with seed = 7 }, [ Place ], [ Place ]);
        ( "equiv_engine",
          { d with equiv_engine = `Sat },
          [ Synth; Resyn; Check ],
          [ Check ] );
        ("check_tier", { d with check_tier = Check.Full }, [ Check ],
         [ Check ]);
        ( "resyn_effort",
          { d with resyn_effort = Resyn.Full },
          [ Resyn ],
          [ Resyn ] );
      ]
  in
  List.iter
    (fun (field, c, guarded, unguarded) ->
      List.iter
        (fun (guard, expect) ->
          let changed =
            List.filter
              (fun st ->
                Flow.key_params ~guard c st <> Flow.key_params ~guard d st)
              Flow.stages
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, guard=%b" field guard)
            (List.map Flow.stage_name expect)
            (List.map Flow.stage_name changed))
        [ (true, guarded); (false, unguarded) ])
    table

(* The check report's header names the engine, so a warm rerun under
   another engine must recompute the check stage, not replay the old
   header. *)
let test_engine_change_recomputes_check () =
  let run ?db equiv_engine =
    let config =
      { Flow.default with Flow.equiv_engine; check_tier = Check.Full }
    in
    match Flow.run_staged ~config ?db ~to_stage:Flow.Check (aoi ()) with
    | Ok staged -> staged
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let report staged = Check.render_text (Option.get staged.Flow.checked) in
  with_db (fun _dir db ->
      ignore (run ~db `Auto);
      let warm = run ~db `Sat in
      checkb "check recomputed" true
        (List.assoc "check" (outcome_names warm) = `Miss);
      checkb "header names sat" true
        (List.mem "# engine: sat" (String.split_on_char '\n' (report warm)));
      checks "report = db-free sat run" (report (run `Sat)) (report warm))

let () =
  Alcotest.run "sf_db"
    [
      ( "codec",
        [
          Alcotest.test_case "netlists (all benchmarks)" `Quick
            test_netlist_codec_all_benchmarks;
          Alcotest.test_case "flow artifacts" `Quick test_flow_artifact_codecs;
          Alcotest.test_case "corrupt frames" `Quick test_corrupt_frames;
          Alcotest.test_case "save/load files" `Quick test_save_load_files;
        ] );
      ( "store",
        [
          Alcotest.test_case "objects" `Quick test_store_objects;
          Alcotest.test_case "stages" `Quick test_store_stages;
          Alcotest.test_case "foreign dirs" `Quick test_open_rejects_foreign_dirs;
        ] );
      ( "staged flow",
        [
          Alcotest.test_case "warm rerun all hits" `Quick
            test_warm_rerun_all_hits;
          Alcotest.test_case "param change invalidates suffix" `Quick
            test_param_change_invalidates_suffix;
          Alcotest.test_case "partial run then resume" `Quick
            test_partial_run_then_resume;
          Alcotest.test_case "from needs cached prefix" `Quick
            test_from_stage_requires_cached_prefix;
          Alcotest.test_case "corrupt cache self-heals" `Quick
            test_corrupt_cache_self_heals;
          Alcotest.test_case "key participation" `Quick test_key_participation;
          Alcotest.test_case "engine change recomputes check" `Quick
            test_engine_change_recomputes_check;
        ] );
    ]
