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

(* full resynthesis, so the resyn report's passes and CEC stats are
   non-empty *)
let full_result =
  lazy
    (Flow.run ~check:true ~resyn_effort:Resyn.Full
       (Circuits.benchmark "adder8"))

let md5 s = Digest.to_hex (Digest.string s)

(* one diagnostic per severity and location variant, with and without a
   witness: the flow's own lists are empty on a clean design *)
let sample_diags =
  [
    Diag.error ~rule:"DB-TEST-01" (Diag.Node 3) "node %d" 3;
    Diag.warning ~witness:[ "a"; "b -> c" ] ~rule:"DB-TEST-02" (Diag.Net 7)
      "net";
    Diag.info ~rule:"DB-TEST-03" (Diag.Row 2) "row";
    Diag.error ~rule:"DB-TEST-04" (Diag.At (1.5, -0.25)) "at";
    Diag.warning ~rule:"DB-TEST-05" Diag.Global "global";
  ]

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

let test_report_codecs () =
  let r = Lazy.force full_result in
  let rr = r.Flow.resyn_report in
  checkb "resyn passes recorded" true (rr.Resyn.passes <> []);
  checkb "resyn CEC windows recorded" true (rr.Resyn.cec.Resyn.windows > 0);
  let rr' = roundtrip "resyn report" Artifact.resyn_report rr in
  checki "resyn jj after" rr.Resyn.jj_after rr'.Resyn.jj_after;
  let ds = roundtrip "diags" Artifact.diags sample_diags in
  checks "diags render identically"
    (String.concat "\n" (List.map Diag.to_string sample_diags))
    (String.concat "\n" (List.map Diag.to_string ds));
  ignore (roundtrip "drc diags" Artifact.drc sample_diags);
  let rep = Option.get r.Flow.check_report in
  ignore
    (roundtrip "check report with diags" Artifact.check_report
       { rep with Check.diags = sample_diags })

(* Round-trips cannot see a symmetric format change (writer and reader
   edited alike), which would orphan every existing database. These
   MD5s pin the bytes of every artifact kind on one fixed run; a change
   here needs a codec version bump. *)
let test_codec_bytes_pinned () =
  let r = Lazy.force full_result in
  let rep = Option.get r.Flow.check_report in
  (* wall-clock fields zeroed, as [superflow sanitize] does *)
  let rep =
    {
      rep with
      Check.stats =
        List.map (fun s -> { s with Check.seconds = 0.0 }) rep.Check.stats;
    }
  in
  let enc (type a) (c : a Artifact.codec) (v : a) =
    (c.Artifact.kind, md5 (c.Artifact.encode v))
  in
  let manifest =
    with_db (fun dir db ->
        let key = Db.stage_key [ "pinned" ] in
        Db.put_stage db ~stage:"place" ~key
          ~slots:[ ("aqfp", "h1"); ("problem", "h2") ]
          ~scalars:[ ("buffer_lines", 3) ];
        let path =
          Filename.concat
            (Filename.concat dir "stages")
            ("place." ^ key ^ ".sfm")
        in
        let ic = open_in_bin path in
        let bytes = really_input_string ic (in_channel_length ic) in
        close_in ic;
        ("manifest", md5 bytes))
  in
  let got =
    [
      enc Artifact.netlist r.Flow.aqfp_netlist;
      enc Artifact.tech Tech.default;
      enc Artifact.problem r.Flow.problem;
      enc Artifact.placement { r.Flow.placement with Placer.runtime_s = 0.0 };
      enc Artifact.routing { r.Flow.routing with Router.runtime_s = 0.0 };
      enc Artifact.layout r.Flow.layout;
      enc Artifact.sta r.Flow.sta;
      enc Artifact.energy r.Flow.energy;
      enc Artifact.synth_report r.Flow.synth_report;
      enc Artifact.resyn_report r.Flow.resyn_report;
      enc Artifact.check_report rep;
      enc Artifact.drc r.Flow.violations;
      enc Artifact.diags sample_diags;
      manifest;
    ]
  in
  Alcotest.(check (list (pair string string)))
    "MD5 per artifact kind"
    [
      ("netlist", "2ac2f635682b4716fef388bcd6b32b59");
      ("tech", "a02a6ea892a7a3eefa35c6b2e5ebba95");
      ("problem", "4a8b2b38f8f093f98153aea62d328417");
      ("placement", "af124cacfffe1703a608f24b9f6ee825");
      ("routing", "383384b31a15464ec1a3e1963b607d2c");
      ("layout", "dbfa66bc082bc6634ca20cf842bb8937");
      ("sta", "f440db1b9926600f59ef44a5e096f6a8");
      ("energy", "df5fedbdb09625ae875012ed2ea5c60f");
      ("synth-report", "fe85a659a1886976625a9d6a88040b4f");
      ("resyn-report", "38e577dfdf5c48d33d054f708c99d2f7");
      ("check-report", "b3cbca77aed1933717ca12777b26c785");
      ("drc", "728f124c5fcee59ce1024232a594158a");
      ("diags", "e2a585bbea5a88e8b4adc5eb59daeff9");
      ("manifest", "9f8c883fedf577dbd30aefc05b7e13a4");
    ]
    got


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
  let codec = Artifact.netlist in
  let load () = Result.bind (Codec.load_file path) codec.Artifact.decode in
  Codec.save_file path (codec.Artifact.encode nl);
  (match load () with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok nl' ->
      checkb "file round-trip" true
        (String.equal
           (Artifact.netlist.Artifact.encode nl)
           (Artifact.netlist.Artifact.encode nl')));
  Sys.remove path;
  expect_rule "missing file" "DB-IO-01" (load ())

(* hand-built payloads, one field at a time *)
let i64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

let u8 n = String.make 1 (Char.chr n)
let str s = i64 (String.length s) ^ s

let expect_parse name (codec : 'a Artifact.codec) parts =
  let frame =
    Codec.seal ~kind:codec.Artifact.kind ~version:codec.Artifact.version
      (String.concat "" parts)
  in
  match codec.Artifact.decode frame with
  | Ok _ -> Alcotest.fail (name ^ ": expected a structured error")
  | Error d ->
      checks name "DB-PARSE-01" d.Diag.rule;
      d.Diag.message

(* every tagged variant refuses the first unknown tag, a netlist its
   out-of-range fan-ins, and a string a length that would overflow the
   bounds check *)
let test_bad_payloads () =
  let diag_head = [ i64 1; str "R" ] in
  ignore (expect_parse "gate kind 14" Artifact.netlist [ i64 1; u8 14 ]);
  ignore
    (expect_parse "loc 5" Artifact.diags (diag_head @ [ u8 0; u8 5 ]));
  ignore (expect_parse "placer 3" Artifact.placement [ u8 3 ]);
  ignore (expect_parse "severity 3" Artifact.diags (diag_head @ [ u8 3 ]));
  ignore (expect_parse "effort 3" Artifact.resyn_report [ u8 3 ]);
  ignore
    (expect_parse "fanin out of range" Artifact.netlist
       [ i64 1; u8 4; i64 1; i64 5; u8 0; i64 0 ]);
  let msg =
    expect_parse "string length max_int" Artifact.diags
      [ i64 1; i64 max_int; "R" ]
  in
  checkb "length overflow reads as truncation" true
    (List.mem "truncated" (String.split_on_char ' ' msg))

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

(* a path whose parent is a regular file cannot be created: a
   structured error, not an escaping Unix exception *)
let test_open_uncreatable_dir () =
  let file = Filename.temp_file "sfdb_file" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      expect_rule "parent is a file" "DB-IO-01"
        (Db.open_ (Filename.concat (Filename.concat file "sub") "db")))

(* a failed rename (onto a non-empty directory) leaves no temp file *)
let test_save_file_cleans_up () =
  let dir = tmp_dir () in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let target = Filename.concat dir "target" in
      Sys.mkdir target 0o755;
      Out_channel.with_open_bin (Filename.concat target "inside") (fun _ -> ());
      (match Codec.save_file target "bytes" with
      | () -> Alcotest.fail "renamed onto a non-empty directory"
      | exception Sys_error _ -> ());
      Alcotest.(check (array string)) "only the target left" [| "target" |]
        (Sys.readdir dir))

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
   [Flow.default] must change [key_params] for exactly these stages,
   and every stage's key must carry its version. *)
let test_key_participation () =
  let d = Flow.default in
  (* names every field, so a new one fails to compile until it is
     added to the table below *)
  let {
    Flow.tech;
    algorithm = _;
    router = _;
    seed = _;
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
    table;
  (* each stage's key carries its version right after its name, ahead
     of the inputs and the config parts *)
  Alcotest.(check (list string))
    "stage versions" [ "1"; "1"; "1"; "2"; "1"; "2" ]
    (List.map Flow.stage_version Flow.stages);
  List.iter
    (fun st ->
      List.iter
        (fun guard ->
          match Flow.key_parts ~guard d st ~inputs:[ "in" ] with
          | _graph :: name :: version :: rest ->
              Alcotest.(check (list string))
                (Flow.stage_name st ^ " key parts")
                ([ Flow.stage_name st; Flow.stage_version st; "in" ]
                @ Flow.key_params ~guard d st)
                (name :: version :: rest)
          | _ -> Alcotest.fail "key too short")
        [ true; false ])
    Flow.stages

(* The check report's header names the tier, so a warm rerun under
   another tier must recompute the check stage, not replay the old
   header. *)
let test_tier_change_recomputes_check () =
  let run ?db check_tier =
    let config = { Flow.default with Flow.check_tier } in
    match Flow.run_staged ~config ?db ~to_stage:Flow.Check (aoi ()) with
    | Ok staged -> staged
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let report staged = Check.render_text (Option.get staged.Flow.checked) in
  with_db (fun _dir db ->
      ignore (run ~db Check.Fast);
      let warm = run ~db Check.Full in
      checkb "check recomputed" true
        (List.assoc "check" (outcome_names warm) = `Miss);
      checkb "header names full" true
        (List.mem "# tier: full" (String.split_on_char '\n' (report warm)));
      checks "report = db-free full run" (report (run Check.Full))
        (report warm))

(* ---------- the proof log ---------- *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

let proof_log dir = Filename.concat dir "proofs.sfp"

let reopen dir =
  match Db.open_ dir with Ok db -> db | Error d -> Alcotest.fail (Diag.to_string d)

let key i = Printf.sprintf "key-%d" i
(* like a DRC tile verdict, a sealed frame of its own: a reader that
   resyncs on the magic meets it inside the damaged frame *)
let verdict i = Codec.seal ~kind:"verdict" ~version:1 (Printf.sprintf "%03d" i)

(* which of keys 0..n-1 hit with their own verdict *)
let hits db n =
  List.init n (fun i -> Db.find_proof db ~key:(key i) = Some (verdict i))

let put_all db n =
  for i = 0 to n - 1 do
    Db.put_proof db ~key:(key i) (verdict i)
  done;
  Db.flush db

let rules db = List.map (fun d -> d.Diag.rule) (Db.warnings db)

let test_proof_log_flipped_byte () =
  with_db (fun dir db ->
      let n = 20 in
      put_all db n;
      let bytes = read_bytes (proof_log dir) in
      (* equal-length frames: flip a byte of frame 10's payload, past
         the magic of the verdict frame inside it *)
      let len = String.length bytes / n in
      let b = Bytes.of_string bytes in
      let at = (10 * len) + len - 20 in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
      write_bytes (proof_log dir) (Bytes.to_string b);
      let db = reopen dir in
      Alcotest.(check (list bool)) "only frame 10 lost"
        (List.init n (fun i -> i <> 10))
        (hits db n);
      Alcotest.(check (list string)) "one warning" [ "DB-CKSUM-01" ] (rules db);
      (* the caller recomputes it; the next flush appends it again and
         drops the damaged frame *)
      Db.put_proof db ~key:(key 10) (verdict 10);
      Db.flush db;
      let db = reopen dir in
      Alcotest.(check (list bool)) "all hit" (List.init n (fun _ -> true)) (hits db n);
      Alcotest.(check (list string)) "healed" [] (rules db);
      checki "log size" (n * len) (String.length (read_bytes (proof_log dir))))

let test_proof_log_torn_tail () =
  with_db (fun dir db ->
      let n = 5 in
      put_all db n;
      let bytes = read_bytes (proof_log dir) in
      let len = String.length bytes / n in
      (* cut inside the last frame's payload, then inside its header *)
      List.iter
        (fun cut ->
          write_bytes (proof_log dir) (String.sub bytes 0 (String.length bytes - cut));
          let db = reopen dir in
          Alcotest.(check (list bool)) "last frame lost"
            (List.init n (fun i -> i < n - 1))
            (hits db n);
          Alcotest.(check (list string)) "one warning" [ "DB-TRUNC-01" ] (rules db))
        [ 7; len - 5 ];
      let db = reopen dir in
      ignore (hits db n);
      Db.put_proof db ~key:(key (n - 1)) (verdict (n - 1));
      Db.flush db;
      let db = reopen dir in
      Alcotest.(check (list bool)) "all hit after re-append"
        (List.init n (fun _ -> true)) (hits db n);
      Alcotest.(check (list string)) "healed" [] (rules db))

let test_proof_log_duplicate_key () =
  with_db (fun dir db ->
      Db.put_proof db ~key:"k" "equal";
      Db.put_proof db ~key:"k" "equal";
      Db.flush db;
      let db = reopen dir in
      checkb "hit" true (Db.find_proof db ~key:"k" = Some "equal");
      Db.put_proof db ~key:"k" "diff";
      checkb "pending verdict seen" true (Db.find_proof db ~key:"k" = Some "diff");
      Db.flush db;
      let db = reopen dir in
      checkb "later verdict wins" true (Db.find_proof db ~key:"k" = Some "diff");
      checkb "no warnings" true (Db.warnings db = []))

(* A database from before the log kept one manifest per verdict under
   the "proof" stage. Its stage entries still hit; the old proof files
   are never read. *)
let test_pre_log_database () =
  with_db (fun dir db ->
      let run db =
        match Flow.run_staged ~db ~to_stage:Flow.Check (aoi ()) with
        | Ok staged -> staged
        | Error d -> Alcotest.fail (Diag.to_string d)
      in
      let cold = run db in
      Sys.remove (proof_log dir);
      let h = Db.put_object db "equal" in
      Db.put_stage db ~stage:"proof" ~key:(Db.hash "old-key")
        ~slots:[ ("verdict", h) ] ~scalars:[];
      let db = reopen dir in
      let warm = run db in
      Alcotest.(check (list (pair string bool)))
        "every stage hits"
        (List.map (fun (s, _) -> (s, true)) (outcome_names cold))
        (List.map (fun (s, o) -> (s, o = `Hit)) (outcome_names warm));
      checkb "no warnings" true (warm.Flow.db_warnings = []);
      checkb "old proofs not read" true (Db.find_proof db ~key:"old-key" = None);
      checks "format stamp" "sf_db 1\n" (read_bytes (Filename.concat dir "meta")))

(* [bench/perf] keeps every pass's handle: after a stage is stored the
   handle must hold neither the verdict index nor the pending frames *)
let test_handle_retains_nothing () =
  with_db (fun _dir db ->
      let words () = Obj.reachable_words (Obj.repr db) in
      let fresh = words () in
      for i = 0 to 499 do
        Db.put_proof db ~key:(key i) (verdict i)
      done;
      ignore (hits db 500);
      checkb "index held while proving" true (words () > fresh + 5000);
      Db.put_stage db ~stage:"check" ~key:(Db.stage_key [ "k" ]) ~slots:[]
        ~scalars:[];
      checki "nothing held after put_stage" fresh (words ());
      checkb "flushed" true (hits db 500 = List.init 500 (fun _ -> true)))

let () =
  Alcotest.run "sf_db"
    [
      ( "codec",
        [
          Alcotest.test_case "netlists (all benchmarks)" `Quick
            test_netlist_codec_all_benchmarks;
          Alcotest.test_case "flow artifacts" `Quick test_flow_artifact_codecs;
          Alcotest.test_case "report artifacts" `Quick test_report_codecs;
          Alcotest.test_case "codec bytes pinned" `Quick test_codec_bytes_pinned;
          Alcotest.test_case "bad payloads" `Quick test_bad_payloads;
          Alcotest.test_case "corrupt frames" `Quick test_corrupt_frames;
          Alcotest.test_case "save/load files" `Quick test_save_load_files;
        ] );
      ( "store",
        [
          Alcotest.test_case "objects" `Quick test_store_objects;
          Alcotest.test_case "stages" `Quick test_store_stages;
          Alcotest.test_case "foreign dirs" `Quick test_open_rejects_foreign_dirs;
          Alcotest.test_case "uncreatable dir" `Quick test_open_uncreatable_dir;
          Alcotest.test_case "save_file cleans up" `Quick test_save_file_cleans_up;
        ] );
      ( "proof log",
        [
          Alcotest.test_case "flipped byte" `Quick test_proof_log_flipped_byte;
          Alcotest.test_case "torn tail" `Quick test_proof_log_torn_tail;
          Alcotest.test_case "duplicate key" `Quick test_proof_log_duplicate_key;
          Alcotest.test_case "pre-log database" `Quick test_pre_log_database;
          Alcotest.test_case "handle retains nothing" `Quick
            test_handle_retains_nothing;
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
          Alcotest.test_case "tier change recomputes check" `Quick
            test_tier_change_recomputes_check;
        ] );
    ]
