type finding = {
  rule : string;
  severity : Diag.severity;
  path : string;
  line : int;
  col : int;
  message : string;
  snippet : string;
}

type report = {
  findings : finding list;
  errors : int;
  warnings : int;
  suppressed : int;
  baselined : int;
  stale_baseline : string list;
  files : int;
}

(* ---- rule table ---- *)

let rules =
  [
    ("SL-CATCH-01", Diag.Error);
    ("SL-EXIT-01", Diag.Error);
    ("SL-GLOBAL-01", Diag.Error);
    ("SL-HASH-01", Diag.Error);
    ("SL-LABEL-01", Diag.Error);
    ("SL-MARSHAL-01", Diag.Error);
    ("SL-PARSE-01", Diag.Error);
    ("SL-POLY-01", Diag.Warning);
    ("SL-PRINT-01", Diag.Error);
    ("SL-RULEID-01", Diag.Error);
    ("SL-TIME-01", Diag.Error);
  ]

let rule_ids = List.map fst rules

let severity_of rule =
  match List.assoc_opt rule rules with Some s -> s | None -> Diag.Error

(* ---- path scopes ---- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_lib p = starts_with "lib/" p

(* benchmark harnesses are held only to SL-TIME-01 (their timings must
   be wall time, not CPU time summed across domains); SL-PARSE-01 still
   reports a file the timing rule could not see into *)
let in_scope ~rule p =
  (not (starts_with "bench/" p)) || rule = "SL-TIME-01" || rule = "SL-PARSE-01"

(* the libraries that implement flow stages: where the determinism
   contract is strictest (their outputs are cached, proved and
   byte-compared) *)
let stage_dirs =
  [ "lib/absint/"; "lib/check/"; "lib/geom/"; "lib/layout/"; "lib/place/";
    "lib/resyn/"; "lib/route/"; "lib/sat/"; "lib/synth/"; "lib/timing/" ]

let in_stage p = List.exists (fun d -> starts_with d p) stage_dirs

(* presentation modules whose whole contract is stdout (the CLI calls
   them to print the paper tables and reports) *)
let presentation =
  [ "lib/core/report.ml"; "lib/core/chip_report.ml"; "lib/util/table.ml" ]

let wallclock = "lib/util/wallclock.ml"
let codec = "lib/db/codec.ml"

(* ---- SL-RULEID-01 shape ---- *)

let first_segment s =
  match String.index_opt s '-' with
  | Some i -> String.sub s 0 i
  | None -> s

let digit_suffixed s =
  match String.rindex_opt s '-' with
  | None -> false
  | Some i ->
      let last = String.sub s (i + 1) (String.length s - i - 1) in
      last <> "" && String.for_all (fun c -> c >= '0' && c <= '9') last

(* ---- per-file evaluation ---- *)

let parse_structure (src : Sl_source.t) =
  let lb = Lexing.from_string src.Sl_source.text in
  Lexing.set_filename lb src.Sl_source.path;
  match Parse.implementation lb with
  | str -> Ok str
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      Error (loc.Location.loc_start.Lexing.pos_lnum, "syntax error")
  | exception exn -> Error (1, Printexc.to_string exn)

let finding src ~rule ~line ~col fmt =
  Printf.ksprintf
    (fun message ->
      { rule; severity = severity_of rule; path = src.Sl_source.path; line; col;
        message; snippet = Sl_source.snippet src ~line })
    fmt

let eval_site src ~known_ids ~known_prefixes ~sorted_items (s : Sl_scan.site) =
  let p = src.Sl_source.path in
  let f ~rule fmt = finding src ~rule ~line:s.Sl_scan.line ~col:s.Sl_scan.col fmt in
  match s.Sl_scan.fact with
  | Sl_scan.Hashtbl_iter fn ->
      if List.mem s.Sl_scan.item sorted_items then None
      else
        Some
          (f ~rule:"SL-HASH-01"
             "Hashtbl.%s iterates in hash-bucket order and no sort appears in \
              the enclosing definition; order-dependent results break \
              byte-identical reports"
             fn)
  | Sl_scan.Time_call fn ->
      if p = wallclock then None
      else
        Some
          (f ~rule:"SL-TIME-01"
             "%s outside the Wallclock module; time must never reach a stage \
              output or cache key"
             fn)
  | Sl_scan.Marshal_use fn ->
      if p = codec then None
      else
        Some
          (f ~rule:"SL-MARSHAL-01"
             "%s bypasses the versioned Codec frames (lib/db/codec.ml is the \
              only allowed user)"
             fn)
  | Sl_scan.Poly_use fn ->
      if not (in_stage p) then None
      else
        Some
          (f ~rule:"SL-POLY-01"
             "polymorphic %s in a stage library; prefer a monomorphic \
              comparator (Int.compare, String.compare, a record comparator)"
             fn)
  | Sl_scan.Global_mut (name, creator) ->
      if not (in_lib p) then None
      else
        Some
          (f ~rule:"SL-GLOBAL-01"
             "module-level mutable state `%s` (%s); register it in the \
              determinism-contract table (sl-ignore with a reason) or move it \
              into the call graph"
             name creator)
  | Sl_scan.Catch_all ->
      Some
        (f ~rule:"SL-CATCH-01"
           "catch-all handler drops the exception; match the exceptions you \
            mean or re-raise")
  | Sl_scan.Unlabeled_parallel fn ->
      Some
        (f ~rule:"SL-LABEL-01"
           "Parallel.%s call site carries no ~label; sanitizer findings and \
            the call-site inventory cannot name it"
           fn)
  | Sl_scan.Print_call fn ->
      if (not (in_lib p)) || List.mem p presentation then None
      else
        Some
          (f ~rule:"SL-PRINT-01"
             "%s writes to stdout from a library; return a string or take a \
              formatter"
             fn)
  | Sl_scan.Exit_call ->
      if not (in_lib p) then None
      else
        Some
          (f ~rule:"SL-EXIT-01"
             "exit from a library preempts the CLI's error handling and exit \
              codes")
  | Sl_scan.Rule_string id ->
      if List.mem id known_ids then None
      else if digit_suffixed id || List.mem (first_segment id) known_prefixes
      then
        Some
          (f ~rule:"SL-RULEID-01"
             "diagnostic id %S has no entry in the Rules registry" id)
      else None
  | Sl_scan.Sort_call -> None

let check_source ~known_ids (src : Sl_source.t) =
  let known_prefixes =
    List.sort_uniq String.compare (List.map first_segment known_ids)
  in
  let raw =
    match parse_structure src with
    | Error (line, what) ->
        [ finding src ~rule:"SL-PARSE-01" ~line ~col:0
            "file does not parse (%s); nothing in it can be checked" what ]
    | Ok str ->
        let sites = Sl_scan.scan str in
        let sorted_items =
          List.filter_map
            (fun (s : Sl_scan.site) ->
              match s.Sl_scan.fact with
              | Sl_scan.Sort_call -> Some s.Sl_scan.item
              | _ -> None)
            sites
          |> List.sort_uniq Int.compare
        in
        List.filter_map
          (eval_site src ~known_ids ~known_prefixes ~sorted_items)
          sites
  in
  let raw = List.filter (fun fd -> in_scope ~rule:fd.rule fd.path) raw in
  let supp = ref 0 in
  let kept =
    List.filter
      (fun fd ->
        if Sl_source.suppressed src ~rule:fd.rule ~line:fd.line then begin
          incr supp;
          false
        end
        else true)
      raw
  in
  (kept, !supp)

(* ---- baseline ---- *)

let parse_baseline_line ln =
  let ln = String.trim ln in
  if ln = "" || ln.[0] = '#' then None
  else
    match List.filter (fun s -> s <> "") (String.split_on_char ' ' ln) with
    | [ rule; at ] -> (
        match String.rindex_opt at ':' with
        | None -> None
        | Some i -> (
            let path = String.sub at 0 i
            and lno = String.sub at (i + 1) (String.length at - i - 1) in
            match int_of_string_opt lno with
            | Some l -> Some (rule, path, l)
            | None -> None))
    | _ -> None

let baseline_lines findings =
  List.filter_map
    (fun fd ->
      if fd.severity = Diag.Error then
        Some (Printf.sprintf "%s %s:%d" fd.rule fd.path fd.line)
      else None)
    findings

let load_baseline path =
  if not (Sys.file_exists path) then Ok []
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text ->
        Ok
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' text))
    | exception Sys_error msg -> Error msg

(* ---- driver ---- *)

let compare_finding a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let discover root =
  let out = ref [] in
  let rec walk rel =
    match Sys.readdir (Filename.concat root rel) with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun e ->
            let r = rel ^ "/" ^ e in
            if Sys.is_directory (Filename.concat root r) then walk r
            else if Filename.check_suffix e ".ml" then out := r :: !out)
          entries
    | exception Sys_error _ -> ()
  in
  walk "lib";
  walk "bin";
  walk "bench";
  List.sort String.compare !out

let run ~known_ids ?(baseline = []) ~root () =
  if not (Sys.is_directory (Filename.concat root "lib")) then
    Error (Printf.sprintf "%s: no lib/ directory to analyze" root)
  else begin
    let files = discover root in
    let suppressed = ref 0 in
    let all =
      List.concat_map
        (fun rel ->
          match Sl_source.load ~root ~rel with
          | Error msg ->
              [ { rule = "SL-PARSE-01"; severity = Diag.Error; path = rel;
                  line = 1; col = 0;
                  message = Printf.sprintf "cannot read file: %s" msg;
                  snippet = "" } ]
          | Ok src ->
              let kept, supp = check_source ~known_ids src in
              suppressed := !suppressed + supp;
              kept)
        files
    in
    let entries = List.filter_map parse_baseline_line baseline in
    let used = Array.make (List.length entries) false in
    let baselined = ref 0 in
    let kept =
      List.filter
        (fun fd ->
          let hit = ref false in
          List.iteri
            (fun i (rule, path, line) ->
              if (not !hit) && rule = fd.rule && path = fd.path && line = fd.line
              then begin
                hit := true;
                used.(i) <- true
              end)
            entries;
          if !hit then incr baselined;
          not !hit)
        all
    in
    let stale =
      List.filteri (fun i _ -> not used.(i)) entries
      |> List.map (fun (rule, path, line) ->
             Printf.sprintf "%s %s:%d" rule path line)
    in
    let findings = List.sort compare_finding kept in
    Ok
      {
        findings;
        errors = List.length (List.filter (fun f -> f.severity = Diag.Error) findings);
        warnings =
          List.length (List.filter (fun f -> f.severity = Diag.Warning) findings);
        suppressed = !suppressed;
        baselined = !baselined;
        stale_baseline = stale;
        files = List.length files;
      }
  end

(* ---- rendering ---- *)

let to_diag fd =
  let mk =
    match fd.severity with
    | Diag.Error -> Diag.error
    | Diag.Warning -> Diag.warning
    | Diag.Info -> Diag.info
  in
  mk
    ~witness:(if fd.snippet = "" then [] else [ fd.snippet ])
    ~rule:fd.rule Diag.Global "%s:%d:%d: %s" fd.path fd.line fd.col fd.message

let render_text fd = Diag.to_string (to_diag fd)
let render_json fd = Diag.to_json (to_diag fd)

let summary r =
  Printf.sprintf
    "# mlint: %d file(s), %d finding(s): %d error(s), %d warning(s); %d \
     suppressed, %d baselined"
    r.files
    (List.length r.findings)
    r.errors r.warnings r.suppressed r.baselined
