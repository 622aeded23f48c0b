(* Content-addressed artifact store + stage-cache manifests. *)

type outcome = Hit | Miss

type t = {
  dir : string;
  mutable log : (string * outcome * float) list; (* reversed *)
  mutable warns : Diag.t list; (* reversed *)
  pending : Buffer.t; (* sealed proof frames not yet in the log *)
  mutable index : (string, string) Hashtbl.t option;
      (* key MD5 -> verdict over the log and [pending]: built by the
         first lookup after a flush, dropped by the next flush *)
  mutable heal : bool; (* the log has a damaged stretch to drop *)
}

let handle dir =
  { dir; log = []; warns = []; pending = Buffer.create 256; index = None; heal = false }

let format_stamp = "sf_db 1\n"

let ( / ) = Filename.concat

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ dir =
  let meta = dir / "meta" in
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (Codec.err ~rule:"DB-DIR-01" "%s exists and is not a directory" dir)
  else if Sys.file_exists meta then begin
    match Codec.load_file meta with
    | Error _ as e -> e |> Result.map (fun _ -> assert false)
    | Ok stamp ->
        if stamp <> format_stamp then
          Error
            (Codec.err ~rule:"DB-VERSION-01"
               "%s: unsupported database format %S" dir (String.trim stamp))
        else Ok (handle dir)
  end
  else if
    Sys.file_exists dir && Sys.readdir dir <> [||]
  then
    Error
      (Codec.err ~rule:"DB-DIR-01"
         "%s is a non-empty directory without an sf_db format stamp" dir)
  else
    match
      mkdir_p (dir / "objects");
      mkdir_p (dir / "stages");
      Codec.save_file meta format_stamp
    with
    | () -> Ok (handle dir)
    | exception Unix.Unix_error (e, _, path) ->
        Error
          (Codec.err ~rule:"DB-IO-01" "cannot create database %s: %s: %s" dir
             path (Unix.error_message e))
    | exception Sys_error msg ->
        Error
          (Codec.err ~rule:"DB-IO-01" "cannot create database %s: %s" dir msg)

let dir t = t.dir

let hash bytes = Digest.to_hex (Digest.string bytes)

let stage_key parts =
  let b = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  hash (Buffer.contents b)

let object_path t h = t.dir / "objects" / (h ^ ".sfo")

let put_object t bytes =
  let h = hash bytes in
  let path = object_path t h in
  (* an existing file only counts if its bytes still match the content
     address — this is what heals an object a previous run (or a
     crash) left corrupt *)
  let intact =
    Sys.file_exists path
    && match Codec.load_file path with Ok b -> hash b = h | Error _ -> false
  in
  if not intact then Codec.save_file path bytes;
  h

let get_object t h =
  match Codec.load_file (object_path t h) with
  | Error d ->
      Error
        { d with Diag.message = Printf.sprintf "object %s: %s" h d.Diag.message }
  | Ok bytes ->
      if hash bytes <> h then
        Error
          (Codec.err ~rule:"DB-CKSUM-01"
             "object %s does not match its content address" h)
      else Ok bytes

(* manifests are plain artifacts of their own kind *)

let manifest_path t ~stage ~key = t.dir / "stages" / (stage ^ "." ^ key ^ ".sfm")

let manifest =
  Codec.(pair (list (pair string string)) (list (pair string int)))

let warn t d = t.warns <- d :: t.warns
let warnings t = List.rev t.warns

(* ---- the proof log ----

   [proofs.sfp] is a sequence of sealed "proof" frames, each one
   (MD5 of the caller's key, verdict). Frames are only ever appended,
   one write per flush; reading resyncs after a damaged stretch (a
   flipped byte, a torn tail), so one bad frame costs one verdict,
   never the log. *)

let proof_log t = t.dir / "proofs.sfp"

let proof = Codec.(pair string string)
let scan = Codec.scan ~kind:"proof" ~version:1 proof

let read_log t =
  let path = proof_log t in
  if not (Sys.file_exists path) then ""
  else
    match Codec.load_file path with
    | Ok bytes -> bytes
    | Error d ->
        warn t { d with Diag.severity = Diag.Warning };
        ""

let index t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = Hashtbl.create 1024 in
      let frame _ _ (key, verdict) = Hashtbl.replace ix key verdict in
      scan (read_log t) ~frame ~damage:(fun pos d ->
          t.heal <- true;
          warn t
            {
              d with
              Diag.severity = Diag.Warning;
              message =
                Printf.sprintf
                  "proof log: %s at byte %d; skipped to the next frame"
                  d.Diag.message pos;
            });
      scan (Buffer.contents t.pending) ~frame ~damage:(fun _ _ -> ());
      t.index <- Some ix;
      ix

let flush t =
  if t.heal then begin
    (* rewrite the log without its damaged stretches *)
    let bytes = read_log t in
    let b = Buffer.create (String.length bytes + Buffer.length t.pending) in
    scan bytes
      ~frame:(fun pos len _ -> Buffer.add_substring b bytes pos len)
      ~damage:(fun _ _ -> ());
    Buffer.add_buffer b t.pending;
    Codec.save_file (proof_log t) (Buffer.contents b);
    t.heal <- false
  end
  else if Buffer.length t.pending > 0 then
    Out_channel.with_open_gen
      [ Open_wronly; Open_append; Open_creat; Open_binary ]
      0o644 (proof_log t)
      (fun oc -> Buffer.output_buffer oc t.pending);
  Buffer.reset t.pending;
  t.index <- None

let put_proof t ~key verdict =
  let key = Digest.string key in
  Buffer.add_string t.pending
    (Codec.encode ~kind:"proof" ~version:1 proof (key, verdict));
  Option.iter (fun ix -> Hashtbl.replace ix key verdict) t.index

let find_proof t ~key = Hashtbl.find_opt (index t) (Digest.string key)

let put_stage t ~stage ~key ~slots ~scalars =
  flush t;
  Codec.save_file
    (manifest_path t ~stage ~key)
    (Codec.encode ~kind:"manifest" ~version:1 manifest (slots, scalars))

let get_stage t ~stage ~key =
  let path = manifest_path t ~stage ~key in
  if not (Sys.file_exists path) then None
  else
    match
      Result.bind (Codec.load_file path)
        (Codec.decode ~kind:"manifest" ~version:1 manifest)
    with
    | Ok entry -> Some entry
    | Error d ->
        (* self-healing: report, then let the stage recompute and
           overwrite the bad entry *)
        warn t
          {
            d with
            Diag.severity = Diag.Warning;
            message =
              Printf.sprintf "stage %s: corrupt cache entry ignored (%s)" stage
                d.Diag.message;
          };
        None

let record t stage outcome seconds =
  t.log <- (stage, outcome, seconds) :: t.log

let outcomes t = List.rev t.log

let hits t =
  List.length (List.filter (fun (_, o, _) -> o = Hit) t.log)

let misses t =
  List.length (List.filter (fun (_, o, _) -> o = Miss) t.log)

let reset_log t =
  t.log <- [];
  t.warns <- []
