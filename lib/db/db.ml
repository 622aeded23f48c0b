(* Content-addressed artifact store + stage-cache manifests. *)

type outcome = Hit | Miss

type t = {
  dir : string;
  mutable log : (string * outcome * float) list; (* reversed *)
  mutable warns : Diag.t list; (* reversed *)
}

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
        else Ok { dir; log = []; warns = [] }
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
    | () -> Ok { dir; log = []; warns = [] }
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

let put_stage t ~stage ~key ~slots ~scalars =
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

(* Proof-verdict memos: tiny manifests under the "proof" stage whose
   single slot points at the verdict bytes in the object store (all
   "equal" proofs share one object). The caller's key is an arbitrary
   content-derived string; it is hashed into the manifest name. *)

let put_proof t ~key verdict =
  let h = put_object t verdict in
  put_stage t ~stage:"proof" ~key:(hash key) ~slots:[ ("verdict", h) ]
    ~scalars:[]

let find_proof t ~key =
  match get_stage t ~stage:"proof" ~key:(hash key) with
  | None -> None
  | Some (slots, _) -> (
      match List.assoc_opt "verdict" slots with
      | None -> None
      | Some h -> (
          match get_object t h with Ok v -> Some v | Error _ -> None))
