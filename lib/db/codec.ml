(* Binary primitives + the sealed artifact frame. Everything is
   fixed-width little-endian so encoding is deterministic and
   re-encoding a decoded value reproduces the input bytes exactly. *)

let err ~rule fmt = Diag.error ~rule Diag.Global fmt

(* ---- descriptions ---- *)

type writer = Buffer.t
type reader = { buf : string; mutable pos : int; limit : int }
type 'a t = { write : writer -> 'a -> unit; read : reader -> 'a }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* claim the next [n] payload bytes, returning their offset; the test
   is [n > limit - pos], not [pos + n > limit], so that a huge length
   field cannot overflow past it *)
let take r n =
  if n < 0 || n > r.limit - r.pos then
    corrupt "payload truncated at byte %d (need %d of %d)" r.pos n r.limit;
  let at = r.pos in
  r.pos <- at + n;
  at

let u8 =
  {
    write =
      (fun b v ->
        if v < 0 || v > 255 then invalid_arg "Codec.u8";
        Buffer.add_uint8 b v);
    read = (fun r -> Char.code r.buf.[take r 1]);
  }

let bool =
  {
    write = (fun b v -> u8.write b (if v then 1 else 0));
    read =
      (fun r ->
        match u8.read r with
        | 0 -> false
        | 1 -> true
        | v -> corrupt "bad bool byte %d" v);
  }

let int =
  {
    write = (fun b v -> Buffer.add_int64_le b (Int64.of_int v));
    read = (fun r -> Int64.to_int (String.get_int64_le r.buf (take r 8)));
  }

let f64 =
  {
    write = (fun b v -> Buffer.add_int64_le b (Int64.bits_of_float v));
    read =
      (fun r -> Int64.float_of_bits (String.get_int64_le r.buf (take r 8)));
  }

let string =
  {
    write =
      (fun b s ->
        int.write b (String.length s);
        Buffer.add_string b s);
    read =
      (fun r ->
        let n = int.read r in
        String.sub r.buf (take r n) n);
  }

let option c =
  {
    write =
      (fun b -> function
        | None -> bool.write b false
        | Some v ->
            bool.write b true;
            c.write b v);
    read = (fun r -> if bool.read r then Some (c.read r) else None);
  }

(* every element is at least one byte, so a length beyond the
   remaining payload can only come from corruption — checking here
   keeps a flipped length byte from attempting a giant allocation *)
let count r =
  let n = int.read r in
  if n < 0 || n > r.limit - r.pos then corrupt "bad collection length %d" n;
  n

let sequence length iter init c =
  {
    write =
      (fun b s ->
        int.write b (length s);
        iter (c.write b) s);
    read = (fun r -> init (count r) (fun _ -> c.read r));
  }

let array c = sequence Array.length Array.iter Array.init c
let list c = sequence List.length List.iter List.init c

let pair ca cb =
  {
    write =
      (fun b (x, y) ->
        ca.write b x;
        cb.write b y);
    read =
      (fun r ->
        let x = ca.read r in
        (x, cb.read r));
  }

let map of_a to_a c =
  { write = (fun b v -> c.write b (to_a v)); read = (fun r -> of_a (c.read r)) }

(* a case writes its tag and payload when the value is its constructor *)
type 'a case = { tag : int; put : writer -> 'a -> bool; get : reader -> 'a }

let case tag c inject project =
  {
    tag;
    put =
      (fun b x ->
        match project x with
        | None -> false
        | Some p ->
            u8.write b tag;
            c.write b p;
            true);
    get = (fun r -> inject (c.read r));
  }

let const tag v =
  case tag
    { write = (fun _ () -> ()); read = (fun _ -> ()) }
    (fun () -> v)
    (fun x -> if x = v then Some () else None)

let enum what cases =
  {
    write =
      (fun b v ->
        if not (List.exists (fun c -> c.put b v) cases) then
          invalid_arg ("Codec.enum " ^ what));
    read =
      (fun r ->
        let t = u8.read r in
        match List.find_opt (fun c -> c.tag = t) cases with
        | Some c -> c.get r
        | None -> corrupt "unknown %s tag %d" what t);
  }

(* a record under construction: the fields so far, and the constructor
   applied to as many of them as have been read *)
type ('r, 'c) fields = { fwrite : writer -> 'r -> unit; fread : reader -> 'c }

let record make = { fwrite = (fun _ _ -> ()); fread = (fun _ -> make) }

let ( |+ ) fs (c, get) =
  {
    fwrite =
      (fun b v ->
        fs.fwrite b v;
        c.write b (get v));
    fread =
      (fun r ->
        let k = fs.fread r in
        k (c.read r));
  }

let close fs = { write = fs.fwrite; read = fs.fread }

(* ---- container frames ---- *)

let magic = "SFDB"

let seal ~kind ~version payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b (String.length kind);
  Buffer.add_string b kind;
  Buffer.add_uint16_le b version;
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

let split bytes =
  let total = String.length bytes in
  if total < 4 || String.sub bytes 0 4 <> magic then
    Error (err ~rule:"DB-MAGIC-01" "not an sf_db artifact (bad magic)")
  else if total < 6 then
    Error (err ~rule:"DB-TRUNC-01" "artifact truncated inside the header")
  else
    let klen = String.get_uint16_le bytes 4 in
    let header = 4 + 2 + klen + 2 + 8 in
    if total < header then
      Error (err ~rule:"DB-TRUNC-01" "artifact truncated inside the header")
    else
      let kind = String.sub bytes 6 klen in
      let version = String.get_uint16_le bytes (6 + klen) in
      let plen = Int64.to_int (String.get_int64_le bytes (8 + klen)) in
      if plen < 0 || total <> header + plen + 16 then
        Error
          (err ~rule:"DB-TRUNC-01"
             "%S artifact truncated: %d payload byte(s) expected, %d present"
             kind plen
             (max 0 (total - header - 16)))
      else
        let payload = String.sub bytes header plen in
        let checksum = String.sub bytes (header + plen) 16 in
        if Digest.string payload <> checksum then
          Error
            (err ~rule:"DB-CKSUM-01" "%S artifact failed its checksum" kind)
        else Ok (kind, version, payload)

let encode ~kind ~version c v =
  let b = Buffer.create 4096 in
  c.write b v;
  seal ~kind ~version (Buffer.contents b)

let decode ~kind ~version c bytes =
  match split bytes with
  | Error _ as e -> e
  | Ok (k, v, payload) ->
      if k <> kind then
        Error
          (err ~rule:"DB-KIND-01" "expected a %S artifact, found %S" kind k)
      else if v <> version then
        Error
          (err ~rule:"DB-VERSION-01"
             "%S artifact has format version %d, this build reads %d" kind v
             version)
      else begin
        let r = { buf = payload; pos = 0; limit = String.length payload } in
        match c.read r with
        | value ->
            if r.pos <> r.limit then
              Error
                (err ~rule:"DB-PARSE-01"
                   "%S artifact has %d trailing byte(s)" kind (r.limit - r.pos))
            else Ok value
        | exception Corrupt msg ->
            Error (err ~rule:"DB-PARSE-01" "%S artifact: %s" kind msg)
        | exception exn ->
            Error
              (err ~rule:"DB-PARSE-01" "%S artifact: %s" kind
                 (Printexc.to_string exn))
      end

(* ---- files ---- *)

let save_file path bytes =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir "." (Filename.basename path ^ ".tmp")
  in
  let oc = open_out_bin tmp in
  output_string oc bytes;
  close_out oc;
  Sys.rename tmp path

let load_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (err ~rule:"DB-IO-01" "%s" msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | bytes -> Ok bytes
          | exception End_of_file ->
              Error (err ~rule:"DB-IO-01" "%s: unreadable" path))
