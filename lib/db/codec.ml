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

(* the header of the frame at byte [pos]: kind, version, payload
   offset and the payload length the header claims *)
let header bytes pos =
  let total = String.length bytes - pos in
  if total < 4 || String.sub bytes pos 4 <> magic then
    Error (err ~rule:"DB-MAGIC-01" "not an sf_db artifact (bad magic)")
  else if total < 6 then
    Error (err ~rule:"DB-TRUNC-01" "artifact truncated inside the header")
  else
    let klen = String.get_uint16_le bytes (pos + 4) in
    let at = pos + 4 + 2 + klen + 2 + 8 in
    if at > String.length bytes then
      Error (err ~rule:"DB-TRUNC-01" "artifact truncated inside the header")
    else
      Ok
        ( String.sub bytes (pos + 6) klen,
          String.get_uint16_le bytes (pos + 6 + klen),
          at,
          Int64.to_int (String.get_int64_le bytes (pos + 8 + klen)) )

(* The frame at byte [pos] whose magic, header, length and checksum
   hold: kind, version, payload offset and length. [exact] frames must
   end where [bytes] does; others need only fit. The length test is
   [plen <> rest], not [total <> at + plen + 16], so that a huge length
   field cannot overflow past it. *)
let frame bytes pos ~exact =
  match header bytes pos with
  | Error _ as e -> e
  | Ok (kind, version, at, plen) ->
      let rest = String.length bytes - at - 16 in
      if plen < 0 || (if exact then plen <> rest else plen > rest) then
        Error
          (err ~rule:"DB-TRUNC-01"
             "%S artifact truncated: %d payload byte(s) expected, %d present"
             kind plen (max 0 rest))
      else if
        not
          (String.equal
             (Digest.substring bytes at plen)
             (String.sub bytes (at + plen) 16))
      then
        Error (err ~rule:"DB-CKSUM-01" "%S artifact failed its checksum" kind)
      else Ok (kind, version, at, plen)

let split bytes =
  Result.map
    (fun (kind, version, at, plen) -> (kind, version, String.sub bytes at plen))
    (frame bytes 0 ~exact:true)

let encode ~kind ~version c v =
  let b = Buffer.create 4096 in
  c.write b v;
  seal ~kind ~version (Buffer.contents b)

(* the value in the [len] payload bytes at [pos] of [buf], once the
   frame's kind and version are the expected ones *)
let payload ~kind ~version c (k, v) buf pos len =
  if k <> kind then
    Error (err ~rule:"DB-KIND-01" "expected a %S artifact, found %S" kind k)
  else if v <> version then
    Error
      (err ~rule:"DB-VERSION-01"
         "%S artifact has format version %d, this build reads %d" kind v
         version)
  else begin
    let r = { buf; pos; limit = pos + len } in
    match c.read r with
    | value ->
        if r.pos <> r.limit then
          Error
            (err ~rule:"DB-PARSE-01" "%S artifact has %d trailing byte(s)" kind
               (r.limit - r.pos))
        else Ok value
    | exception Corrupt msg ->
        Error (err ~rule:"DB-PARSE-01" "%S artifact: %s" kind msg)
    | exception exn ->
        Error
          (err ~rule:"DB-PARSE-01" "%S artifact: %s" kind
             (Printexc.to_string exn))
  end

let decode ~kind ~version c bytes =
  Result.bind (split bytes) (fun (k, v, p) ->
      payload ~kind ~version c (k, v) p 0 (String.length p))

let scan ~kind ~version c bytes ~frame:on_frame ~damage =
  let n = String.length bytes in
  let rec resync pos =
    match String.index_from_opt bytes pos magic.[0] with
    | Some i when i + 4 <= n ->
        if String.sub bytes i 4 = magic then i else resync (i + 1)
    | _ -> n
  in
  let rec go pos damaged =
    if pos < n then
      match
        Result.bind (frame bytes pos ~exact:false) (fun (k, v, at, plen) ->
            payload ~kind ~version c (k, v) bytes at plen
            |> Result.map (fun value -> (value, at + plen + 16 - pos)))
      with
      | Ok (value, len) ->
          on_frame pos len value;
          go (pos + len) false
      | Error d ->
          if not damaged then damage pos d;
          go (resync (pos + 1)) true
  in
  go 0 false

(* ---- files ---- *)

let save_file path bytes =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir "." (Filename.basename path ^ ".tmp")
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc bytes);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

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
