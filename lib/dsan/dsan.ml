(* Determinism sanitizer and data-race detector for the Parallel
   substrate.

   The flow's contract is byte-identical output at any --jobs. The
   jobs=1-vs-4 cmp tests enforce it end-to-end but cannot localize a
   violation, and a race that needs an unlucky schedule can survive
   them for months. This module attacks the contract from inside:

   - schedule fuzzing: a seeded permutation of each batch's chunk
     execution order (the combine order never moves, so any output
     difference under a permuted schedule is a proven bug);
   - write-set race detection: {!Tracked_array} views attribute every
     access to the chunk that made it and report ownership violations
     and cross-chunk write-write / read-write overlaps with witnesses;
   - nested-call and stale-epoch checks.

   Everything is gated on one atomic flag, so with the sanitizer off a
   tracked access costs a single load-and-branch. *)

type finding = {
  f_rule : string;
  f_site : string;  (* Parallel call-site label, or "-" *)
  f_array : string;  (* tracked array label, or "-" *)
  f_chunk_a : int;  (* -1 when not chunk-specific *)
  f_chunk_b : int;
  f_index : int;  (* -1 when not index-specific *)
  f_detail : string;
}

let compare_finding a b = Stdlib.compare a b

let finding_to_string f =
  let b = Buffer.create 80 in
  Buffer.add_string b (Printf.sprintf "%s at %s" f.f_rule f.f_site);
  if f.f_array <> "-" then Buffer.add_string b (" array " ^ f.f_array);
  if f.f_chunk_a >= 0 then
    if f.f_chunk_b >= 0 && f.f_chunk_b <> f.f_chunk_a then
      Buffer.add_string b
        (Printf.sprintf " chunks %d/%d" f.f_chunk_a f.f_chunk_b)
    else Buffer.add_string b (Printf.sprintf " chunk %d" f.f_chunk_a);
  if f.f_index >= 0 then Buffer.add_string b (Printf.sprintf " index %d" f.f_index);
  Buffer.add_string b (": " ^ f.f_detail);
  Buffer.contents b

let to_diag f =
  let witness =
    List.filter
      (fun s -> s <> "")
      [
        "site " ^ f.f_site;
        (if f.f_array <> "-" then "array " ^ f.f_array else "");
        (if f.f_chunk_a >= 0 then
           if f.f_chunk_b >= 0 && f.f_chunk_b <> f.f_chunk_a then
             Printf.sprintf "chunks %d and %d" f.f_chunk_a f.f_chunk_b
           else Printf.sprintf "chunk %d" f.f_chunk_a
         else "");
        (if f.f_index >= 0 then Printf.sprintf "index %d" f.f_index else "");
      ]
  in
  let ctor = if f.f_rule = "DSAN-NEST-01" then Diag.warning else Diag.error in
  ctor ~witness ~rule:f.f_rule Diag.Global "%s" f.f_detail

(* ---- session state ----

   One global session at a time (the sanitizer wraps whole flow runs).
   [active] is the fast-path gate; [mutex] orders everything else.
   Tracked accesses from worker domains happen strictly between
   [h_batch_start] and [h_batch_end] on the submitting domain, and the
   pool's own synchronization gives the happens-before edges. *)

(* sanitizer arm/disarm flag, read-only on the hot path.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let active = Atomic.make false

let on () = Atomic.get active

type fp = { reads : (int, unit) Hashtbl.t; writes : (int, unit) Hashtbl.t }

type session = {
  mutex : Mutex.t;
  seed : int;
  fuzz : bool;
  mutable batch_counter : int;
  mutable findings : finding list;
  mutable batch_label : string;
  (* batch-end analyzers for tracked arrays touched this batch:
     label-keyed so one array wrapped twice is analyzed once *)
  mutable analyzers : (string * (string -> finding list)) list;
  (* (rule, site, array, chunk) combos already reported — immediate
     ownership findings would otherwise flood (one per element) *)
  dedup : (string * string * string * int, unit) Hashtbl.t;
}

(* the one live sanitizer session, guarded by its mutex.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let session : session option ref = ref None

let with_session f = match !session with None -> () | Some s -> f s

let push_finding s f =
  Mutex.lock s.mutex;
  s.findings <- f :: s.findings;
  Mutex.unlock s.mutex

let push_finding_once s f =
  let key = (f.f_rule, f.f_site, f.f_array, f.f_chunk_a) in
  Mutex.lock s.mutex;
  if not (Hashtbl.mem s.dedup key) then begin
    Hashtbl.add s.dedup key ();
    s.findings <- f :: s.findings
  end;
  Mutex.unlock s.mutex

let record ~rule ?(site = "-") ?(array_label = "-") ?(chunk = -1) ?(index = -1)
    detail =
  with_session (fun s ->
      push_finding_once s
        {
          f_rule = rule;
          f_site = site;
          f_array = array_label;
          f_chunk_a = chunk;
          f_chunk_b = -1;
          f_index = index;
          f_detail = detail;
        })

(* ---- tracked array views ---- *)

type mode = Slice | Read_only | Footprint

type 'a t = {
  t_label : string;
  t_mode : mode;
  data : 'a array;
  foot : (int, fp) Hashtbl.t;  (* chunk -> footprint (Footprint mode) *)
}

(* deterministic batch-end overlap analysis: for every index written
   by two chunks report WW; for every index written by one chunk and
   read by another report RW. One finding per (rule, chunk pair),
   witnessed by the smallest offending index. *)
let analyze_footprints tr site =
  let chunks =
    Hashtbl.fold (fun c _ acc -> c :: acc) tr.foot [] |> List.sort compare
  in
  let writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let out : (string * int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let note rule a b ix =
    let a, b = (min a b, max a b) in
    match Hashtbl.find_opt out (rule, a, b) with
    | Some ix' when ix' <= ix -> ()
    | _ -> Hashtbl.replace out (rule, a, b) ix
  in
  let sorted_keys h =
    Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare
  in
  List.iter
    (fun c ->
      let fpc = Hashtbl.find tr.foot c in
      List.iter
        (fun ix ->
          (match Hashtbl.find_opt writer ix with
          | Some c' when c' <> c -> note "DSAN-WW-01" c' c ix
          | Some _ -> ()
          | None -> Hashtbl.add writer ix c))
        (sorted_keys fpc.writes))
    chunks;
  List.iter
    (fun c ->
      let fpc = Hashtbl.find tr.foot c in
      List.iter
        (fun ix ->
          match Hashtbl.find_opt writer ix with
          | Some c' when c' <> c -> note "DSAN-RW-01" c' c ix
          | _ -> ())
        (sorted_keys fpc.reads))
    chunks;
  Hashtbl.reset tr.foot;
  Hashtbl.fold
    (fun (rule, a, b) ix acc ->
      {
        f_rule = rule;
        f_site = site;
        f_array = tr.t_label;
        f_chunk_a = a;
        f_chunk_b = b;
        f_index = ix;
        f_detail =
          (if rule = "DSAN-WW-01" then
             Printf.sprintf
               "chunks %d and %d both wrote %s.(%d): last-writer-wins \
                depends on the schedule"
               a b tr.t_label ix
           else
             Printf.sprintf
               "chunk %d wrote %s.(%d) while chunk %d read it: the read's \
                value depends on the schedule"
               a tr.t_label ix b);
      }
      :: acc)
    out []
  |> List.sort compare_finding

let chunk_fp s tr c =
  match Hashtbl.find_opt tr.foot c with
  | Some fp -> fp
  | None ->
      (* creation is racy across chunks, hence the lock; after that the
         footprint is only touched by the one domain running chunk [c] *)
      Mutex.lock s.mutex;
      let fp =
        match Hashtbl.find_opt tr.foot c with
        | Some fp -> fp
        | None ->
            let fp = { reads = Hashtbl.create 64; writes = Hashtbl.create 64 } in
            Hashtbl.add tr.foot c fp;
            if not (List.mem_assoc tr.t_label s.analyzers) then
              s.analyzers <- (tr.t_label, analyze_footprints tr) :: s.analyzers;
            fp
      in
      Mutex.unlock s.mutex;
      fp

let own_violation s tr (cc : Parallel.chunk_ctx) ix what =
  push_finding_once s
    {
      f_rule = "DSAN-OWN-01";
      f_site = cc.Parallel.cc_label;
      f_array = tr.t_label;
      f_chunk_a = cc.Parallel.cc_chunk;
      f_chunk_b = -1;
      f_index = ix;
      f_detail =
        Printf.sprintf "chunk %d (owns [%d,%d)) %s %s.(%d)"
          cc.Parallel.cc_chunk cc.Parallel.cc_lo cc.Parallel.cc_hi what
          tr.t_label ix;
    }

let note_get tr ix =
  with_session (fun s ->
      match Parallel.current_chunk () with
      | None -> ()
      | Some cc -> (
          match tr.t_mode with
          | Slice | Read_only -> ()
          | Footprint ->
              let fp = chunk_fp s tr cc.Parallel.cc_chunk in
              Hashtbl.replace fp.reads ix ()))

let note_set tr ix =
  with_session (fun s ->
      match Parallel.current_chunk () with
      | None -> ()
      | Some cc -> (
          match tr.t_mode with
          | Slice ->
              if ix < cc.Parallel.cc_lo || ix >= cc.Parallel.cc_hi then
                own_violation s tr cc ix "wrote outside its slice:"
          | Read_only -> own_violation s tr cc ix "wrote to read-only view:"
          | Footprint ->
              let fp = chunk_fp s tr cc.Parallel.cc_chunk in
              Hashtbl.replace fp.writes ix ()))

let wrap ~label ~mode data =
  { t_label = label; t_mode = mode; data; foot = Hashtbl.create 8 }

let get tr ix =
  if Atomic.get active then note_get tr ix;
  tr.data.(ix)

let set tr ix v =
  if Atomic.get active then note_set tr ix;
  tr.data.(ix) <- v

(* ---- the hooks ---- *)

let fnv_hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let hooks_of s =
  {
    Parallel.h_batch_start =
      (fun ~label ~n_chunks:_ ->
        s.batch_counter <- s.batch_counter + 1;
        s.batch_label <- label);
    h_permute =
      (fun ~label order ->
        if s.fuzz then begin
          (* a fresh stream per (seed, site, batch ordinal): two calls
             to the same site get different orders, and everything
             replays exactly from the seed *)
          let rng =
            Rng.create (s.seed lxor fnv_hash label lxor (s.batch_counter * 7919))
          in
          Rng.shuffle rng order;
          (* push toward adversarial lane assignment: reversing the
             shuffled tail makes the last-queued chunks (which land on
             the caller's lane first) vary run to run as well *)
          let n = Array.length order in
          if n >= 4 && Rng.bool rng then begin
            let half = n / 2 in
            for i = 0 to (half / 2) - 1 do
              let j = half + i and k = n - 1 - i in
              let t = order.(j) in
              order.(j) <- order.(k);
              order.(k) <- t
            done
          end
        end);
    h_batch_end =
      (fun ~label ->
        let anas = s.analyzers in
        s.analyzers <- [];
        List.iter
          (fun (_, analyze) ->
            let fs = analyze label in
            List.iter (fun f -> push_finding s f) fs)
          anas;
        s.batch_label <- "-");
    h_nested =
      (fun ~label ~outer ->
        push_finding_once s
          {
            f_rule = "DSAN-NEST-01";
            f_site = outer;
            f_array = "-";
            f_chunk_a = -1;
            f_chunk_b = -1;
            f_index = -1;
            f_detail =
              Printf.sprintf
                "parallel call %S made from inside a chunk of %S runs \
                 inline on one lane; hoist it or fuse the loops"
                label outer;
          });
  }

let start ?(seed = 0) ?(fuzz = true) () =
  if !session <> None then invalid_arg "Dsan.start: session already active";
  let s =
    {
      mutex = Mutex.create ();
      seed;
      fuzz;
      batch_counter = 0;
      findings = [];
      batch_label = "-";
      analyzers = [];
      dedup = Hashtbl.create 16;
    }
  in
  session := Some s;
  Parallel.set_hooks (Some (hooks_of s));
  Atomic.set active true

let stop () =
  match !session with
  | None -> []
  | Some s ->
      Atomic.set active false;
      Parallel.set_hooks None;
      session := None;
      List.sort_uniq compare_finding s.findings

let findings () =
  match !session with
  | None -> []
  | Some s ->
      Mutex.lock s.mutex;
      let fs = s.findings in
      Mutex.unlock s.mutex;
      List.sort_uniq compare_finding fs

(* ---- schedule fuzz-compare driver ---- *)

let with_sanitizer ?seed ?fuzz f =
  start ?seed ?fuzz ();
  let r = try f () with e -> ignore (stop ()); raise e in
  (r, stop ())

let schedule_check ?(seed = 0) ?(schedules = 4) ~equal f =
  let baseline, base_findings = with_sanitizer ~seed ~fuzz:false f in
  let findings = ref base_findings in
  for k = 1 to schedules do
    let r, fs = with_sanitizer ~seed:(seed + (k * 0x9e3779b9)) ~fuzz:true f in
    findings := fs @ !findings;
    if not (equal baseline r) then
      findings :=
        {
          f_rule = "DSAN-SCHED-01";
          f_site = "-";
          f_array = "-";
          f_chunk_a = -1;
          f_chunk_b = -1;
          f_index = -1;
          f_detail =
            Printf.sprintf
              "output differs under fuzzed schedule %d of %d (seed %d): \
               the result depends on chunk execution order"
              k schedules (seed + (k * 0x9e3779b9));
        }
        :: !findings
  done;
  (baseline, List.sort_uniq compare_finding !findings)
