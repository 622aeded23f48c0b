(* Determinism sanitizer for the Parallel substrate.

   The flow's contract is byte-identical output at any --jobs. The
   jobs=1-vs-4 cmp tests enforce it end-to-end but cannot localize a
   violation, and a race that needs an unlucky schedule can survive
   them for months. This module attacks the contract from inside:

   - schedule fuzzing: a seeded permutation of each batch's chunk
     execution order (the combine order never moves, so any output
     difference under a permuted schedule is a proven bug);
   - nested-call and stale-epoch checks.

   Everything is gated on one atomic flag, so with the sanitizer off an
   instrumented check costs a single load-and-branch. *)

type finding = {
  f_rule : string;
  f_site : string;  (* Parallel call-site label, or "-" *)
  f_array : string;  (* array or artifact label, or "-" *)
  f_index : int;  (* -1 when not index-specific *)
  f_detail : string;
}

let compare_finding a b = Stdlib.compare a b

let finding_to_string f =
  let b = Buffer.create 80 in
  Buffer.add_string b (Printf.sprintf "%s at %s" f.f_rule f.f_site);
  if f.f_array <> "-" then Buffer.add_string b (" array " ^ f.f_array);
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
        (if f.f_index >= 0 then Printf.sprintf "index %d" f.f_index else "");
      ]
  in
  let ctor = if f.f_rule = "DSAN-NEST-01" then Diag.warning else Diag.error in
  ctor ~witness ~rule:f.f_rule Diag.Global "%s" f.f_detail

(* ---- session state ----

   One global session at a time (the sanitizer wraps whole flow runs).
   [active] is the fast-path gate; [mutex] orders findings pushed from
   worker domains. *)

(* sanitizer arm/disarm flag, read-only on the hot path.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let active = Atomic.make false

let on () = Atomic.get active

type session = {
  mutex : Mutex.t;
  seed : int;
  fuzz : bool;
  mutable batch_counter : int;
  mutable findings : finding list;
  (* (rule, site, array) combos already reported — a check in a
     hot loop would otherwise flood (one finding per element) *)
  dedup : (string * string * string, unit) Hashtbl.t;
}

(* the one live sanitizer session, guarded by its mutex.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let session : session option ref = ref None

let push_finding_once s f =
  let key = (f.f_rule, f.f_site, f.f_array) in
  Mutex.lock s.mutex;
  if not (Hashtbl.mem s.dedup key) then begin
    Hashtbl.add s.dedup key ();
    s.findings <- f :: s.findings
  end;
  Mutex.unlock s.mutex

let record ~rule ?(site = "-") ?(array_label = "-") ?(index = -1) detail =
  match !session with
  | None -> ()
  | Some s ->
      push_finding_once s
        {
          f_rule = rule;
          f_site = site;
          f_array = array_label;
          f_index = index;
          f_detail = detail;
        }

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
    Parallel.h_permute =
      (fun ~label order ->
        s.batch_counter <- s.batch_counter + 1;
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
    h_nested =
      (fun ~label ~outer ->
        push_finding_once s
          {
            f_rule = "DSAN-NEST-01";
            f_site = outer;
            f_array = "-";
            f_index = -1;
            f_detail =
              Printf.sprintf
                "parallel call %S made from inside a chunk of %S runs \
                 inline on one lane; hoist it or fuse the loops"
                label outer;
          });
  }

let start ?(seed = 0) ?(fuzz = true) () =
  if !session <> None then invalid_arg "Dsan.with_sanitizer: session already active";
  let s =
    {
      mutex = Mutex.create ();
      seed;
      fuzz;
      batch_counter = 0;
      findings = [];
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

let with_sanitizer ?seed ?fuzz f =
  start ?seed ?fuzz ();
  let r = try f () with e -> ignore (stop ()); raise e in
  (r, stop ())
