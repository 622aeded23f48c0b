(* Deterministic multicore execution on a lazily-built fixed domain
   pool.

   Determinism contract: work is split into *static* chunks whose
   boundaries depend only on the input size (never on the pool size or
   on scheduling), each chunk is computed independently, and partial
   results are combined left-to-right in chunk order. A run with one
   domain therefore evaluates the exact same float expressions, in the
   exact same grouping, as a run with sixteen — only the wall-clock
   interleaving differs.

   The contract is *checkable*: every call site carries a [~label] and
   an optional sanitizer (sf_dsan) can install {!hooks} that permute
   the chunk execution order (the combine order never moves, so any
   output change under a permuted schedule is a proven determinism
   bug) and see parallel calls nested inside a chunk. With no hooks
   installed every check below compiles down to one ref load, so the
   off mode costs nothing. *)

let max_jobs = 64

let clamp n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

(* a malformed SF_JOBS falls back to the domain count, but loudly:
   silently ignoring "SF_JOBS=eight" cost real debugging time *)
let warned_bad_env = ref false (* sl-ignore: SL-GLOBAL-01 warn-once latch, never read by stage code *)

let env_jobs () =
  match Sys.getenv_opt "SF_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (clamp n)
      | _ ->
          if not !warned_bad_env then begin
            warned_bad_env := true;
            Printf.eprintf
              "superflow: warning: SF_JOBS=%S is not a positive integer; \
               falling back to the machine's domain count\n\
               %!"
              s
          end;
          None)

(* CLI-set job override; results are chunk-count independent.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let requested : int option ref = ref None

let jobs () =
  match !requested with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> clamp (Domain.recommended_domain_count ()))

let set_jobs n = requested := Some (clamp n)

let auto_jobs () = requested := None

(* ---- sanitizer hooks ----

   Installed by sf_dsan, [None] in production. The submitting domain
   installs hooks before any batch runs; the pool's queue mutex
   publishes the write to every worker, so the plain ref is safe. *)

type hooks = {
  h_permute : label:string -> int array -> unit;
      (* called once per batch; may shuffle the chunk *execution*
         order in place *)
  h_nested : label:string -> outer:string -> unit;
}

(* dsan instrumentation hooks, installed once at sanitizer arm time.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let hooks : hooks option ref = ref None

let set_hooks h = hooks := h

(* the label of the batch whose chunk this domain is executing (only
   maintained while hooks are installed; [None] outside any chunk) *)
let outer_label : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ---- the pool ----

   [jobs () - 1] worker domains block on a condition variable waiting
   for thunks; the submitting domain executes thunks too, so a pool of
   size n really computes with n lanes. Completion is tracked per batch
   with an atomic counter (workers publish their chunk results before
   the decrement, so the counter doubles as the release fence). *)

type pool = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* a chunk function that itself calls into Parallel must run inline:
   a worker blocking on a sub-batch could deadlock the pool *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* process-wide domain pool; pool identity never reaches stage outputs.
   sl-ignore: SL-GLOBAL-01 listed in the determinism-contract table *)
let current : pool option ref = ref None

let current_size = ref 0 (* sl-ignore: SL-GLOBAL-01 size of the pool above *)

let shutdown () =
  match !current with
  | None -> ()
  | Some pool ->
      Mutex.lock pool.mutex;
      pool.stop <- true;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex;
      List.iter Domain.join pool.workers;
      current := None;
      current_size := 0

let () = at_exit shutdown

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.cond pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    end
  in
  loop ()

(* (re)build the pool to match [jobs ()]; [None] means run serially *)
let ensure_pool () =
  let n = jobs () in
  if n <> !current_size then shutdown ();
  if n <= 1 then None
  else
    match !current with
    | Some p -> Some p
    | None ->
        let pool =
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            queue = Queue.create ();
            stop = false;
            workers = [];
          }
        in
        pool.workers <-
          List.init (n - 1) (fun _ -> Domain.spawn (worker_loop pool));
        current := Some pool;
        current_size := n;
        Some pool

let run_tasks (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  if n = 0 then ()
  else if n = 1 || Domain.DLS.get in_worker then
    Array.iter (fun f -> f ()) tasks
  else
    match ensure_pool () with
    | None -> Array.iter (fun f -> f ()) tasks
    | Some pool ->
        let remaining = Atomic.make n in
        let wrap f () =
          f ();
          Atomic.decr remaining
        in
        Mutex.lock pool.mutex;
        Array.iter (fun f -> Queue.push (wrap f) pool.queue) tasks;
        Condition.broadcast pool.cond;
        Mutex.unlock pool.mutex;
        (* the caller is a lane too: drain the queue alongside the
           workers, then spin briefly for in-flight stragglers *)
        let rec drain () =
          Mutex.lock pool.mutex;
          let t =
            if Queue.is_empty pool.queue then None
            else Some (Queue.pop pool.queue)
          in
          Mutex.unlock pool.mutex;
          match t with
          | Some f ->
              f ();
              drain ()
          | None -> ()
        in
        drain ();
        while Atomic.get remaining > 0 do
          Domain.cpu_relax ()
        done

(* default chunking: a pure function of the input size (64 pieces),
   so the chunk structure is identical whatever the pool size *)
let default_chunk n = max 1 ((n + 63) / 64)

let resolve_chunk chunk n =
  match chunk with
  | Some c when c <= 0 ->
      invalid_arg "Parallel.map_chunks: chunk size must be positive"
  | Some c -> c
  | None -> default_chunk n

let map_chunks ?(label = "unlabeled") ?chunk ~n f =
  if n <= 0 then begin
    (* still validate: a bad chunk size is a bug at every [n] *)
    ignore (resolve_chunk chunk (max 1 n));
    [||]
  end
  else begin
    let chunk = resolve_chunk chunk n in
    let n_chunks = (n + chunk - 1) / chunk in
    let results = Array.make n_chunks None in
    let task ci () =
      let lo = ci * chunk in
      let hi = min n (lo + chunk) in
      results.(ci) <- Some (try Ok (f lo hi) with e -> Error e)
    in
    (match !hooks with
    | None -> run_tasks (Array.init n_chunks task)
    | Some h -> (
        match Domain.DLS.get outer_label with
        | Some outer ->
            (* nested call from inside a chunk: runs inline (no batch
               of its own); the sanitizer records it *)
            h.h_nested ~label ~outer;
            for ci = 0 to n_chunks - 1 do
              task ci ()
            done
        | None ->
            (* the sanitizer may permute the execution order; results
               land by chunk index and the caller combines in chunk
               order, so a permuted schedule must be unobservable *)
            let order = Array.init n_chunks (fun i -> i) in
            h.h_permute ~label order;
            let tracked ci () =
              Domain.DLS.set outer_label (Some label);
              task ci ();
              Domain.DLS.set outer_label None
            in
            run_tasks (Array.map tracked order)));
    (* surface the leftmost chunk's failure so error behavior does not
       depend on scheduling *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let parallel_init ?label ?chunk n f =
  let parts =
    map_chunks ?label ?chunk ~n (fun lo hi ->
        Array.init (hi - lo) (fun k -> f (lo + k)))
  in
  Array.concat (Array.to_list parts)
