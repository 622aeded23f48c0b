(** Deterministic multicore execution on a lazily-built fixed domain
    pool (OCaml 5 [Domain]s).

    Work is split into {e static} chunks whose boundaries depend only
    on the input size — never on the pool size or on scheduling — each
    chunk is computed independently, and partial results are combined
    left-to-right in chunk order. As long as the chunk function is
    pure (or writes only to locations owned by its chunk), a run with
    [jobs = 1] is bit-identical to a run with [jobs = 16]: the same
    float expressions are evaluated in the same grouping; only the
    wall-clock interleaving differs.

    Pool size resolution, first match wins:
    + [set_jobs n] (the [--jobs] CLI flag / [Flow.run ~jobs]),
    + the [SF_JOBS] environment variable (a malformed value warns once
      on stderr and is ignored),
    + [Domain.recommended_domain_count ()].

    A size of 1 short-circuits to plain serial execution (no domains
    are ever spawned). The pool is built lazily on first use, resized
    lazily after [set_jobs], and torn down [at_exit]. Calls made from
    inside a chunk function run inline (no nested pools).

    The contract is checkable: every call site should carry a [~label]
    and the determinism sanitizer (sf_dsan) can install {!hooks} that
    permute the chunk {e execution} order (the combine order never
    moves, so any output change under a permuted schedule is a proven
    determinism bug) and see parallel calls nested inside a chunk.
    With no hooks installed every check compiles down to one ref
    load. *)

val jobs : unit -> int
(** The lane count the next parallel call will use (includes the
    calling domain), in [1 .. 64]. *)

val set_jobs : int -> unit
(** Override the pool size (clamped to [1 .. 64]). Takes effect at
    the next parallel call; an existing pool of a different size is
    torn down and rebuilt. *)

val auto_jobs : unit -> unit
(** Drop the [set_jobs] override and fall back to [SF_JOBS] /
    [Domain.recommended_domain_count]. *)

val shutdown : unit -> unit
(** Join all worker domains. Safe to call at any quiescent point; the
    pool is rebuilt on the next parallel call. Also runs [at_exit]. *)

val map_chunks :
  ?label:string -> ?chunk:int -> n:int -> (int -> int -> 'b) -> 'b array
(** [map_chunks ~label ~chunk ~n f] applies [f lo hi] to each static
    chunk [\[lo, hi)] of [0 .. n-1] ([hi - lo <= chunk]) and returns
    the per-chunk results in chunk order. [chunk] defaults to [n/64]
    (rounded up). {!parallel_init} is built on it; use it directly
    for map-reduce with per-chunk accumulator buffers. If a chunk raises, the leftmost failing
    chunk's exception is re-raised (deterministically).

    [label] names the call site ("drc.tiles", "route.pairs", …) in
    sanitizer diagnostics; it has no effect on execution.

    [n <= 0] returns [[||]] without calling [f] (the empty batch is
    well-defined and not an error). [chunk <= 0] raises
    [Invalid_argument] — including when [n <= 0], so the misuse is
    caught on every input size. *)

val parallel_init : ?label:string -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Deterministic parallel [Array.init]. *)

(** {1 Sanitizer interface}

    Everything below is consumed by sf_dsan; production code never
    touches it. *)

type hooks = {
  h_permute : label:string -> int array -> unit;
      (** called once per batch (before any chunk runs) with the
          identity order; may shuffle it in place to fuzz the chunk
          execution order *)
  h_nested : label:string -> outer:string -> unit;
      (** a parallel call was made from inside chunk [outer]; it runs
          inline and is not tracked as a batch of its own *)
}

val set_hooks : hooks option -> unit
(** Install (or clear) the sanitizer hooks. Must be called from the
    submitting domain while no batch is in flight. *)
