(** The persistent design database: a content-addressed object store
    plus stage-cache manifests, backing incremental flows.

    On-disk layout of a database directory:

    {v
    DIR/
      meta                     format stamp ("sf_db 1"), checked on open
      objects/<md5>.sfo        immutable artifacts, content-addressed
                               (the md5 is over the full sealed frame)
      stages/<stage>.<key>.sfm one manifest per cached stage execution:
                               output-slot -> object hash, plus small
                               scalar outputs (e.g. DRC fix rounds)
      proofs.sfp               append-only proof log: one sealed
                               (key MD5, verdict) frame per verdict
    v}

    A stage's [key] is the MD5 of its input-artifact hashes and every
    parameter that affects its result (see {!stage_key}); the worker
    pool size ([--jobs]) is {e never} part of a key because stage
    results are bit-identical at any pool size. Objects, manifests and
    the stamp are written atomically (temp file + rename), so a run
    killed mid-flow leaves only whole artifacts behind and the next run
    resumes from the last persisted stage. The proof log is appended
    to instead; a torn tail a killed append leaves is skipped on read
    like any other damaged frame.

    Corrupt cache entries are self-healing: a manifest or object that
    fails validation is reported as a {!warnings} diagnostic and
    treated as a miss, so the stage recomputes and overwrites it. *)

type t

type outcome = Hit | Miss

val open_ : string -> (t, Diag.t) result
(** Open (creating if needed) a database directory. Fails with
    [DB-DIR-01] when the path exists but is not an sf_db directory,
    with [DB-VERSION-01] on a format-stamp mismatch, or with
    [DB-IO-01] when the directory cannot be created (say, a parent is
    a regular file). *)

val dir : t -> string

val hash : string -> string
(** MD5 of the given bytes, in hex — the content address. *)

val stage_key : string list -> string
(** Cache key from an ordered list of parts (input hashes and
    parameter strings); parts are length-prefixed before hashing so
    distinct lists never collide by concatenation. *)

val put_object : t -> string -> string
(** Store sealed artifact bytes, returning their hash. Existing
    objects are not rewritten (content-addressing makes them
    immutable). *)

val get_object : t -> string -> (string, Diag.t) result

val put_stage :
  t ->
  stage:string ->
  key:string ->
  slots:(string * string) list ->
  scalars:(string * int) list ->
  unit
(** Record a stage execution: named output objects plus scalar
    outputs. {!flush}es the pending proof verdicts first, so a
    manifest on disk implies the verdicts its stage proved are too. *)

val get_stage :
  t ->
  stage:string ->
  key:string ->
  ((string * string) list * (string * int) list) option
(** Look up a cached stage execution. [None] on a genuine miss {e or}
    on a corrupt manifest (which is also recorded via {!warnings}). *)

(** {1 Proof cache}

    Verdicts are frames in [proofs.sfp], appended by {!flush}. A lookup
    reads the log once into an index that the next flush drops again,
    so a handle holds no verdicts between stages. A frame that fails
    its checks is one {!warnings} diagnostic ([DB-CKSUM-01] for a bad
    checksum, [DB-TRUNC-01] for a torn tail); reading resyncs on the
    next frame, that verdict is a miss, and the next flush rewrites the
    log without the damage. *)

val put_proof : t -> key:string -> string -> unit
(** Memoize an equivalence-proof verdict under a caller-chosen
    content-derived key ({!Equiv} keys on the hashes of the two
    cones). The frame is pending until the next {!flush};
    lookups on this handle see it at once. A key stored twice is
    harmless: the later verdict wins. *)

val find_proof : t -> key:string -> string option
(** Look up a memoized verdict; [None] on a miss or a damaged frame. *)

val flush : t -> unit
(** Append the pending verdicts to the log in one write and drop the
    lookup index. {!put_stage} flushes; a caller that proves after its
    last stage (say, [superflow drc]) flushes before it exits. *)

(** {1 Run log} *)

val record : t -> string -> outcome -> float -> unit
(** Append a stage outcome (and its load/compute seconds) to the run
    log. Called by the flow engine. *)

val outcomes : t -> (string * outcome * float) list
(** Stage outcomes in run order since {!open_} / {!reset_log}. *)

val hits : t -> int
val misses : t -> int
val reset_log : t -> unit

val warn : t -> Diag.t -> unit
val warnings : t -> Diag.t list
(** Non-fatal findings (corrupt entries healed by recomputation), in
    occurrence order. *)
