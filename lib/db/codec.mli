(** Deterministic binary codec primitives and the sf_db artifact
    container.

    Every persisted artifact is one {e sealed} frame:

    {v
    "SFDB"            magic, 4 bytes
    u16le             kind length, then the kind bytes (e.g. "netlist")
    u16le             format version of that kind
    i64le             payload length in bytes
    payload           kind-specific body (the combinators below)
    16 bytes          MD5 of the payload
    v}

    Integers are fixed-width little-endian (OCaml ints as i64), floats
    are their IEEE-754 bit patterns — encoding is a pure function of
    the value, so [encode (decode (encode x)) = encode x] exactly.
    Each payload format is one {!t} description, used for both
    directions.

    Loading never lets an exception escape: a corrupt, truncated,
    mis-typed or version-skewed frame comes back as a structured
    {!Diag.t} error with a stable [DB-*] rule id ([DB-MAGIC-01],
    [DB-KIND-01], [DB-VERSION-01], [DB-TRUNC-01], [DB-CKSUM-01],
    [DB-PARSE-01], [DB-IO-01]). *)

(** {1 Descriptions}

    A ['a t] describes one binary format for values of type ['a]: the
    same value both writes and reads it, so a decoder cannot drift from
    its encoder. Formats are built from the primitives and combinators
    below; every artifact kind in {!Artifact} is one such value. *)

type writer
type reader

type 'a t = { write : writer -> 'a -> unit; read : reader -> 'a }
(** [read] consumes exactly the bytes [write] produced. A hand-written
    description (one that checks what it reads) composes other
    descriptions' fields and raises {!Corrupt} on bad input. *)

exception Corrupt of string
(** Raised by [read] on malformed payload bytes; callers outside this
    module never see it — {!decode} converts it into a [DB-PARSE-01]
    diagnostic. *)

val bool : bool t  (** one byte, 0 or 1 *)

val u8 : int t  (** one byte; writing outside [0, 255] is [Invalid_argument] *)

val int : int t  (** i64le *)

val f64 : float t  (** the IEEE-754 bit pattern, i64le *)

val string : string t  (** length ({!int}), then the bytes *)

val option : 'a t -> 'a option t  (** {!bool} presence flag, then the value *)

val array : 'a t -> 'a array t  (** length ({!int}), then the elements *)

val list : 'a t -> 'a list t  (** as {!array} *)

val pair : 'a t -> 'b t -> ('a * 'b) t

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_a to_a c] — the bytes of [c], seen as another type. *)

(** {2 Variants} *)

type 'a case

val const : int -> 'a -> 'a case
(** A payload-free constructor and its tag. *)

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag payload inject project] — a constructor carrying a
    payload. *)

val enum : string -> 'a case list -> 'a t
(** A {!u8} tag, then the payload of its case. Reading an unknown tag
    is {!Corrupt} ("unknown <name> tag N"). *)

(** {2 Records} *)

type ('r, 'c) fields

val record : 'c -> ('r, 'c) fields
(** [record make |+ (c1, get1) |+ ... |> close] — the fields in order,
    each written with its description from the record's getter and
    read back into [make]'s next argument. *)

val ( |+ ) : ('r, 'f -> 'c) fields -> 'f t * ('r -> 'f) -> ('r, 'c) fields
val close : ('r, 'r) fields -> 'r t

(** {1 Container frames} *)

val seal : kind:string -> version:int -> string -> string
(** Frame a payload: magic, kind, version, length, payload, checksum. *)

val split : string -> (string * int * string, Diag.t) result
(** Open any frame: [(kind, version, payload)] after validating magic,
    completeness and checksum. *)

val encode : kind:string -> version:int -> 'a t -> 'a -> string
(** Write a payload and {!seal} it. *)

val decode :
  kind:string -> version:int -> 'a t -> string -> ('a, Diag.t) result
(** Open a frame, check its kind and version against the expectation,
    then run the payload decoder. Trailing payload bytes, [Corrupt],
    and any exception the decoder raises all come back as structured
    errors. *)

(** {1 Files} *)

val save_file : string -> string -> unit
(** Atomic write: the bytes land under a temporary name in the target
    directory and are renamed into place, so a killed process never
    leaves a half-written artifact. *)

val load_file : string -> (string, Diag.t) result
(** Read a whole file; missing/unreadable files are a [DB-IO-01]
    error, not an exception. *)

val err : rule:string -> ('a, unit, string, Diag.t) format4 -> 'a
(** A [DB-*] error diagnostic (severity [Error], location [Global]). *)
