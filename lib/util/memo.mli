(** A persistent memo keyed by content-hash strings: the one shape of
    every cache the flow injects into a stage library (equivalence
    proofs, resynthesis window verdicts, absint findings, DRC tile
    verdicts). The libraries stay decoupled from [sf_db]; the flow
    supplies an implementation backed by its proof store, tests and
    benches a [Hashtbl]. Both directions are called serially. *)

type 'a t = {
  find : string -> 'a option;
  store : string -> 'a -> unit;
}
