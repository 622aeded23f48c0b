(** Placement drivers: the three pipelines compared in Table III. *)

type algorithm = Superflow | Gordian | Taas

val algorithm_name : algorithm -> string

type result = {
  algorithm : algorithm;
  hpwl : float;  (** µm *)
  buffer_lines : int;  (** max-wirelength buffer rows (Table III "Buffers") *)
  timing_cost : float;  (** Eq. (2) total, µm² *)
  runtime_s : float;
  moves : int;  (** detailed-placement moves accepted (SuperFlow only) *)
}

exception Illegal of string
(** The pipeline's result failed {!Problem.check_legal}; carries its
    message (the first violation and a count). *)

val place : ?seed:int -> algorithm -> Problem.t -> result
(** Run one placement pipeline on the problem (mutates positions;
    result is legalized — checked, raising {!Illegal} otherwise).
    SuperFlow = timing-aware analytical global placement + Tetris
    legalization + mixed-size detailed placement. *)

val pp_result : Format.formatter -> result -> unit
