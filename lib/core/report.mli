(** Experiment harness: regenerates every table and figure of the
    paper's evaluation (§IV) on this implementation, printing
    paper-vs-measured rows. Measuring and printing are separate: the
    caller measures each row once and hands the rows to the printers,
    so the bench executable prints the tables and renders
    EXPERIMENTS.md from the same data. Used by the CLI
    ([superflow tables]) and [bench/main.exe]. *)

type synth_row = { s_name : string; jjs : int; nets : int; delay : int }
(** One Table II row. *)

type place_row = {
  p_name : string;
  algorithm : Placer.algorithm;
  hpwl : float;
  buffers : int;
  wns : float option;  (** [None] = timing met (the paper prints '-') *)
  runtime_s : float;
}
(** One Table III cell group. *)

type route_row = {
  r_name : string;
  r_jjs : int;
  r_nets : int;
  routed_wl : float;
  r_jjs_resyn : int;  (** placed JJ count with [--resyn-effort full] *)
  r_depth_resyn : int;  (** phase depth with resynthesis *)
  r_depth : int;  (** phase depth without (the resyn stage's before) *)
}
(** One Table IV row: the flow with the resynthesis stage off (the
    paper's configuration) and the resyn-on deltas alongside. *)

type fig4_row = {
  mixed : bool;
  f_hpwl : float;
  f_wns : float;
  f_violations : int;
  moves : int;
}
(** One arm of the Fig. 4 mixed-cell-size ablation. *)

type rows = {
  table2 : synth_row list;
  table3 : place_row list list;  (** one {!measure_table3} per circuit *)
  table4 : route_row list;
  fig4 : (string * fig4_row list) list;  (** circuit, {!measure_fig4} *)
}
(** Every measured row of one evaluation run, in circuit order. *)

(* Paper reference values (from the published tables). *)

val paper_table2 : (string * (int * int * int)) list
val paper_table3 :
  (string * ((float * int * float option) * (float * int * float option) * (float * int * float option * float))) list
val paper_table4 : (string * (int * int * float)) list

(* Measurement (each runs the relevant stages of this implementation,
   at placement seed 1). *)

val measure_table2 : string -> synth_row
val measure_table3 : string -> place_row list
(** GORDIAN-based, TAAS, SuperFlow — in that order. *)

val measure_table4 : ?router:Router.algorithm -> string -> route_row
(** [router] selects the routing algorithm the flow runs with
    (default [Sequential]). Each measurement runs the flow twice —
    resynthesis off (the paper's configuration) and at full effort —
    so the table carries the resyn delta. *)

val measure_fig4 : string -> fig4_row list
(** Size-matched-only vs mixed-size detailed placement. *)

(* Printing. *)

val print_table1 : unit -> unit
val print_table2 : synth_row list -> unit
val print_table3 : place_row list list -> unit
val print_table4 : route_row list -> unit
val print_fig4 : (string * fig4_row list) list -> unit

type claim = { claim : string; holds : bool; evidence : string }

val check_claims : rows -> claim list
(** Grade the paper's headline claims against the Table II and
    Table III rows (geometric means over the measured circuits):

    - SuperFlow's wirelength beats both baselines on average (the
      paper's 12.8%);
    - SuperFlow's timing (WNS) is the best of the three on average
      (the paper's 12.1%);
    - SuperFlow inserts the fewest max-wirelength buffer lines (the
      paper's 15.3%);
    - synthesis yields more JJs than nets on every circuit (the
      Table II structural invariant);
    - the GORDIAN-style baseline, lacking a timing term, has the worst
      WNS on average. *)

val print_claims : claim list -> unit

val experiments_markdown : rows -> string
(** Render the full paper-vs-measured comparison as the contents of
    EXPERIMENTS.md. The committed file is rendered from all nine
    circuits with Table IV measured by the default sequential
    router. *)
