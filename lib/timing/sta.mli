(** Static timing analysis for placed AQFP designs.

    AQFP is gate-level pipelined: every connection must deliver its
    pulse within one clock-phase window (paper §II-B). For a net
    leaving a cell in phase row [r] at horizontal position [x_s] and
    entering its sink in row [r+1] at [x_e]:

    - the budget is the phase window (50 ps at 5 GHz, 4 phases);
    - the data flight time is [manhattan_length / v_signal] plus the
      gate's intrinsic switching delay;
    - the zigzag clock distribution introduces skew between the
      launching and capturing rows; its unfavorable component is
      [skew = max(0, Clocking.skew_base ~row_width ~phase:r ~x_start:x_s
      ~x_end:x_e) / v_clk], the Eq. (2) base of {!Clocking} divided by
      the clock velocity (a connection that "flows with" the
      serpentine clock is not penalised; one that fights it loses
      time).

    slack = window − gate_delay − flight − skew.

    The worst negative slack (WNS) over all nets is the Table III
    timing metric; designs with positive WNS meet the target clock. *)

type net_timing = {
  net : int;  (** net index in the problem *)
  slack_ps : float;
  flight_ps : float;
  skew_ps : float;
}

type report = {
  wns_ps : float;  (** worst slack (positive = timing met) *)
  tns_ps : float;  (** total negative slack (<= 0) *)
  violations : int;  (** nets with negative slack *)
  worst : net_timing list;  (** up to 10 worst nets, ascending slack *)
}

val net_slack_ps : Problem.t -> row_width:float -> int -> net_timing
(** Timing of one net at the current placement. *)

val analyze : Problem.t -> report
(** Full-design STA at the problem's technology target. *)

val meets_timing : report -> bool
(** True iff WNS is non-negative (the paper prints '-' in this case). *)

val pp_report : Format.formatter -> report -> unit

val slack_histogram : Problem.t -> (float * float * int) array
(** [(lo, hi, count)] for ten buckets over all net slacks, equal-width between
    the worst and best slack. Used by the CLI timing report. *)

val per_row_wns : Problem.t -> float array
(** Worst slack of the nets leaving each row — localizes which clock
    phases are critical (row gaps the router may want to relax). *)

val pp_histogram : Format.formatter -> (float * float * int) array -> unit

val analyze_routed : Problem.t -> Router.result -> report
(** Post-route STA: identical model, but each net's flight time uses
    its {e actual routed length} (detours and via zigzags included)
    instead of the Manhattan estimate. This is the timing the chip
    ships with; [analyze] is the placement-time view. *)

val fmax_ghz : Problem.t -> float
(** Maximum clock frequency at which the current placement meets
    timing. Slack is linear in the phase window, so the exact answer
    is [1000 / (phases * K)] where [K] is the largest per-net
    gate-delay + flight + skew (ps). *)
