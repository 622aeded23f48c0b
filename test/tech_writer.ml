(* Renders a technology as the [key = value] text {!Tech.of_string}
   reads: the round-trip oracle for the [--tech] file reader. *)

let to_string t =
  String.concat "\n"
    [
      "# AQFP technology description";
      Printf.sprintf "grid = %.12g" t.Tech.grid;
      Printf.sprintf "s_min = %.12g" t.s_min;
      Printf.sprintf "w_max = %.12g" t.w_max;
      Printf.sprintf "row_gap = %.12g" t.row_gap;
      Printf.sprintf "clock_freq_ghz = %.12g" t.clock_freq_ghz;
      Printf.sprintf "phases = %d" t.phases;
      Printf.sprintf "signal_velocity = %.12g" t.signal_velocity;
      Printf.sprintf "clock_velocity = %.12g" t.clock_velocity;
      Printf.sprintf "gate_delay_ps = %.12g" t.gate_delay_ps;
      Printf.sprintf "metal_layers = %d" t.metal_layers;
      "";
    ]
