type t = {
  grid : float;
  s_min : float;
  w_max : float;
  row_gap : float;
  clock_freq_ghz : float;
  phases : int;
  signal_velocity : float;
  clock_velocity : float;
  gate_delay_ps : float;
  metal_layers : int;
}

let default =
  {
    grid = 10.0;
    s_min = 10.0;
    w_max = 300.0;
    row_gap = 30.0;
    clock_freq_ghz = 5.0;
    phases = 4;
    signal_velocity = 100.0;
    clock_velocity = 100.0;
    gate_delay_ps = 5.0;
    metal_layers = 2;
  }

let phase_window_ps t = 1000.0 /. (t.clock_freq_ghz *. float_of_int t.phases)

let snap t x = Float.round (x /. t.grid) *. t.grid

let snap_up t x = Float.of_int (int_of_float (ceil (x /. t.grid -. 1e-9))) *. t.grid

let on_grid t x = Float.abs (x -. snap t x) < 1e-6

let pp ppf t =
  Format.fprintf ppf
    "grid=%.0fum s_min=%.0fum w_max=%.0fum clock=%.1fGHz phases=%d window=%.1fps"
    t.grid t.s_min t.w_max t.clock_freq_ghz t.phases (phase_window_ps t)

let of_string source =
  let tech = ref default in
  let err = ref None in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun lineno line ->
      if !err = None then begin
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then
          match String.index_opt line '=' with
          | None ->
              err := Some (Printf.sprintf "line %d: expected key = value" (lineno + 1))
          | Some eq -> (
              let key = String.trim (String.sub line 0 eq) in
              let value =
                String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
              in
              let fl () =
                match float_of_string_opt value with
                | Some v when v > 0.0 -> v
                | _ ->
                    err :=
                      Some (Printf.sprintf "line %d: bad value for %s" (lineno + 1) key);
                    1.0
              in
              let it () =
                match int_of_string_opt value with
                | Some v when v > 0 -> v
                | _ ->
                    err :=
                      Some (Printf.sprintf "line %d: bad value for %s" (lineno + 1) key);
                    1
              in
              match key with
              | "grid" -> tech := { !tech with grid = fl () }
              | "s_min" -> tech := { !tech with s_min = fl () }
              | "w_max" -> tech := { !tech with w_max = fl () }
              | "row_gap" -> tech := { !tech with row_gap = fl () }
              | "clock_freq_ghz" -> tech := { !tech with clock_freq_ghz = fl () }
              | "phases" -> tech := { !tech with phases = it () }
              | "signal_velocity" -> tech := { !tech with signal_velocity = fl () }
              | "clock_velocity" -> tech := { !tech with clock_velocity = fl () }
              | "gate_delay_ps" -> tech := { !tech with gate_delay_ps = fl () }
              | "metal_layers" -> tech := { !tech with metal_layers = it () }
              | _ ->
                  err := Some (Printf.sprintf "line %d: unknown key %s" (lineno + 1) key))
      end)
    lines;
  match !err with Some e -> Error e | None -> Ok !tech

let of_file path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    of_string content
  with Sys_error msg -> Error msg
