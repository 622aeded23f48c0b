(* ~1.4 zJ per JJ switching event at adiabatic ramp rates, ~1 fJ per
   minimum-size CMOS gate event, and 10% extra AC-bias loss *)
let joules_per_jj_switch = 1.4e-21
let cmos_joules_per_gate = 1e-15
let static_fraction = 0.1

type report = {
  jj_count : int;
  gate_count : int;
  energy_per_cycle_j : float;
  power_w : float;
  cmos_energy_per_cycle_j : float;
  efficiency_gain : float;
}

let of_netlist tech nl =
  let jj_count = Cell.netlist_jj_count nl in
  let gate_count =
    Netlist.count_kind nl (function
      | Netlist.Output | Netlist.Input -> false
      | _ -> true)
  in
  let switching = float_of_int jj_count *. joules_per_jj_switch in
  let energy_per_cycle_j = switching *. (1.0 +. static_fraction) in
  let power_w = energy_per_cycle_j *. tech.Tech.clock_freq_ghz *. 1e9 in
  let cmos_energy_per_cycle_j =
    float_of_int gate_count *. cmos_joules_per_gate
  in
  let efficiency_gain =
    if energy_per_cycle_j > 0.0 then cmos_energy_per_cycle_j /. energy_per_cycle_j
    else 0.0
  in
  { jj_count; gate_count; energy_per_cycle_j; power_w; cmos_energy_per_cycle_j;
    efficiency_gain }

let pp ppf r =
  Format.fprintf ppf
    "%d JJ / %d gates: %.3g J/cycle (%.3g W at clock), CMOS-equivalent %.3g J/cycle, gain %.1fx"
    r.jj_count r.gate_count r.energy_per_cycle_j r.power_w
    r.cmos_energy_per_cycle_j r.efficiency_gain
