type net_timing = {
  net : int;
  slack_ps : float;
  flight_ps : float;
  skew_ps : float;
}

type report = {
  wns_ps : float;
  tns_ps : float;
  violations : int;
  worst : net_timing list;
}

let net_slack_ps p ~row_width ni =
  let tech = p.Problem.tech in
  let e = p.Problem.nets.(ni) in
  let phase = p.Problem.cells.(e.Problem.src).Problem.row in
  let xs = Problem.pin_x p ni `Src in
  let xd = Problem.pin_x p ni `Dst in
  let window = Tech.phase_window_ps tech in
  let flight_ps =
    Problem.net_length p p.Problem.nets.(ni) /. tech.Tech.signal_velocity
  in
  let base = Clocking.skew_base ~row_width ~phase ~x_start:xs ~x_end:xd in
  let skew_ps = Float.max 0.0 base /. tech.Tech.clock_velocity in
  let slack_ps = window -. tech.Tech.gate_delay_ps -. flight_ps -. skew_ps in
  { net = ni; slack_ps; flight_ps; skew_ps }

(* wns/tns/violations over all nets, then the 10 worst; sorts [timings] *)
let summarize timings =
  let n = Array.length timings in
  let wns = ref infinity and tns = ref 0.0 and violations = ref 0 in
  Array.iter
    (fun t ->
      if t.slack_ps < !wns then wns := t.slack_ps;
      if t.slack_ps < 0.0 then begin
        incr violations;
        tns := !tns +. t.slack_ps
      end)
    timings;
  Array.sort (fun a b -> Float.compare a.slack_ps b.slack_ps) timings;
  {
    wns_ps = (if n = 0 then 0.0 else !wns);
    tns_ps = !tns;
    violations = !violations;
    worst = Array.to_list (Array.sub timings 0 (min 10 n));
  }

let analyze p =
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let n = Array.length p.Problem.nets in
  summarize (Array.init n (fun ni -> net_slack_ps p ~row_width ni))

let meets_timing r = r.wns_ps >= 0.0

let pp_report ppf r =
  if meets_timing r then Format.fprintf ppf "timing met (wns=+%.1fps)" r.wns_ps
  else
    Format.fprintf ppf "wns=%.1fps tns=%.1fps violations=%d" r.wns_ps r.tns_ps
      r.violations

let slack_histogram p =
  let buckets = 10 in
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let n = Array.length p.Problem.nets in
  if n = 0 then [||]
  else begin
    let slacks = Array.init n (fun ni -> (net_slack_ps p ~row_width ni).slack_ps) in
    let lo = Array.fold_left Float.min infinity slacks in
    let hi = Array.fold_left Float.max neg_infinity slacks in
    let span = Float.max 1e-9 (hi -. lo) in
    let counts = Array.make buckets 0 in
    Array.iter
      (fun s ->
        let b = int_of_float ((s -. lo) /. span *. float_of_int buckets) in
        let b = min (buckets - 1) (max 0 b) in
        counts.(b) <- counts.(b) + 1)
      slacks;
    Array.init buckets (fun b ->
        ( lo +. (span *. float_of_int b /. float_of_int buckets),
          lo +. (span *. float_of_int (b + 1) /. float_of_int buckets),
          counts.(b) ))
  end

let per_row_wns p =
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let wns = Array.make (max 1 (p.Problem.n_rows - 1)) infinity in
  Array.iteri
    (fun ni e ->
      let r = p.Problem.cells.(e.Problem.src).Problem.row in
      if r < Array.length wns then begin
        let s = (net_slack_ps p ~row_width ni).slack_ps in
        if s < wns.(r) then wns.(r) <- s
      end)
    p.Problem.nets;
  wns

let pp_histogram ppf hist =
  Array.iter
    (fun (lo, hi, count) ->
      let bar = String.make (min 60 count) '#' in
      Format.fprintf ppf "[%8.1f, %8.1f) %5d %s@." lo hi count bar)
    hist

let fmax_ghz p =
  let tech = p.Problem.tech in
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let k_max =
    Array.to_list p.Problem.nets
    |> List.mapi (fun ni _ ->
           let t = net_slack_ps p ~row_width ni in
           tech.Tech.gate_delay_ps +. t.flight_ps +. t.skew_ps)
    |> List.fold_left Float.max tech.Tech.gate_delay_ps
  in
  1000.0 /. (float_of_int tech.Tech.phases *. k_max)

let analyze_routed p (routed : Router.result) =
  let tech = p.Problem.tech in
  let row_width = Float.max 1.0 (Problem.row_width p) in
  let n = Array.length p.Problem.nets in
  let timings =
    Array.init n (fun ni ->
        let t = net_slack_ps p ~row_width ni in
        (* replace the Manhattan flight with the routed length *)
        let routed_flight =
          routed.Router.routes.(ni).Router.length /. tech.Tech.signal_velocity
        in
        let slack_ps = t.slack_ps +. t.flight_ps -. routed_flight in
        { t with flight_ps = routed_flight; slack_ps })
  in
  summarize timings
