let[@inline] skew_base ~row_width ~phase ~x_start ~x_end =
  match ((phase mod 4) + 4) mod 4 with
  | 0 -> x_end -. x_start
  | 1 -> x_end +. x_start
  | 2 -> -.x_end +. x_start
  | 3 -> (2.0 *. row_width) -. x_end -. x_start
  | _ -> assert false

let timing_cost ~row_width ~phase ~x_start ~x_end ~alpha =
  Float.max 0.0 (skew_base ~row_width ~phase ~x_start ~x_end) ** alpha
