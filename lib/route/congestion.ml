(* Channel density by sweep line: +1 at each net's left pin x, -1 just
   after its right pin x; the running maximum is the density. *)
let channel_density p r =
  let events = ref [] in
  Array.iteri
    (fun ni e ->
      if p.Problem.cells.(e.Problem.src).Problem.row = r then begin
        let xs = Problem.pin_x p ni `Src and xd = Problem.pin_x p ni `Dst in
        let lo = Float.min xs xd and hi = Float.max xs xd in
        events := (lo, 1) :: (hi +. 1e-6, -1) :: !events
      end)
    p.Problem.nets;
  let sorted =
    List.sort
      (fun (x1, d1) (x2, d2) ->
        match Float.compare x1 x2 with 0 -> Int.compare d1 d2 | c -> c)
      !events
  in
  let cur = ref 0 and best = ref 0 in
  List.iter
    (fun (_, d) ->
      cur := !cur + d;
      if !cur > !best then best := !cur)
    sorted;
  !best

let densities p =
  Array.init (max 0 (p.Problem.n_rows - 1)) (fun r -> channel_density p r)

(* A gap of height g offers about g / grid - 1 horizontal tracks (the
   boundary lines are reserved for pins and the previous pair). *)
let tracks_of_gap p r =
  let grid = p.Problem.tech.Tech.grid in
  max 0 (int_of_float (p.Problem.row_gaps.(r) /. grid) - 1)

let preexpand p =
  let tech = p.Problem.tech in
  let widened = ref 0 in
  Array.iteri
    (fun r density ->
      (* channel density is a worst-case bound; most nets share tracks
         over disjoint x-ranges, so provision 85% of it and let the
         router's reactive expansion absorb the remainder *)
      let need = int_of_float (ceil (0.85 *. float_of_int density)) in
      let have = tracks_of_gap p r in
      if need > have then begin
        p.Problem.row_gaps.(r) <-
          p.Problem.row_gaps.(r)
          +. (float_of_int (need - have) *. tech.Tech.grid);
        incr widened
      end)
    (densities p);
  !widened
