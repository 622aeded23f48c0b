let nm_per_um = 1000

let of_um x = int_of_float (Float.round (x *. float_of_int nm_per_um))

let to_um n = float_of_int n /. float_of_int nm_per_um

let um_str n = Printf.sprintf "%.3f" (to_um n)

type irect = { lx : int; ly : int; hx : int; hy : int }

let width r = r.hx - r.lx
let height r = r.hy - r.ly
let area r = width r * height r

let expand r d = { lx = r.lx - d; ly = r.ly - d; hx = r.hx + d; hy = r.hy + d }

let overlaps a b = a.lx < b.hx && b.lx < a.hx && a.ly < b.hy && b.ly < a.hy

let touches a b = a.lx <= b.hx && b.lx <= a.hx && a.ly <= b.hy && b.ly <= a.hy

let inter_area a b =
  let w = min a.hx b.hx - max a.lx b.lx in
  let h = min a.hy b.hy - max a.ly b.ly in
  if w > 0 && h > 0 then w * h else 0

let gap_1d al ah bl bh = if bh < al then al - bh else if ah < bl then bl - ah else 0

let gap_x a b = gap_1d a.lx a.hx b.lx b.hx
let gap_y a b = gap_1d a.ly a.hy b.ly b.hy

let sep2 a b =
  let dx = gap_x a b and dy = gap_y a b in
  (dx * dx) + (dy * dy)

(* midpoint of the overlap (or gap) interval of the two projections;
   integer halving is fine — the point only has to be deterministic and
   lie between the shapes *)
let approach_1d al ah bl bh =
  if bh < al then (bh + al) / 2
  else if ah < bl then (ah + bl) / 2
  else (max al bl + min ah bh) / 2

let approach a b =
  (approach_1d a.lx a.hx b.lx b.hx, approach_1d a.ly a.hy b.ly b.hy)

let on_grid ~grid x = x mod grid = 0

(* closed 1-D cover: the union of [ivs] contains every point of
   [lo, hi] (touching intervals chain) *)
let union_covers lo hi ivs =
  let ivs = List.filter (fun (l, h) -> h >= lo && l <= hi) ivs in
  let cmp_iv (l1, h1) (l2, h2) =
    match Int.compare l1 l2 with 0 -> Int.compare h1 h2 | c -> c
  in
  match List.sort cmp_iv ivs with
  | [] -> false
  | (l0, h0) :: rest ->
      if l0 > lo then false
      else
        let rec go reach = function
          | [] -> reach >= hi
          | (l, h) :: tl ->
              if l > reach then false else go (max reach h) tl
        in
        go h0 rest

(* Scanline cover test. Vertical slab edges only occur at rectangle
   x-coordinates, so inside each open slab the covering set is constant
   and the 2-D question reduces to a 1-D union per slab; the closed
   boundary lines come for free because the rects covering each open
   slab are themselves closed. *)
let covered target by =
  let by = List.filter (fun r -> touches r target) by in
  if target.lx = target.hx then
    (* degenerate vertical line *)
    union_covers target.ly target.hy
      (List.filter_map
         (fun r ->
           if r.lx <= target.lx && target.lx <= r.hx then Some (r.ly, r.hy)
           else None)
         by)
  else begin
    let xs =
      List.concat_map (fun r -> [ r.lx; r.hx ]) by
      |> List.filter (fun x -> x > target.lx && x < target.hx)
      |> List.sort_uniq Int.compare
    in
    let xs = (target.lx :: xs) @ [ target.hx ] in
    let rec slabs = function
      | x0 :: (x1 :: _ as rest) ->
          let ivs =
            List.filter_map
              (fun r -> if r.lx <= x0 && r.hx >= x1 then Some (r.ly, r.hy) else None)
              by
          in
          union_covers target.ly target.hy ivs && slabs rest
      | _ -> true
    in
    slabs xs
  end
