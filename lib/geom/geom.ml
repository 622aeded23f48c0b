type point = { x : float; y : float }
type rect = { lx : float; ly : float; hx : float; hy : float }

let pt x y = { x; y }

let rect lx ly hx hy =
  if hx < lx || hy < ly then invalid_arg "Geom.rect: negative extent";
  { lx; ly; hx; hy }

let rect_of_size ~x ~y ~w ~h = rect x y (x +. w) (y +. h)

let width r = r.hx -. r.lx
let height r = r.hy -. r.ly
let area r = width r *. height r

let union_rect a b =
  { lx = Float.min a.lx b.lx;
    ly = Float.min a.ly b.ly;
    hx = Float.max a.hx b.hx;
    hy = Float.max a.hy b.hy }

let dist_manhattan a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)
