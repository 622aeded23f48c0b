type t = { parent : int array; rank : int array }

let create n =
  { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
    else if t.rank.(ra) > t.rank.(rb) then t.parent.(rb) <- ra
    else begin
      t.parent.(rb) <- ra;
      t.rank.(ra) <- t.rank.(ra) + 1
    end
  end
