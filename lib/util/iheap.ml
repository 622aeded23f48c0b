(* Indexed binary max-heap: heap.(slot) = key, pos.(key) = slot. *)

type t = {
  better : int -> int -> bool;
  mutable heap : int array;
  mutable pos : int array; (* -1 = not in heap *)
  mutable size : int;
}

let create ~better = { better; heap = Array.make 16 0; pos = [||]; size = 0 }

let mem t k = k < Array.length t.pos && t.pos.(k) >= 0

let ensure_pos t k =
  let n = Array.length t.pos in
  if k >= n then begin
    let p = Array.make (max (k + 1) (2 * n + 16)) (-1) in
    Array.blit t.pos 0 p 0 n;
    t.pos <- p
  end

let ensure_heap t =
  let n = Array.length t.heap in
  if t.size >= n then begin
    let h = Array.make (2 * n) 0 in
    Array.blit t.heap 0 h 0 n;
    t.heap <- h
  end

let place t k slot =
  t.heap.(slot) <- k;
  t.pos.(k) <- slot

let rec sift_up t k slot =
  if slot = 0 then place t k slot
  else
    let parent = (slot - 1) / 2 in
    let pk = t.heap.(parent) in
    if t.better k pk then begin
      place t pk slot;
      sift_up t k parent
    end
    else place t k slot

let rec sift_down t k slot =
  let l = (2 * slot) + 1 in
  if l >= t.size then place t k slot
  else begin
    let r = l + 1 in
    let best =
      if r < t.size && t.better t.heap.(r) t.heap.(l) then r else l
    in
    let bk = t.heap.(best) in
    if t.better bk k then begin
      place t bk slot;
      sift_down t k best
    end
    else place t k slot
  end

let insert t k =
  ensure_pos t k;
  if t.pos.(k) < 0 then begin
    ensure_heap t;
    let slot = t.size in
    t.size <- t.size + 1;
    sift_up t k slot
  end

let pop t =
  if t.size = 0 then None
  else begin
    let best = t.heap.(0) in
    t.pos.(best) <- -1;
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      sift_down t last 0
    end;
    Some best
  end

let update t k =
  if mem t k then begin
    let slot = t.pos.(k) in
    sift_up t k slot;
    if t.pos.(k) = slot then sift_down t k slot
  end
