(* Bucketed dial priority queue over non-negative integer keys with
   integer payloads — the open list of the router's A* core.

   A binary heap pays O(log n) per operation and compares boxed or
   float priorities; the router's costs live on an integer lattice
   (grid steps, via penalties and congestion prices are all quantized
   to 1/16 of a grid unit, see [Search]), so the queue can instead
   keep one FIFO bucket per distinct key and scan a cursor forward —
   O(1) pushes, pops amortized over the total key advance.

   Tie-break contract: keys pop in non-decreasing order, and equal
   keys pop in push (FIFO) order. This is stronger than the binary
   heap it replaces, whose order among equal priorities depended on
   heap shape; documenting FIFO makes every tie deterministic and
   independent of the push history that produced the heap shape.

   Keys need not arrive in non-decreasing order: a push below the
   cursor moves the cursor back. Buckets are paged (256 buckets per
   lazily-allocated page) so sparse, far-apart keys — late negotiation
   rounds price congestion steeply — cost memory proportional to the
   pages actually touched, and the cursor skips empty pages in one
   step. [clear] resets the queue for reuse without freeing anything,
   which is what lets a search arena recycle one queue across every
   net of a row pair. *)

type bucket = {
  mutable data : int array;
  mutable head : int; (* next element to pop *)
  mutable len : int; (* next free slot *)
}

type page = {
  mutable occupied : int; (* buckets with pending elements *)
  buckets : bucket array; (* 256 slots, [no_bucket] until first used *)
}

(* unallocated pages and buckets are the queue's own never-occupied
   sentinels, not options: one pointer hop less per push and per pop *)
type t = {
  mutable pages : page array; (* [no_page] until first used *)
  no_page : page;
  no_bucket : bucket;
  mutable cur : int; (* no pending key is below this *)
  mutable size : int;
  mutable popped_key : int; (* key of the value the last [pop] returned *)
  touched_buckets : bucket Vec.t; (* to reset on clear; may hold dups *)
  touched_pages : page Vec.t;
}

let page_bits = 8
let page_size = 1 lsl page_bits

let create () =
  {
    pages = [||];
    no_page = { occupied = 0; buckets = [||] };
    no_bucket = { data = [||]; head = 0; len = 0 };
    cur = 0;
    size = 0;
    popped_key = -1;
    touched_buckets = Vec.create ();
    touched_pages = Vec.create ();
  }

let length t = t.size
let is_empty t = t.size = 0

let clear t =
  Vec.iter
    (fun b ->
      b.head <- 0;
      b.len <- 0)
    t.touched_buckets;
  Vec.iter (fun p -> p.occupied <- 0) t.touched_pages;
  Vec.clear t.touched_buckets;
  Vec.clear t.touched_pages;
  t.cur <- 0;
  t.size <- 0

let[@inline] get_page t pi =
  let cap = Array.length t.pages in
  if pi >= cap then begin
    let pages = Array.make (max (pi + 1) (max 8 (2 * cap))) t.no_page in
    Array.blit t.pages 0 pages 0 cap;
    t.pages <- pages
  end;
  let p = t.pages.(pi) in
  if p != t.no_page then p
  else begin
    let p = { occupied = 0; buckets = Array.make page_size t.no_bucket } in
    t.pages.(pi) <- p;
    p
  end

let[@inline] get_bucket t page slot =
  let b = page.buckets.(slot) in
  if b != t.no_bucket then b
  else begin
    let b = { data = Array.make 4 0; head = 0; len = 0 } in
    page.buckets.(slot) <- b;
    b
  end

let push t key v =
  if key < 0 then invalid_arg "Dqueue.push: negative key";
  let page = get_page t (key lsr page_bits) in
  let b = get_bucket t page (key land (page_size - 1)) in
  if b.len = Array.length b.data then
    if b.head > 0 then begin
      (* reclaim the popped prefix before growing *)
      Array.blit b.data b.head b.data 0 (b.len - b.head);
      b.len <- b.len - b.head;
      b.head <- 0
    end
    else begin
      let data = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
  if b.head = b.len then begin
    (* bucket was empty: register it, and its page if it was idle *)
    if page.occupied = 0 then ignore (Vec.push t.touched_pages page);
    page.occupied <- page.occupied + 1;
    ignore (Vec.push t.touched_buckets b)
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1;
  if key < t.cur then t.cur <- key;
  t.size <- t.size + 1

(* Pop the value with the smallest key (FIFO among equal keys) and
   leave that key in [popped_key]; nothing is allocated. Callers test
   [is_empty] first. *)
let rec pop t =
  if t.size = 0 then invalid_arg "Dqueue.pop: empty queue";
  let page = t.pages.(t.cur lsr page_bits) in
  let b =
    if page.occupied > 0 then page.buckets.(t.cur land (page_size - 1)) else t.no_bucket
  in
  if b.head < b.len then begin
    let v = b.data.(b.head) in
    b.head <- b.head + 1;
    if b.head = b.len then begin
      b.head <- 0;
      b.len <- 0;
      page.occupied <- page.occupied - 1
    end;
    t.popped_key <- t.cur;
    t.size <- t.size - 1;
    v
  end
  else begin
    (* advance past an empty bucket, or past an idle page in one step *)
    t.cur <-
      (if page.occupied > 0 then t.cur + 1 else ((t.cur lsr page_bits) + 1) lsl page_bits);
    pop t
  end
