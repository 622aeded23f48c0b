(* Tests for the sf_util substrate: dial queue, union-find, vector,
   RNG, geometry, stats, tables. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------- Dqueue ---------- *)

let popij = Alcotest.(option (pair int int))

(* [Dqueue.pop] returns the value and leaves the key in [popped_key];
   this views one pop as the (key, value) pair, or [None] when empty *)
let pop_kv q =
  if Dqueue.is_empty q then None
  else
    let v = Dqueue.pop q in
    Some (q.Dqueue.popped_key, v)

let test_dqueue_basic () =
  let q = Dqueue.create () in
  checkb "empty" true (Dqueue.is_empty q);
  Dqueue.push q 5 50;
  Dqueue.push q 3 30;
  Dqueue.push q 5 51;
  checki "length" 3 (Dqueue.length q);
  check popij "min key first" (Some (3, 30)) (pop_kv q);
  check popij "fifo within key" (Some (5, 50)) (pop_kv q);
  (* a push below the cursor must still come out first *)
  Dqueue.push q 1 10;
  check popij "cursor moves back" (Some (1, 10)) (pop_kv q);
  check popij "rest" (Some (5, 51)) (pop_kv q);
  check popij "drained" None (pop_kv q);
  (* clear with a far key (second page) pending, then reuse *)
  Dqueue.push q 700 7;
  Dqueue.clear q;
  checkb "cleared" true (Dqueue.is_empty q);
  Dqueue.push q 2 20;
  check popij "reusable after clear" (Some (2, 20)) (pop_kv q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Dqueue.pop: empty queue")
    (fun () -> ignore (Dqueue.pop q))

(* The documented contract, checked against an executable model: keys
   pop in non-decreasing order and equal keys pop in push (FIFO)
   order. The model is a stable insertion sort, so any divergence —
   including a nondeterministic tie-break like the binary heap's —
   fails the property. Keys span several 256-bucket pages and pops
   interleave with pushes (exercising cursor moves in both
   directions). *)
let prop_dqueue_matches_model =
  QCheck.Test.make ~name:"dqueue matches stable sorted-FIFO model" ~count:300
    QCheck.(list (pair bool (int_bound 600)))
    (fun ops ->
      let q = Dqueue.create () in
      let model = ref [] in
      let insert k v =
        let rec go = function
          | ((k', _) :: _) as rest when k' > k -> (k, v) :: rest
          | kv :: rest -> kv :: go rest
          | [] -> [ (k, v) ]
        in
        model := go !model
      in
      let counter = ref 0 in
      List.for_all
        (fun (is_push, key) ->
          if is_push then begin
            incr counter;
            Dqueue.push q key !counter;
            insert key !counter;
            Dqueue.length q = List.length !model
          end
          else
            match (pop_kv q, !model) with
            | None, [] -> true
            | Some (k, v), (mk, mv) :: rest ->
                model := rest;
                k = mk && v = mv
            | _ -> false)
        ops
      && List.for_all (fun (mk, mv) -> pop_kv q = Some (mk, mv)) !model
      && pop_kv q = None)

(* Same priority sequence as a reference priority queue (a multiset of
   keys in a balanced map, popped from its minimum binding), under
   interleaved pushes and pops dense with duplicate priorities. Only
   the popped priorities are compared; tie order is the model
   property's concern. *)
module Int_map = Map.Make (Int)

let prop_dqueue_order_matches_pqueue =
  QCheck.Test.make ~name:"dqueue priority order matches pqueue" ~count:200
    QCheck.(list (pair bool (int_bound 40)))
    (fun ops ->
      let dq = Dqueue.create () in
      let pq = ref Int_map.empty and pq_len = ref 0 in
      let pq_push k =
        pq := Int_map.update k (fun c -> Some (1 + Option.value c ~default:0)) !pq;
        incr pq_len
      in
      let pq_pop () =
        match Int_map.min_binding_opt !pq with
        | None -> None
        | Some (k, c) ->
            pq := if c = 1 then Int_map.remove k !pq else Int_map.add k (c - 1) !pq;
            decr pq_len;
            Some k
      in
      List.for_all
        (fun (is_push, key) ->
          if is_push then begin
            Dqueue.push dq key key;
            pq_push key;
            Dqueue.length dq = !pq_len
          end
          else
            match (pop_kv dq, pq_pop ()) with
            | None, None -> true
            | Some (k, _), Some p -> k = p
            | _ -> false)
        ops
      &&
      let rec drain () =
        match (pop_kv dq, pq_pop ()) with
        | None, None -> true
        | Some (k, _), Some p -> k = p && drain ()
        | _ -> false
      in
      drain ())

(* ---------- Union_find ---------- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  let same a b = Union_find.find uf a = Union_find.find uf b in
  let sets () =
    List.length (List.sort_uniq compare (List.init 5 (Union_find.find uf)))
  in
  checki "initial sets" 5 (sets ());
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  checkb "0~1" true (same 0 1);
  checkb "0!~2" false (same 0 2);
  Union_find.union uf 1 2;
  checkb "0~3 transitively" true (same 0 3);
  checki "sets" 2 (sets ());
  Union_find.union uf 0 3;
  checki "idempotent union" 2 (sets ())

(* ---------- Vec ---------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    checki "index" i (Vec.push v (i * 2))
  done;
  checki "length" 100 (Vec.length v);
  checki "get 50" 100 (Vec.get v 50);
  Vec.set v 50 7;
  checki "set" 7 (Vec.get v 50);
  check Alcotest.(option int) "pop" (Some 198) (Vec.pop v);
  checki "length after pop" 99 (Vec.length v)

let vec_of_list l =
  let v = Vec.create () in
  List.iter (fun x -> ignore (Vec.push v x)) l;
  v

let test_vec_bounds () =
  let v = vec_of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_iterators () =
  let v = vec_of_list [ 1; 2; 3; 4 ] in
  checki "fold" 10 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  check Alcotest.(list int) "iter order" [ 4; 3; 2; 1 ] !acc;
  check Alcotest.(array int) "to_array" [| 1; 2; 3; 4 |] (Vec.to_array v)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "in range" true (x >= 0 && x < 17);
    let f = Rng.float rng 3.5 in
    checkb "float range" true (f >= 0.0 && f < 3.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 99 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

(* ---------- Geom ---------- *)

let test_geom_ops () =
  let r = Geom.rect_of_size ~x:10.0 ~y:20.0 ~w:30.0 ~h:40.0 in
  checkf "width" 30.0 (Geom.width r);
  checkf "height" 40.0 (Geom.height r);
  checkf "area" 1200.0 (Geom.area r);
  let u = Geom.union_rect r (Geom.rect 0.0 0.0 5.0 5.0) in
  checkf "union lx" 0.0 u.Geom.lx;
  checkf "union hx" 40.0 u.Geom.hx

let test_geom_invalid () =
  Alcotest.check_raises "negative extent" (Invalid_argument "Geom.rect: negative extent")
    (fun () -> ignore (Geom.rect 10.0 0.0 0.0 10.0))

(* ---------- Stats ---------- *)

let test_stats () =
  checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  checkf "sum" 10.0 (Stats.sum [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "stddev" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |])

(* ---------- Table ---------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  loop 0

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  checkb "contains alpha" true (contains_sub s "alpha");
  checkb "contains header" true (contains_sub s "value");
  (* all lines share the same width *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  checkb "uniform width" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_formats () =
  check Alcotest.string "fmt_int" "12,345" (Table.fmt_int 12345);
  check Alcotest.string "fmt_int small" "7" (Table.fmt_int 7);
  check Alcotest.string "fmt_int negative" "-1,000" (Table.fmt_int (-1000));
  check Alcotest.string "fmt_float" "3.1" (Table.fmt_float 3.14159);
  check Alcotest.string "fmt_float dec" "3.142" (Table.fmt_float ~dec:3 3.14159)

(* ---------- Diag JSON escaping ---------- *)

(* inverse of [Diag.json_escape] for the round-trip property: every
   [\u00XX] escape denotes exactly one raw input byte *)
let json_unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then (
       match s.[!i + 1] with
       | '"' -> Buffer.add_char buf '"'; incr i
       | '\\' -> Buffer.add_char buf '\\'; incr i
       | 'n' -> Buffer.add_char buf '\n'; incr i
       | 't' -> Buffer.add_char buf '\t'; incr i
       | 'r' -> Buffer.add_char buf '\r'; incr i
       | 'b' -> Buffer.add_char buf '\b'; incr i
       | 'f' -> Buffer.add_char buf '\012'; incr i
       | 'u' ->
           let code = int_of_string ("0x" ^ String.sub s (!i + 2) 4) in
           Buffer.add_char buf (Char.chr code);
           i := !i + 5
       | c -> Buffer.add_char buf c; incr i)
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let test_json_escape_units () =
  check Alcotest.string "quote" "a\\\"b" (Diag.json_escape "a\"b");
  check Alcotest.string "backslash" "a\\\\b" (Diag.json_escape "a\\b");
  check Alcotest.string "newline" "a\\nb" (Diag.json_escape "a\nb");
  check Alcotest.string "cr" "a\\rb" (Diag.json_escape "a\rb");
  check Alcotest.string "formfeed" "a\\fb" (Diag.json_escape "a\012b");
  check Alcotest.string "nul" "\\u0000" (Diag.json_escape "\000");
  check Alcotest.string "del" "\\u007f" (Diag.json_escape "\127");
  (* well-formed UTF-8 passes through verbatim *)
  check Alcotest.string "2-byte utf8" "h\xc3\xa9llo" (Diag.json_escape "h\xc3\xa9llo");
  check Alcotest.string "4-byte utf8" "\xf0\x9f\x99\x82" (Diag.json_escape "\xf0\x9f\x99\x82");
  (* ill-formed bytes escape individually *)
  check Alcotest.string "lone 0xff" "\\u00ff" (Diag.json_escape "\xff");
  check Alcotest.string "truncated lead" "\\u00c3" (Diag.json_escape "\xc3");
  check Alcotest.string "bare continuation" "\\u0080" (Diag.json_escape "\x80");
  check Alcotest.string "overlong" "\\u00c0\\u00af" (Diag.json_escape "\xc0\xaf");
  check Alcotest.string "surrogate" "\\u00ed\\u00a0\\u0080" (Diag.json_escape "\xed\xa0\x80")

let prop_json_escape_roundtrip =
  QCheck.Test.make ~name:"json_escape round-trips arbitrary bytes" ~count:1000
    QCheck.string
    (fun s -> json_unescape (Diag.json_escape s) = s)

let prop_json_escape_clean =
  QCheck.Test.make ~name:"json_escape output has no raw control/quote bytes"
    ~count:1000 QCheck.string (fun s ->
      let out = Diag.json_escape s in
      let ok = ref true in
      String.iteri
        (fun i c ->
          if Char.code c < 0x20 || Char.code c = 0x7f then ok := false;
          if c = '"' && (i = 0 || out.[i - 1] <> '\\') then ok := false)
        out;
      !ok)

let prop_json_escape_diag_line =
  QCheck.Test.make ~name:"to_json with arbitrary witness stays one line"
    ~count:500 QCheck.string (fun s ->
      let d = Diag.error ~witness:[ s ] ~rule:"TEST-JSON-01" Diag.Global "m" in
      not (String.contains (Diag.to_json d) '\n'))

let () =
  Alcotest.run "sf_util"
    [
      ( "dqueue",
        [
          Alcotest.test_case "basic" `Quick test_dqueue_basic;
          QCheck_alcotest.to_alcotest prop_dqueue_matches_model;
          QCheck_alcotest.to_alcotest prop_dqueue_order_matches_pqueue;
        ] );
      ("union_find", [ Alcotest.test_case "basic" `Quick test_uf_basic ]);
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "geom",
        [
          Alcotest.test_case "ops" `Quick test_geom_ops;
          Alcotest.test_case "invalid" `Quick test_geom_invalid;
        ] );
      ("stats", [ Alcotest.test_case "summaries" `Quick test_stats ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "diag_json",
        [
          Alcotest.test_case "escape units" `Quick test_json_escape_units;
          QCheck_alcotest.to_alcotest prop_json_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_escape_clean;
          QCheck_alcotest.to_alcotest prop_json_escape_diag_line;
        ] );
    ]
