(* Centered interval tree: each interval lives in exactly one node (the
   highest whose center it straddles), so queries report without
   duplicates and in a deterministic structural order. *)

type node = {
  center : int;
  left : t;
  right : t;
  by_lo : (int * int * int) array; (* (lo, hi, idx), lo ascending *)
  by_hi : (int * int * int) array; (* (hi, lo, idx), hi descending *)
}

and t = Leaf | Node of node

let build intervals =
  let all =
    Array.to_list (Array.mapi (fun i (lo, hi) -> (min lo hi, max lo hi, i)) intervals)
  in
  let rec make = function
    | [] -> Leaf
    | ivs ->
        (* median of endpoints keeps the tree balanced enough *)
        let pts = List.concat_map (fun (lo, hi, _) -> [ lo; hi ]) ivs in
        let sorted = List.sort Int.compare pts in
        let center = List.nth sorted (List.length sorted / 2) in
        let here, left, right =
          List.fold_left
            (fun (here, left, right) ((lo, hi, _) as iv) ->
              if hi < center then (here, iv :: left, right)
              else if lo > center then (here, left, iv :: right)
              else (iv :: here, left, right))
            ([], [], []) ivs
        in
        (* straddling intervals always exist (the median endpoint's own
           interval straddles), so both sides strictly shrink *)
        Node
          {
            center;
            left = make (List.rev left);
            right = make (List.rev right);
            by_lo =
              Array.of_list
                (List.sort
                   (fun (a, _, i) (b, _, j) ->
                     match Int.compare a b with 0 -> Int.compare i j | c -> c)
                   here);
            by_hi =
              Array.of_list
                (List.map (fun (lo, hi, i) -> (hi, lo, i)) here
                |> List.sort (fun (a, _, i) (b, _, j) ->
                       match Int.compare b a with
                       | 0 -> Int.compare j i
                       | c -> c));
          }
  in
  make all

let rec query t lo hi f =
  match t with
  | Leaf -> ()
  | Node n ->
      Array.iter
        (fun (l, h, idx) -> if l <= hi && h >= lo then f idx)
        n.by_lo;
      if lo < n.center then query n.left lo hi f;
      if hi > n.center then query n.right lo hi f
