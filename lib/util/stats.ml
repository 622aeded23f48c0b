let sum a = Array.fold_left ( +. ) 0.0 a

let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. log x) a;
    exp (!acc /. float_of_int (Array.length a))
  end

let stddev a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let m = mean a in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) a;
    sqrt (!acc /. float_of_int n)
  end
