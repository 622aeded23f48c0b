type tier = Fast | Full

let tier_name = function Fast -> "fast" | Full -> "full"

let tier_of_string = function
  | "fast" -> Ok Fast
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown tier %S (fast|full)" s)

type pass = { name : string; run : unit -> Diag.t list }

let pass name run = { name; run }
let of_diags name diags = { name; run = (fun () -> diags) }

type pass_stat = { pass_name : string; n_diags : int; seconds : float }

type report = {
  header : (string * string) list;
  diags : Diag.t list;
  stats : pass_stat list;
}

let run ?(header = []) passes =
  let stats = ref [] and diags = ref [] in
  List.iter
    (fun p ->
      let ds, seconds =
        Wallclock.time (fun () ->
            try p.run ()
            with exn ->
              [
                Diag.error ~rule:"CHECK-CRASH-01" Diag.Global
                  "pass %S raised: %s" p.name (Printexc.to_string exn);
              ])
      in
      stats :=
        { pass_name = p.name; n_diags = List.length ds; seconds } :: !stats;
      diags := List.rev_append ds !diags)
    passes;
  { header; diags = List.rev !diags; stats = List.rev !stats }

let errors r = Diag.count Diag.Error r.diags
let warnings r = Diag.count Diag.Warning r.diags
let infos r = Diag.count Diag.Info r.diags
let ok r = errors r = 0

let summary_line r =
  Printf.sprintf "check: %d error(s), %d warning(s), %d info note(s) across %d pass(es)"
    (errors r) (warnings r) (infos r)
    (List.length r.stats)

let render_text r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "# %s: %s\n" k v))
    r.header;
  List.iter
    (fun d ->
      Buffer.add_string buf (Diag.to_string d);
      Buffer.add_char buf '\n')
    r.diags;
  Buffer.add_string buf (summary_line r);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 256 in
  if r.header <> [] then
    Buffer.add_string buf
      (Printf.sprintf "{\"header\":{%s}}\n"
         (String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%S:%S" k v)
               r.header)));
  List.iter
    (fun d ->
      Buffer.add_string buf (Diag.to_json d);
      Buffer.add_char buf '\n')
    r.diags;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"summary\":{\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"passes\":%d}}\n"
       (errors r) (warnings r) (infos r)
       (List.length r.stats));
  Buffer.contents buf

let total_seconds r =
  List.fold_left (fun acc s -> acc +. s.seconds) 0.0 r.stats

let pp_summary ppf r = Format.pp_print_string ppf (summary_line r)
