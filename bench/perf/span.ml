(* In-memory span recorder for the benchmark's traced pass.

   A span is one call into a layer of the flow, wrapped from the
   benchmark's side: name, start, end, the enclosing span and the
   design run it belongs to. Spans stay in memory and are written as
   Chrome trace-event JSON when the benchmark ends. When recording is
   off, [record] costs one flag test. *)

type t = {
  name : string;
  run : int;  (** design-run id shared by every span of one run *)
  id : int;
  parent : int;  (** enclosing span id, -1 for a run's root span *)
  t0 : float;
  t1 : float;
  cpu : float;  (** process CPU seconds spent inside the span *)
}

let on = ref false
let run_id = ref 0
let spans : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

(* The benchmark's one CPU-time read: it feeds only the [*.cpu_util]
   metrics and never reaches a flow output. *)
let cpu_s () =
  (* sl-ignore: SL-TIME-01 CPU time is reported next to wall time, never used as it *)
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let reset () =
  spans := [];
  open_ids := [];
  next_id := 0;
  run_id := 0

let record name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let c0 = cpu_s () and t0 = Wallclock.now_s () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Wallclock.now_s () in
        let cpu = cpu_s () -. c0 in
        open_ids := List.tl !open_ids;
        spans := { name; run = !run_id; id; parent; t0; t1; cpu } :: !spans)
  end

(* A run's root span; its children are the layer calls. *)
let run name f =
  incr run_id;
  record ("run:" ^ name) f

(* The layer a span belongs to: its name up to the first dot. *)
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Duration minus the part covered by child spans (children of one
   span never overlap: the replay calls layers one after another). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let write_chrome path ~pid spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = (t -. base) *. 1e6 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
             \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"id\": %d, \
             \"parent\": %d, \"cpu_s\": %.6f}}"
            (if i = 0 then "" else ",")
            (Diag.json_escape s.name) (layer s) (us s.t0) (us s.t1 -. us s.t0)
            pid s.run s.id s.parent s.cpu)
        (List.sort (fun a b -> Int.compare a.id b.id) spans);
      output_string oc "\n]}\n")
