(* Wall-clock spans around every call e23 makes into a layer.

   A span has a name, a start, an end, the span that was open when it
   began (its parent) and the instance it belongs to; all spans of one
   stack instance share that instance id.  Spans stay in memory and are
   written once, at exit, as Chrome trace-event JSON.  With recording off
   (untraced runs) [with_] is the bare call, so end-to-end numbers carry
   no tracing cost. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  name : string;
  instance : int;
  parent : int;  (** -1 for a root span. *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let finished : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0

let with_ ~instance name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; name; instance; parent; start_ns = now_ns (); stop_ns = 0 } in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        open_spans := List.tl !open_spans;
        finished := s :: !finished)
      f
  end

(* Spans in start order. *)
let all () = List.sort (fun a b -> Int.compare a.id b.id) !finished

(* Self time: the span's duration minus the time its child spans cover
   (children never overlap: they nest on one thread). *)
let self_ns () =
  let spans = all () in
  let child = Array.make !next_id 0 in
  List.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.stop_ns - s.start_ns))
    spans;
  List.map (fun s -> (s, s.stop_ns - s.start_ns - child.(s.id))) spans

(* Per instance, the summed self time (ms) of the spans whose name is in
   [names]; one sample per instance that has any of them. *)
let self_ms_per_instance names =
  let per = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if List.mem s.name names then
        Hashtbl.replace per s.instance
          (self + Option.value ~default:0 (Hashtbl.find_opt per s.instance)))
    (self_ns ());
  List.sort Int.compare (List.of_seq (Hashtbl.to_seq_keys per))
  |> List.map (fun i -> float_of_int (Hashtbl.find per i) *. 1e-6)

let write_chrome path =
  let spans = all () in
  let origin = match spans with s :: _ -> s.start_ns | [] -> 0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"cat\":\"e23\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"instance\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        (float_of_int (s.start_ns - origin) *. 1e-3)
        (float_of_int (s.stop_ns - s.start_ns) *. 1e-3)
        s.id s.parent s.instance)
    spans;
  output_string oc "\n]}\n";
  close_out oc
