(* Queries over an imported trace (Trace_import): filtering, the
   happens-before cone of an event, the QoS rollup, and line-level
   diffing of two exports. *)

module Trace = Sim.Trace

let component_of : Trace.body -> string option = function
  | Send { component; _ } | Deliver { component; _ } | Drop { component; _ }
  | Fd_view { component; _ } | Span_begin { component; _ } | Span_end { component; _ } ->
    Some component
  | Crash _ | Propose _ | Decide _ | Note _ -> None

(* An event "involves" a process if it happens there, or if it is a link
   event with that endpoint. *)
let involves p (body : Trace.body) =
  match body with
  | Send { src; dst; _ } | Deliver { src; dst; _ } | Drop { src; dst; _ } ->
    Sim.Pid.equal src p || Sim.Pid.equal dst p
  | _ -> Option.equal Sim.Pid.equal (Trace.pid_of body) (Some p)

let matches ?component ?pid ?from_t ?to_t (e : Trace.event) =
  let at = Trace.time_of e.body in
  (match component with
  | None -> true
  | Some c -> Option.equal String.equal (component_of e.body) (Some c))
  && (match pid with None -> true | Some p -> involves p e.body)
  && (match from_t with None -> true | Some t -> at >= t)
  && match to_t with None -> true | Some t -> at <= t

let filter ?component ?pid ?from_t ?to_t trace =
  List.filter (matches ?component ?pid ?from_t ?to_t) (Trace.events trace)

let first_decide ?pid trace =
  Seq.find
    (fun (e : Trace.event) ->
      match e.body with
      | Decide { pid = q; _ } -> Option.fold pid ~none:true ~some:(Sim.Pid.equal q)
      | _ -> false)
    (Trace.to_seq trace)

let find_seq ~seq trace = Seq.find (fun (e : Trace.event) -> e.seq = seq) (Trace.to_seq trace)

(* The happens-before cone of a target event: walk immediate causal
   predecessors backwards to a fixpoint.  Immediate predecessors of e:
   - the latest earlier event at the same process (program order);
   - for a deliver or a drop, the send of the same message id.
   Everything reachable is in the cone; the result includes the target and
   comes back in seq order. *)
let ancestry trace ~seq:target =
  let events = Array.of_seq (Trace.to_seq trace) in
  (* prev.(s) = seq of the previous event at event s's process, or -1. *)
  let prev = Array.make (Array.length events) (-1) in
  let last_at_pid = Hashtbl.create 16 and send_of_msg = Hashtbl.create 256 in
  Array.iter
    (fun (e : Trace.event) ->
      (match Trace.pid_of e.body with
      | Some p ->
        Option.iter (fun s -> prev.(e.seq) <- s) (Hashtbl.find_opt last_at_pid p);
        Hashtbl.replace last_at_pid p e.seq
      | None -> ());
      match e.body with Send { msg; _ } -> Hashtbl.replace send_of_msg msg e.seq | _ -> ())
    events;
  let in_cone = Array.make (Array.length events) false in
  let rec visit s =
    if s >= 0 && s < Array.length events && not in_cone.(s) then begin
      in_cone.(s) <- true;
      visit prev.(s);
      match events.(s).body with
      | Deliver { msg; _ } | Drop { msg; _ } -> Option.iter visit (Hashtbl.find_opt send_of_msg msg)
      | _ -> ()
    end
  in
  visit target;
  List.filter (fun (e : Trace.event) -> in_cone.(e.seq)) (Array.to_list events)

(* Raised by [rollup ~component] when [component] records no view
   change in the trace; the message names the components that do. *)
exception Not_a_detector of string

(* The QoS rollup `ecfd qos` prints, over an imported trace: one scenario
   per failure-detector component (or just [component], which must be
   one of them), named after the component.  n defaults to the largest
   pid the trace mentions + 1 and the horizon to its last event time;
   with the run's own n and horizon the result is byte-identical to the
   in-process rollup. *)
let rollup ?n ?horizon ?component trace =
  let max_pid = ref (-1) and last_at = ref 0 in
  let see p = max_pid := max !max_pid p in
  Trace.iter trace (fun e ->
      last_at := max !last_at (Trace.time_of e.body);
      Option.iter see (Trace.pid_of e.body);
      match e.body with
      | Send { dst = q; _ } | Deliver { src = q; _ } -> see q
      | Drop { src; dst; _ } -> see (max src dst)
      | Fd_view { suspected; trusted; _ } -> Sim.Pid.Set.iter see suspected; Option.iter see trusted
      | _ -> ());
  let n = max 1 (Option.value n ~default:(!max_pid + 1)) in
  let horizon = Option.value horizon ~default:!last_at in
  let detectors = Sim.Trace_qos.components trace in
  let components =
    match component with
    | None -> detectors
    | Some c when List.mem c detectors -> [ c ]
    | Some c ->
      raise
        (Not_a_detector
           (Printf.sprintf "component %S records no fd_view; detector components in this trace: %s"
              c
              (match detectors with [] -> "none" | ds -> String.concat ", " ds)))
  in
  Obs.Rollup.to_json
    (List.map
       (fun c ->
         { Obs.Rollup.name = c; component = c;
           report = Sim.Trace_qos.report ~component:c ~n ~horizon trace })
       components)

type divergence = {
  line : int;  (* 1-based *)
  left : string option;  (* [None] = left file ended first *)
  right : string option;
}

(* First line where the two exports differ; [None] = identical. *)
let diff_lines a b =
  let rec walk i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
      if String.equal x y then walk (i + 1) a' b'
      else Some { line = i; left = Some x; right = Some y }
    | x :: _, [] -> Some { line = i; left = Some x; right = None }
    | [], y :: _ -> Some { line = i; left = None; right = Some y }
  in
  walk 1 a b
