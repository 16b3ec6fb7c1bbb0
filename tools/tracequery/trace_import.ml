(* The one reader of the JSONL trace export (Sim.Trace_export.jsonl).
   Each line becomes a Sim.Trace.body, re-recorded through
   Sim.Trace.record, so every subcommand reads a Sim.Trace.t like the one
   the run kept; exporting it again gives the input bytes back.

   Import is strict: a line that is not JSON, has an unknown type, lacks
   a field its type requires, has a seq other than the number of events
   before it or a pid outside Sim.Trace's range is rejected with its line
   number.  So is an lc other than the stamp Sim.Trace.record gives it;
   stamps are compared in one pass after the last line.  A filtered
   export fails the seq check: it is a view of a trace, not a trace. *)

module Trace = Sim.Trace

exception Bad_trace of string

let fail lineno msg = raise (Bad_trace (Printf.sprintf "line %d: %s" lineno msg))

let int_list = function
  | Json_min.List vs when List.for_all (fun v -> Option.is_some (Json_min.to_int v)) vs ->
    Some (List.filter_map Json_min.to_int vs)
  | _ -> None

let pid_option = function Json_min.Null -> Some None | Json_min.Int q -> Some (Some q) | _ -> None

(* Field [key] of line [lineno]'s object [j], through [conv]. *)
let field lineno j conv what key =
  match Option.bind (Json_min.member key j) conv with
  | Some v -> v
  | None -> fail lineno (Printf.sprintf "lacks %s field %S" what key)

let body_of_json ~lineno typ j : Trace.body =
  let field conv = field lineno j conv in
  let int = field Json_min.to_int "integer" and str = field Json_min.to_string "string" in
  let link () = (int "at", int "src", int "dst", int "msg", str "component", str "tag") in
  let span () = (int "at", int "pid", str "component", int "span", str "name") in
  match typ with
  | "send" ->
    let at, src, dst, msg, component, tag = link () in
    Send { at; src; dst; msg; component; tag }
  | "deliver" ->
    let at, src, dst, msg, component, tag = link () in
    Deliver { at; src; dst; msg; component; tag }
  | "drop" ->
    let at, src, dst, msg, component, tag = link () in
    Drop { at; src; dst; msg; component; tag; reason = str "reason" }
  | "crash" -> Crash { at = int "at"; pid = int "pid" }
  | "fd_view" ->
    let suspected = Sim.Pid.set_of_list (field int_list "integer-array" "suspected") in
    let trusted = field pid_option "integer-or-null" "trusted" in
    Fd_view { at = int "at"; pid = int "pid"; component = str "component"; suspected; trusted }
  | "propose" -> Propose { at = int "at"; pid = int "pid"; value = int "value" }
  | "decide" -> Decide { at = int "at"; pid = int "pid"; value = int "value"; round = int "round" }
  | "note" -> Note { at = int "at"; pid = int "pid"; tag = str "tag"; detail = str "detail" }
  | "span_begin" ->
    let at, pid, component, span, name = span () in
    Span_begin { at; pid; component; span; name }
  | "span_end" ->
    let at, pid, component, span, name = span () in
    Span_end { at; pid; component; span; name }
  | other -> fail lineno (Printf.sprintf "unknown event type %S" other)

let of_lines lines =
  let t = Trace.create () in
  (* (line number, lc) of every recorded event, newest first. *)
  let stamps = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let fail = fail lineno in
      if String.trim line <> "" then begin
        let j = try Json_min.parse line with Json_min.Parse_error m -> fail m in
        let seq = field lineno j Json_min.to_int "integer" "seq" in
        let lc = field lineno j Json_min.to_int "integer" "lc" in
        let body = body_of_json ~lineno (field lineno j Json_min.to_string "string" "type") j in
        if seq <> Trace.length t then
          fail (Printf.sprintf "seq %d where %d was due (a filtered export is not a trace)" seq
                  (Trace.length t));
        (try Trace.record t body with Invalid_argument m -> fail m);
        stamps := (lineno, lc) :: !stamps
      end)
    lines;
  let stamps = Array.of_list (List.rev !stamps) in
  Trace.iter t (fun e ->
      let lineno, lc = stamps.(e.seq) in
      if lc <> e.lc then fail lineno (Printf.sprintf "lc %d where Trace.record stamps %d" lc e.lc));
  t

let read_lines path = In_channel.with_open_text path In_channel.input_lines

let load path = of_lines (read_lines path)
