(* Both exporters write through a Buffer with plain Printf formatting: the
   output must be byte-deterministic, and the JSON vocabulary is small
   enough that a JSON library would buy nothing. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let jsonl_event buf (e : Trace.event) =
  let stamp kind = Printf.bprintf buf "{\"seq\":%d,\"lc\":%d,\"type\":\"%s\"" e.seq e.lc kind in
  (match e.body with
  | Send { at; src; dst; msg; component; tag } ->
    stamp "send";
    Printf.bprintf buf ",\"at\":%d,\"src\":%d,\"dst\":%d,\"msg\":%d,\"component\":\"%s\",\"tag\":\"%s\""
      at src dst msg (escape component) (escape tag)
  | Deliver { at; src; dst; msg; component; tag } ->
    stamp "deliver";
    Printf.bprintf buf ",\"at\":%d,\"src\":%d,\"dst\":%d,\"msg\":%d,\"component\":\"%s\",\"tag\":\"%s\""
      at src dst msg (escape component) (escape tag)
  | Drop { at; src; dst; msg; component; tag; reason } ->
    stamp "drop";
    Printf.bprintf buf
      ",\"at\":%d,\"src\":%d,\"dst\":%d,\"msg\":%d,\"component\":\"%s\",\"tag\":\"%s\",\"reason\":\"%s\""
      at src dst msg (escape component) (escape tag) (escape reason)
  | Crash { at; pid } ->
    stamp "crash";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d" at pid
  | Fd_view { at; pid; component; suspected; trusted } ->
    stamp "fd_view";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"component\":\"%s\",\"suspected\":[%s],\"trusted\":%s"
      at pid (escape component)
      (String.concat "," (List.map string_of_int (Pid.Set.elements suspected)))
      (match trusted with None -> "null" | Some q -> string_of_int q)
  | Propose { at; pid; value } ->
    stamp "propose";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"value\":%d" at pid value
  | Decide { at; pid; value; round } ->
    stamp "decide";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"value\":%d,\"round\":%d" at pid value round
  | Note { at; pid; tag; detail } ->
    stamp "note";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"tag\":\"%s\",\"detail\":\"%s\"" at pid (escape tag)
      (escape detail)
  | Span_begin { at; pid; component; span; name } ->
    stamp "span_begin";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"component\":\"%s\",\"span\":%d,\"name\":\"%s\"" at
      pid (escape component) span (escape name)
  | Span_end { at; pid; component; span; name } ->
    stamp "span_end";
    Printf.bprintf buf ",\"at\":%d,\"pid\":%d,\"component\":\"%s\",\"span\":%d,\"name\":\"%s\"" at
      pid (escape component) span (escape name));
  Buffer.add_string buf "}\n"

let jsonl buf trace = Trace.iter trace (fun e -> jsonl_event buf e)

let jsonl_string trace =
  let buf = Buffer.create 4096 in
  jsonl buf trace;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                            *)
(* ------------------------------------------------------------------ *)

(* One Chrome "process" per sim process (pid = tid = the sim pid), so
   Perfetto shows one track per process.  Spans become B/E duration
   slices; Send/Deliver become thread-scoped instants joined by a flow
   ([s] at the send, [f] with bp:"e" at the delivery) keyed on the
   message id; everything else is an instant.  Drops are parked on the
   sender's track (a drop happens on the link, but Chrome events must
   live on some track, and the sender is where the message last was). *)

let emit_args buf (e : Trace.event) extras =
  Printf.bprintf buf "\"args\":{\"seq\":%d,\"lc\":%d%s}" e.seq e.lc extras

let chrome_event buf first (e : Trace.event) =
  let sep () = if !first then first := false else Buffer.add_string buf ",\n" in
  let common ~name ~cat ~ph ~ts ~pid extras_fmt =
    sep ();
    Printf.bprintf buf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d,"
      (escape name) (escape cat) ph ts pid pid;
    extras_fmt ();
    Buffer.add_string buf "}"
  in
  let instant ~name ~cat ~ts ~pid extras =
    common ~name ~cat ~ph:"i" ~ts ~pid (fun () ->
        Buffer.add_string buf "\"s\":\"t\",";
        emit_args buf e extras)
  in
  match e.body with
  | Send { at; src; dst; msg; component; tag } ->
    instant ~name:("send " ^ tag) ~cat:component ~ts:at ~pid:src
      (Printf.sprintf ",\"msg\":%d,\"dst\":%d" msg dst);
    common ~name:"msg" ~cat:component ~ph:"s" ~ts:at ~pid:src (fun () ->
        Printf.bprintf buf "\"id\":%d," msg;
        emit_args buf e "")
  | Deliver { at; src; dst; msg; component; tag } ->
    instant ~name:("deliver " ^ tag) ~cat:component ~ts:at ~pid:dst
      (Printf.sprintf ",\"msg\":%d,\"src\":%d" msg src);
    common ~name:"msg" ~cat:component ~ph:"f" ~ts:at ~pid:dst (fun () ->
        Printf.bprintf buf "\"id\":%d,\"bp\":\"e\"," msg;
        emit_args buf e "")
  | Drop { at; src; dst; msg; component; tag; reason } ->
    instant ~name:("drop " ^ tag) ~cat:component ~ts:at ~pid:src
      (Printf.sprintf ",\"msg\":%d,\"dst\":%d,\"reason\":\"%s\"" msg dst (escape reason))
  | Crash { at; pid } -> instant ~name:"crash" ~cat:"engine" ~ts:at ~pid ""
  | Fd_view { at; pid; component; suspected; trusted } ->
    instant ~name:"fd-view" ~cat:component ~ts:at ~pid
      (Printf.sprintf ",\"suspected\":[%s],\"trusted\":%s"
         (String.concat "," (List.map string_of_int (Pid.Set.elements suspected)))
         (match trusted with None -> "null" | Some q -> string_of_int q))
  | Propose { at; pid; value } ->
    instant ~name:"propose" ~cat:"consensus" ~ts:at ~pid (Printf.sprintf ",\"value\":%d" value)
  | Decide { at; pid; value; round } ->
    instant ~name:"decide" ~cat:"consensus" ~ts:at ~pid
      (Printf.sprintf ",\"value\":%d,\"round\":%d" value round)
  | Note { at; pid; tag; detail } ->
    instant ~name:("note " ^ tag) ~cat:"note" ~ts:at ~pid
      (Printf.sprintf ",\"detail\":\"%s\"" (escape detail))
  | Span_begin { at; pid; component; span; name } ->
    common ~name ~cat:component ~ph:"B" ~ts:at ~pid (fun () ->
        emit_args buf e (Printf.sprintf ",\"span\":%d" span))
  | Span_end { at; pid; component; span; name } ->
    common ~name ~cat:component ~ph:"E" ~ts:at ~pid (fun () ->
        emit_args buf e (Printf.sprintf ",\"span\":%d" span))

let chrome buf trace =
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  (* Process-name metadata rows first, one per process seen in the trace,
     in pid order, so Perfetto labels the tracks. *)
  let max_pid = ref (-1) in
  Trace.iter trace (fun e ->
      match Trace.pid_of e.body with
      | Some p -> if p > !max_pid then max_pid := p
      | None -> ());
  for p = 0 to !max_pid do
    if !first then first := false else Buffer.add_string buf ",\n";
    Printf.bprintf buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"p%d\"}}"
      p p (p + 1)
  done;
  Trace.iter trace (fun e -> chrome_event buf first e);
  Buffer.add_string buf "\n]}\n"

let chrome_string trace =
  let buf = Buffer.create 8192 in
  chrome buf trace;
  Buffer.contents buf
