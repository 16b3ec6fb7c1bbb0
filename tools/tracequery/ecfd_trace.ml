(* ecfd-trace: query tool over JSONL trace exports.

     ecfd-trace filter TRACE.jsonl --component consensus.ec --pid 0
     ecfd-trace ancestry TRACE.jsonl            # cone of the first decide
     ecfd-trace ancestry TRACE.jsonl --seq 123
     ecfd-trace diff A.jsonl B.jsonl
     ecfd-trace validate FILE --schema S.schema.json [--jsonl]
     ecfd-trace rollup TRACE.jsonl [--component C] [--n N] [--horizon T]
*)

open Cmdliner
open Tracequery_core

let file_arg ~n ~doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc)

let load_or_die path =
  try Trace_import.load path
  with Trace_import.Bad_trace msg ->
    Printf.eprintf "ecfd-trace: %s: %s\n" path msg;
    exit 2

(* Events as JSONL lines, exactly as the exporter writes them, or as
   [Sim.Trace.pp_event] lines after [indent]. *)
let print_events ~jsonl ?(indent = "") events =
  let buf = Buffer.create 4096 in
  if jsonl then List.iter (Sim.Trace_export.jsonl_event buf) events
  else List.iter (Format.printf "%s%a@." indent Sim.Trace.pp_event) events;
  Buffer.output_buffer stdout buf

(* --- filter --- *)

let filter_cmd =
  let run path component pid from_t to_t pretty =
    print_events ~jsonl:(not pretty)
      (Query.filter ?component ?pid ?from_t ?to_t (load_or_die path))
  in
  let doc = "Select events by component, process, and time window (JSONL out)." in
  Cmd.v
    (Cmd.info "filter" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "component"; "c" ] ~docv:"NAME" ~doc:"Keep only this component's events.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "pid" ] ~docv:"P"
              ~doc:"Keep events involving process $(docv) (0-based; link events match on either \
                    endpoint).")
      $ Arg.(
          value & opt (some int) None & info [ "from" ] ~docv:"T" ~doc:"Discard events before T.")
      $ Arg.(
          value & opt (some int) None & info [ "to" ] ~docv:"T" ~doc:"Discard events after T.")
      $ Arg.(
          value & flag & info [ "pretty" ] ~doc:"Human-readable lines instead of JSONL."))

(* --- ancestry --- *)

let ancestry_cmd =
  let run path seq pid jsonl =
    let trace = load_or_die path in
    let found, missing =
      match seq with
      | Some s -> (Query.find_seq ~seq:s trace, Printf.sprintf "no event with seq %d" s)
      | None -> (Query.first_decide ?pid trace, "no decide event in " ^ path)
    in
    let target =
      match found with
      | Some e -> e
      | None ->
        Printf.eprintf "ecfd-trace: %s\n" missing;
        exit 2
    in
    let cone = Query.ancestry trace ~seq:target.Sim.Trace.seq in
    if not jsonl then
      Format.printf "happens-before cone of %a (%d of %d events):@." Sim.Trace.pp_event target
        (List.length cone) (Sim.Trace.length trace);
    print_events ~jsonl ~indent:"  " cone
  in
  let doc =
    "Print the happens-before cone of an event (default: the first decide)."
  in
  Cmd.v
    (Cmd.info "ancestry" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seq" ] ~docv:"N" ~doc:"Target event by sequence number.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "pid" ] ~docv:"P" ~doc:"With no --seq: first decide at this process.")
      $ Arg.(value & flag & info [ "jsonl" ] ~doc:"Emit the cone as JSONL, no header."))

(* --- diff --- *)

let diff_cmd =
  let run a b =
    match Query.diff_lines (Trace_import.read_lines a) (Trace_import.read_lines b) with
    | None -> Printf.printf "identical (%s = %s)\n" a b
    | Some { line; left; right } ->
      Printf.printf "traces diverge at line %d:\n" line;
      Printf.printf "  %s: %s\n" a (Option.value left ~default:"<end of file>");
      Printf.printf "  %s: %s\n" b (Option.value right ~default:"<end of file>");
      exit 1
  in
  let doc = "Compare two exports line by line; exit 1 at the first divergence." in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(
      const run $ file_arg ~n:0 ~doc:"First export." $ file_arg ~n:1 ~doc:"Second export.")

(* --- validate --- *)

let validate_cmd =
  let run path schema_path jsonl =
    let read_all p = In_channel.with_open_bin p In_channel.input_all in
    let parse_or_die what text =
      try Json_min.parse text
      with Json_min.Parse_error msg ->
        Printf.eprintf "ecfd-trace: %s: %s\n" what msg;
        exit 2
    in
    let schema = parse_or_die schema_path (read_all schema_path) in
    let failures = ref 0 in
    let check what value =
      List.iter
        (fun e ->
          incr failures;
          Printf.printf "%s: %s\n" what (Format.asprintf "%a" Schema.pp_error e))
        (Schema.check ~schema value)
    in
    if jsonl then
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            check (Printf.sprintf "%s:%d" path (i + 1)) (parse_or_die path line))
        (Trace_import.read_lines path)
    else check path (parse_or_die path (read_all path));
    if !failures = 0 then Printf.printf "%s: valid\n" path else exit 1
  in
  let doc = "Validate an export against a JSON schema (whole file, or per line with --jsonl)." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"File to validate."
      $ Arg.(
          required
          & opt (some file) None
          & info [ "schema" ] ~docv:"SCHEMA" ~doc:"JSON schema file (docs/schemas/).")
      $ Arg.(
          value & flag
          & info [ "jsonl" ] ~doc:"Validate every line as its own document (JSONL exports)."))

(* --- rollup --- *)

let rollup_cmd =
  let run path component n horizon output =
    let json = Query.rollup ?n ?horizon ?component (load_or_die path) in
    match output with
    | None -> print_string json
    | Some f -> Out_channel.with_open_text f (fun oc -> output_string oc json)
  in
  let doc =
    "QoS / SLA rollup of a JSONL trace export (detection time, mistake rate, availability; \
     one scenario per failure-detector component; schema docs/schemas/qos.schema.json)."
  in
  Cmd.v
    (Cmd.info "rollup" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "component"; "c" ] ~docv:"NAME"
              ~doc:"Roll up only this detector component (default: every component seen).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "n" ] ~docv:"N"
              ~doc:"Process count (default: inferred as max pid in the trace + 1).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "horizon" ] ~docv:"T"
              ~doc:"Run horizon in ticks (default: inferred as the last event time).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the JSON here instead of stdout."))

let main =
  let doc = "Query, compare and validate ecfd trace exports" in
  Cmd.group
    (Cmd.info "ecfd-trace" ~doc ~version:"1.0.0")
    [ filter_cmd; ancestry_cmd; diff_cmd; validate_cmd; rollup_cmd ]

let () = exit (Cmd.eval main)
