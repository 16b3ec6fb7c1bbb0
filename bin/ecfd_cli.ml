(* Command-line driver: run detectors, transformations and consensus
   protocols in the simulator from the shell.

     dune exec bin/ecfd_cli.exe -- fd --detector ec-from-leader -n 5 --crash 1@100
     dune exec bin/ecfd_cli.exe -- consensus --protocol ec -n 7 --crash 0@10 --crash 2@50
     dune exec bin/ecfd_cli.exe -- transform -n 5 --gst 300 --crash 2@400
*)

open Cmdliner

(* --- shared arguments --- *)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 5 & info [ "n"; "processes" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let gst_arg =
  let doc = "Global stabilisation time: before it, delays are unbounded-looking." in
  Arg.(value & opt int 0 & info [ "gst" ] ~docv:"T" ~doc)

let delta_arg =
  let doc = "Post-GST bound on message delay." in
  Arg.(value & opt int 8 & info [ "delta" ] ~docv:"D" ~doc)

let horizon_arg =
  let doc = "How long to run the simulation." in
  Arg.(value & opt int 8000 & info [ "horizon" ] ~docv:"T" ~doc)

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t when p >= 0 && t >= 0 -> Ok (p, t)
      | _ -> Error (`Msg "expected PID@TIME with non-negative integers"))
    | _ -> Error (`Msg "expected PID@TIME, e.g. 1@100 (PID is 0-based)")
  in
  let print ppf (p, t) = Format.fprintf ppf "%d@%d" p t in
  Arg.conv (parse, print)

let crashes_arg =
  let doc = "Crash process $(i,PID) at time $(i,T) (0-based pid; repeatable)." in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@T" ~doc)

let verbose_arg =
  let doc = "Dump the full event trace." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let timeline_arg =
  let doc = "Render ASCII timelines of the run (leadership, suspicions, decisions)." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let dump_trace_arg =
  let doc = "Write the full event trace to $(docv) (one event per line)." in
  Arg.(value & opt (some string) None & info [ "dump-trace" ] ~docv:"FILE" ~doc)

let dump_trace path trace =
  Option.iter
    (fun file ->
      let oc = open_out file in
      Sim.Trace.dump trace oc;
      close_out oc;
      Format.printf "trace written to %s (%d events)@." file (Sim.Trace.length trace))
    path

let detector_conv =
  let all =
    [
      ("heartbeat-p", `Heartbeat_p);
      ("ring-s", `Ring_s);
      ("ring-w", `Ring_w);
      ("leader-s", `Leader_s);
      ("stable-omega", `Stable_omega);
      ("ec-from-stable", `Ec_from_stable);
      ("ec-from-leader", `Ec_from_leader);
      ("ec-from-ring", `Ec_from_ring);
      ("ec-from-omega-chu", `Ec_from_omega_chu);
      ("ec-from-heartbeat", `Ec_from_heartbeat);
      ("ec-from-perfect", `Ec_from_perfect);
      ("scripted-stable", `Scripted_stable);
    ]
  in
  Arg.enum all

let net ~seed ~gst ~delta = { (Scenario.chaotic_net ~seed ~gst ()) with delta }

let to_detector ~schedule = function
  | `Heartbeat_p -> Scenario.Heartbeat_p
  | `Ring_s -> Scenario.Ring_s
  | `Ring_w -> Scenario.Ring_w
  | `Leader_s -> Scenario.Leader_s
  | `Stable_omega -> Scenario.Stable_omega
  | `Ec_from_stable -> Scenario.Ec_from_stable
  | `Ec_from_leader -> Scenario.Ec_from_leader
  | `Ec_from_ring -> Scenario.Ec_from_ring
  | `Ec_from_omega_chu -> Scenario.Ec_from_omega_chu
  | `Ec_from_heartbeat -> Scenario.Ec_from_heartbeat
  | `Ec_from_perfect -> Scenario.Ec_from_perfect schedule
  | `Scripted_stable -> Scenario.Scripted_stable 0

let print_trace trace =
  Sim.Trace.iter trace (fun e -> Format.printf "%a@." Sim.Trace.pp_event e)

let print_matrix run =
  Format.printf "@.Property matrix:@.";
  List.iter
    (fun (prop, (report : Spec.Fd_props.report)) ->
      Format.printf "  %-38s %s@."
        (Fd.Classes.property_name prop)
        (match report.Spec.Fd_props.since with
        | Some t when report.Spec.Fd_props.holds -> Printf.sprintf "holds (from t=%d)" t
        | _ when report.Spec.Fd_props.holds -> "holds"
        | _ -> "violated"))
    (Spec.Fd_props.class_matrix run);
  Format.printf "@.Classes satisfied on this run:";
  List.iter
    (fun cls ->
      if Spec.Fd_props.satisfies_class cls run then Format.printf " %s" (Fd.Classes.name cls))
    Fd.Classes.all;
  Format.printf "@."

(* --- fd subcommand --- *)

let fd_cmd =
  let run detector n seed gst delta horizon crashes verbose timeline dump =
    let schedule = Sim.Fault.crashes crashes in
    let detector = to_detector ~schedule detector in
    let _, run, stats =
      Scenario.fd_run ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector ()
    in
    if verbose then print_trace run.Spec.Fd_props.trace;
    dump_trace dump run.Spec.Fd_props.trace;
    if timeline then begin
      Format.printf "@.Leadership:@.%s" (Spec.Timeline.render_leadership run ~horizon);
      Format.printf "@.Suspicions:@.%s" (Spec.Timeline.render_suspicions run ~horizon);
      Format.printf "%s@." Spec.Timeline.legend
    end;
    Format.printf "detector %s, n=%d, seed=%d, gst=%d, crashes=%a@."
      (Scenario.detector_name detector)
      n seed gst Sim.Fault.pp schedule;
    print_matrix run;
    let total = Sim.Stats.total stats in
    Format.printf "@.Messages: sent=%d delivered=%d dropped=%d@." total.Sim.Stats.sent
      total.Sim.Stats.delivered total.Sim.Stats.dropped
  in
  let doc = "Run a failure detector and report which classes it satisfied." in
  Cmd.v
    (Cmd.info "fd" ~doc)
    Term.(
      const run
      $ Arg.(
          value
          & opt detector_conv `Ec_from_leader
          & info [ "detector"; "d" ] ~docv:"DETECTOR" ~doc:"Which detector to install.")
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg $ verbose_arg
      $ timeline_arg $ dump_trace_arg)

(* --- consensus subcommand --- *)

let protocol_conv =
  Arg.enum
    [
      ("ec", `Ec); ("ec-merged", `Ec_merged); ("ec-strict", `Ec_strict); ("ct", `Ct); ("mr", `Mr); ("hr", `Hr);
    ]

let consensus_cmd =
  let run protocol detector n seed gst delta horizon crashes verbose timeline dump =
    let schedule = Sim.Fault.crashes crashes in
    let detector = to_detector ~schedule detector in
    let protocol =
      match protocol with
      | `Ec -> Scenario.Ec Ecfd.Ec_consensus.default_params
      | `Ec_merged ->
        Scenario.Ec { Ecfd.Ec_consensus.default_params with merge_phase01 = true }
      | `Ec_strict ->
        Scenario.Ec
          { Ecfd.Ec_consensus.default_params with wait_mode = Ecfd.Ec_consensus.Strict_majority }
      | `Ct -> Scenario.Ct
      | `Mr -> Scenario.Mr
      | `Hr -> Scenario.Hr
    in
    let r =
      Scenario.run_consensus ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector
        ~protocol ()
    in
    if verbose then print_trace r.Scenario.trace;
    dump_trace dump r.Scenario.trace;
    if timeline then begin
      let fd_run =
        Spec.Fd_props.make_run
          ~component:(Fd.Fd_handle.component r.Scenario.fd)
          ~n r.Scenario.trace
      in
      Format.printf "@.Leadership:@.%s" (Spec.Timeline.render_leadership fd_run ~horizon);
      Format.printf "@.Decisions:@.%s"
        (Spec.Timeline.render_decisions r.Scenario.trace ~n ~horizon);
      Format.printf "%s@.@." Spec.Timeline.legend
    end;
    Format.printf "protocol %s over %s, n=%d, seed=%d, gst=%d, crashes=%a@."
      (Scenario.protocol_name protocol)
      (Scenario.detector_name detector)
      n seed gst Sim.Fault.pp schedule;
    Format.printf "@.Decisions:@.";
    List.iter
      (fun (p, v, round, at) ->
        Format.printf "  %a decides %d in round %d at t=%d@." Sim.Pid.pp p v round at)
      (Sim.Trace.decisions r.Scenario.trace);
    (match Spec.Consensus_props.check_all r.Scenario.trace ~n with
    | [] -> Format.printf "@.Uniform Consensus holds on this run.@."
    | violations ->
      List.iter
        (fun v -> Format.printf "VIOLATION: %a@." Spec.Consensus_props.pp_violation v)
        violations);
    Format.printf "@.Messages per round:@.";
    List.iter
      (fun (round, sends) -> Format.printf "  round %d: %d@." round sends)
      (Spec.Round_metrics.sends_by_round r.Scenario.trace
         ~component:
           (match protocol with
           | Scenario.Ec _ -> Ecfd.Ec_consensus.component
           | Scenario.Ct -> Consensus.Ct_consensus.component
           | Scenario.Mr -> Consensus.Mr_consensus.component
           | Scenario.Hr -> Consensus.Hr_consensus.component))
  in
  let doc = "Solve one instance of Uniform Consensus and check its properties." in
  Cmd.v
    (Cmd.info "consensus" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt protocol_conv `Ec
          & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"ec | ec-merged | ec-strict | ct | mr.")
      $ Arg.(
          value
          & opt detector_conv `Ec_from_leader
          & info [ "detector"; "d" ] ~docv:"DETECTOR" ~doc:"Which detector to install.")
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg $ verbose_arg
      $ timeline_arg $ dump_trace_arg)

(* --- transform subcommand --- *)

let transform_cmd =
  let run n seed gst delta horizon crashes piggyback =
    let schedule = Sim.Fault.crashes crashes in
    let engine = Scenario.engine ~net:(net ~seed ~gst ~delta) ~n () in
    Sim.Fault.apply engine schedule;
    let hooks = Fd.Leader_s.make_hooks () in
    let base = Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    let p =
      if piggyback then
        Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params
      else Ecfd.Ec_to_p.install engine ~underlying:ec Ecfd.Ec_to_p.default_params
    in
    Sim.Engine.run_until engine horizon;
    let run =
      Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace engine)
    in
    Format.printf "<>C -> <>P transformation (%s), n=%d, seed=%d, gst=%d, crashes=%a@."
      (if piggyback then "piggybacked" else "stand-alone")
      n seed gst Sim.Fault.pp schedule;
    print_matrix run;
    let stats = Sim.Engine.stats engine in
    Format.printf "@.Messages sent: transformation=%d, underlying detector=%d@."
      (Sim.Stats.component_counts stats ~component:Ecfd.Ec_to_p.component).Sim.Stats.sent
      (Sim.Stats.component_counts stats ~component:Fd.Leader_s.component).Sim.Stats.sent
  in
  let doc = "Run the Section 4 transformation <>C -> <>P and verify Theorem 1." in
  Cmd.v
    (Cmd.info "transform" ~doc)
    Term.(
      const run $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value & flag
          & info [ "piggyback" ]
              ~doc:"Ride the suspect lists on the underlying detector's heartbeats."))

(* --- trace subcommand --- *)

let trace_cmd =
  let run protocol detector n seed gst delta horizon crashes format out =
    let schedule = Sim.Fault.crashes crashes in
    let detector = to_detector ~schedule detector in
    let protocol =
      match protocol with
      | `Ec -> Scenario.Ec Ecfd.Ec_consensus.default_params
      | `Ec_merged -> Scenario.Ec { Ecfd.Ec_consensus.default_params with merge_phase01 = true }
      | `Ec_strict ->
        Scenario.Ec
          { Ecfd.Ec_consensus.default_params with wait_mode = Ecfd.Ec_consensus.Strict_majority }
      | `Ct -> Scenario.Ct
      | `Mr -> Scenario.Mr
      | `Hr -> Scenario.Hr
    in
    let r =
      Scenario.run_consensus ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector
        ~protocol ()
    in
    let rendered =
      match format with
      | `Chrome -> Sim.Trace_export.chrome_string r.Scenario.trace
      | `Jsonl -> Sim.Trace_export.jsonl_string r.Scenario.trace
    in
    match out with
    | None -> print_string rendered
    | Some file ->
      let oc = open_out_bin file in
      output_string oc rendered;
      close_out oc;
      Format.eprintf "trace written to %s (%d events)@." file
        (Sim.Trace.length r.Scenario.trace)
  in
  let doc =
    "Run a consensus scenario and export its trace (Chrome trace-event JSON for Perfetto, or \
     JSONL for ecfd-trace)."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt protocol_conv `Ec
          & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"ec | ec-merged | ec-strict | ct | mr | hr.")
      $ Arg.(
          value
          & opt detector_conv `Ec_from_leader
          & info [ "detector"; "d" ] ~docv:"DETECTOR" ~doc:"Which detector to install.")
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value
          & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Jsonl
          & info [ "format"; "f" ] ~docv:"FMT" ~doc:"chrome or jsonl.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout."))

(* --- qos subcommand --- *)

let qos_cmd =
  let run detector n seed gst delta horizon crashes output =
    let schedule = Sim.Fault.crashes crashes in
    let detector = to_detector ~schedule detector in
    let handle, fdrun, _stats =
      Scenario.fd_run ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector ()
    in
    let component = Fd.Fd_handle.component handle in
    let report = Sim.Trace_qos.report ~component ~n ~horizon fdrun.Spec.Fd_props.trace in
    let json =
      Obs.Rollup.to_json
        [ { Obs.Rollup.name = Scenario.detector_name detector; component; report } ]
    in
    match output with
    | None -> print_string json
    | Some file ->
      let oc = open_out_bin file in
      output_string oc json;
      close_out oc;
      Format.eprintf "qos rollup written to %s@." file
  in
  let doc =
    "Run a failure detector and emit its QoS / SLA rollup as JSON (detection time, mistake \
     rate, query accuracy, availability; schema docs/schemas/qos.schema.json)."
  in
  Cmd.v
    (Cmd.info "qos" ~doc)
    Term.(
      const run
      $ Arg.(
          value
          & opt detector_conv `Ec_from_leader
          & info [ "detector"; "d" ] ~docv:"DETECTOR" ~doc:"Which detector to install.")
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the JSON to $(docv) instead of stdout."))

(* --- bench-diff subcommand --- *)

(* Flatten a bench JSON document (BENCH_sim_core.json, BENCH_qos.json,
   BENCH_experiments.json) into (path, number) leaves.  Array elements
   are keyed by their identifying fields (name / n / observer / subject) when
   present, so rows still line up after a sweep is extended. *)
let rec bench_flatten prefix (j : Tracequery_core.Json_min.t) acc =
  let open Tracequery_core.Json_min in
  match j with
  | Int v -> (prefix, float_of_int v) :: acc
  | Float v -> (prefix, v) :: acc
  | Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        bench_flatten (if prefix = "" then k else prefix ^ "." ^ k) v acc)
      acc fields
  | List items ->
    let key i item =
      match item with
      | Obj fields ->
        let ids =
          List.filter_map
            (fun k ->
              match List.assoc_opt k fields with
              | Some (Int v) -> Some (Printf.sprintf "%s=%d" k v)
              | Some (String s) -> Some (Printf.sprintf "%s=%s" k s)
              | _ -> None)
            [ "name"; "n"; "observer"; "subject" ]
        in
        if ids = [] then string_of_int i else String.concat "," ids
      | _ -> string_of_int i
    in
    let _, acc =
      List.fold_left
        (fun (i, acc) item ->
          (i + 1, bench_flatten (Printf.sprintf "%s[%s]" prefix (key i item)) item acc))
        (0, acc) items
    in
    acc
  | Null | Bool _ | String _ -> acc

(* Which way is "worse"?  Throughput-like figures should not drop;
   latency/error-like figures should not grow; anything else is
   informational only. *)
let bench_direction path =
  let contains sub =
    let n = String.length sub and m = String.length path in
    let rec go i = i + n <= m && (String.sub path i n = sub || go (i + 1)) in
    go 0
  in
  if
    List.exists contains
      [ "events_per_sec"; "availability"; "query_accuracy"; "speedup"; "\"detected" ]
    || contains ".detected"
  then `Higher_better
  else if
    List.exists contains
      [
        "words_per_event"; "minor_words"; "detection"; "mistake"; "downtime"; "outage";
        "undetected"; "rate_per_1k";
      ]
  then `Lower_better
  else `Neutral

let bench_diff_cmd =
  let run file_a file_b threshold =
    let parse path =
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      try Tracequery_core.Json_min.parse text
      with Tracequery_core.Json_min.Parse_error msg ->
        Printf.eprintf "ecfd bench-diff: %s: %s\n" path msg;
        exit 2
    in
    let flat path =
      List.sort
        (fun (pa, _) (pb, _) -> String.compare pa pb)
        (bench_flatten "" (parse path) [])
    in
    let a = flat file_a and b = flat file_b in
    let regressions = ref 0 and compared = ref 0 in
    List.iter
      (fun (path, va) ->
        match List.assoc_opt path b with
        | None -> ()
        | Some vb ->
          incr compared;
          let pct =
            if va <> 0.0 then 100.0 *. (vb -. va) /. Float.abs va
            else if vb = 0.0 then 0.0
            else 100.0
          in
          let dir = bench_direction path in
          let worse =
            match dir with
            | `Higher_better -> pct < -.threshold
            | `Lower_better -> pct > threshold
            | `Neutral -> false
          in
          let better =
            match dir with
            | `Higher_better -> pct > threshold
            | `Lower_better -> pct < -.threshold
            | `Neutral -> false
          in
          if worse then begin
            incr regressions;
            Printf.printf "REGRESSION %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct
          end
          else if better then
            Printf.printf "improved   %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct
          else if Float.abs pct > threshold && dir = `Neutral then
            Printf.printf "changed    %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct)
      a;
    List.iter
      (fun (path, _) ->
        if List.assoc_opt path a = None then Printf.printf "new        %s\n" path)
      b;
    Printf.printf "bench-diff: %d comparable metrics, %d regression(s) beyond %.1f%% (%s -> %s)\n"
      !compared !regressions threshold file_a file_b;
    if !regressions > 0 then exit 1
  in
  let doc =
    "Compare two bench JSON files (BENCH_sim_core.json, BENCH_qos.json, ...): throughput, \
     allocation and QoS deltas beyond a threshold; exits 1 when a directional metric \
     regressed (throughput down, latency/mistakes up)."
  in
  Cmd.v
    (Cmd.info "bench-diff" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Old bench JSON.")
      $ Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"New bench JSON.")
      $ Arg.(
          value & opt float 10.0
          & info [ "threshold" ] ~docv:"PCT"
              ~doc:"Relative change (percent) below which a delta is noise."))

(* --- sweep subcommand --- *)

let sweep_cmd =
  let run protocol detector param values seeds n delta horizon domains =
    Option.iter Exec.Pool.set_default_domains domains;
    let protocol =
      match protocol with
      | `Ec -> Scenario.Ec Ecfd.Ec_consensus.default_params
      | `Ec_merged -> Scenario.Ec { Ecfd.Ec_consensus.default_params with merge_phase01 = true }
      | `Ec_strict ->
        Scenario.Ec
          { Ecfd.Ec_consensus.default_params with wait_mode = Ecfd.Ec_consensus.Strict_majority }
      | `Ct -> Scenario.Ct
      | `Mr -> Scenario.Mr
      | `Hr -> Scenario.Hr
    in
    let detector = to_detector ~schedule:Sim.Fault.none detector in
    Format.printf "sweep of %s for %s over %s (%d seeds per point)@.@." param
      (Scenario.protocol_name protocol)
      (Scenario.detector_name detector)
      seeds;
    Format.printf "  %8s | %7s | %12s | %11s | %6s@." param "ok" "mean t(done)" "mean rounds"
      "n";
    Format.printf "  ---------+---------+--------------+-------------+-------@.";
    (* The whole (value × seed) grid goes through the domain pool in one
       job list; each job is a self-contained run, and results come back
       in grid order, so the table is identical at any --domains value. *)
    let points =
      List.map
        (fun value ->
          let gst = if param = "gst" then value else 0 in
          let n = if param = "n" then value else n in
          (value, gst, n))
        values
    in
    let grid =
      Exec.Pool.run
        (List.concat_map
           (fun (_, gst, n) ->
             List.init seeds (fun i () ->
                 let seed = i + 1 in
                 let r =
                   Scenario.run_consensus
                     ~net:(net ~seed ~gst ~delta)
                     ~horizon ~n ~detector ~protocol ()
                 in
                 ( Spec.Consensus_props.check_all r.Scenario.trace ~n = [],
                   Spec.Consensus_props.last_decision_time r.Scenario.trace,
                   Spec.Consensus_props.decision_round r.Scenario.trace )))
           points)
    in
    let rec chunk k = function
      | [] -> []
      | flat -> List.filteri (fun i _ -> i < k) flat :: chunk k (List.filteri (fun i _ -> i >= k) flat)
    in
    List.iter2
      (fun (value, _, n) results ->
        let ok = List.length (List.filter (fun (ok, _, _) -> ok) results) in
        let mean xs =
          match xs with
          | [] -> "-"
          | _ ->
            Printf.sprintf "%.1f"
              (List.fold_left ( +. ) 0.0 (List.map float_of_int xs)
              /. float_of_int (List.length xs))
        in
        Format.printf "  %8d | %3d/%3d | %12s | %11s | %6d@." value ok seeds
          (mean (List.filter_map (fun (_, t, _) -> t) results))
          (mean (List.filter_map (fun (_, _, r) -> r) results))
          n)
      points (chunk seeds grid)
  in
  let doc = "Sweep a parameter (gst or n) and report consensus latency/rounds." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt protocol_conv `Ec
          & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"ec | ec-merged | ec-strict | ct | mr | hr.")
      $ Arg.(
          value
          & opt detector_conv `Ec_from_leader
          & info [ "detector"; "d" ] ~docv:"DETECTOR" ~doc:"Which detector to install.")
      $ Arg.(
          value & opt string "gst"
          & info [ "param" ] ~docv:"PARAM" ~doc:"Which parameter to sweep: gst or n.")
      $ Arg.(
          value
          & opt (list int) [ 0; 200; 600; 1200 ]
          & info [ "values" ] ~docv:"V1,V2,..." ~doc:"Sweep points.")
      $ Arg.(
          value & opt int 5 & info [ "seeds" ] ~docv:"K" ~doc:"Seeds (runs) per sweep point.")
      $ n_arg $ delta_arg $ horizon_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "domains" ] ~docv:"D"
              ~doc:
                "Worker domains for the sweep grid (default: \\$(b,ECFD_DOMAINS) or the \
                 machine's recommended count, capped at 8; 1 = sequential).  The output is \
                 identical at every value."))

(* --- check subcommand --- *)

let check_cmd =
  let run no_json =
    (* The syntactic pass reads sources; the typed passes read the .cmt
       trees dune produced.  From the workspace root those live under
       _build/default; from inside _build (or a checkout where someone
       copied the build tree flat) the bare paths work. *)
    let build = Filename.concat "_build" "default" in
    let cmt_roots =
      let prefixed = List.map (Filename.concat build) [ "lib"; "bench" ] in
      if List.exists Sys.file_exists prefixed then
        List.filter Sys.file_exists prefixed
      else List.filter Sys.file_exists [ "lib"; "bench" ]
    in
    if cmt_roots = [] then begin
      prerr_endline "ecfd check: no built library trees found — run `dune build` first";
      exit 2
    end;
    let codes = ref [] in
    let record tool code = codes := (tool, code) :: !codes in
    let json name = if no_json then None else Some name in
    let lint_roots = List.filter Sys.file_exists [ "lib"; "bin"; "bench" ] in
    let lint = Lint_core.Driver.run_full lint_roots in
    record "ecfd-lint"
      (Check_common.Report.emit ~tool:"ecfd-lint"
         ?json:(json "LINT_findings.json")
         ~suppressed:lint.Check_common.Pipeline.suppressed
         ~clean_note:
           (Printf.sprintf "%d rule(s) over %s"
              (List.length Lint_core.Registry.all)
              (String.concat " " lint_roots))
         lint.Check_common.Pipeline.survivors);
    let typed tool ~json_file ~n_rules (r : Check_common.Cmt_driver.result) =
      if r.n_units = 0 then begin
        Printf.eprintf "%s: no .cmt files below %s — build first (dune build)\n" tool
          (String.concat " " cmt_roots);
        record tool 2
      end
      else
        record tool
          (Check_common.Report.emit ~tool ?json:(json json_file)
             ~suppressed:r.suppressed
             ~clean_note:
               (Printf.sprintf "%d rule(s) over %d unit(s) below %s" n_rules r.n_units
                  (String.concat " " cmt_roots))
             r.findings)
    in
    typed "ecfd-analyze" ~json_file:"ANALYZE_findings.json"
      ~n_rules:(List.length Analyze_core.Registry.all)
      (Analyze_core.Driver.run cmt_roots);
    typed "ecfd-alloccheck" ~json_file:"ALLOC_findings.json"
      ~n_rules:(List.length Alloccheck_core.Registry.all)
      (Alloccheck_core.Driver.run cmt_roots);
    let budget_file = "bench/alloc_budget.json" in
    if Sys.file_exists budget_file then begin
      let drift = Alloccheck_core.Roots_check.check ~budget_file cmt_roots in
      List.iter (fun line -> Printf.eprintf "ecfd-alloccheck: %s\n" line) drift;
      if drift <> [] then record "ecfd-alloccheck(roots)" 1
    end;
    typed "ecfd-racecheck" ~json_file:"RACE_findings.json"
      ~n_rules:(List.length Racecheck_core.Registry.all)
      (Racecheck_core.Driver.run cmt_roots);
    let codes = List.rev !codes in
    let worst = List.fold_left (fun acc (_, c) -> max acc c) 0 codes in
    Printf.eprintf "ecfd check: %s\n"
      (String.concat ", "
         (List.map
            (fun (tool, c) ->
              Printf.sprintf "%s %s" tool
                (match c with 0 -> "ok" | 1 -> "FINDINGS" | _ -> "ERROR"))
            codes));
    exit worst
  in
  let doc =
    "Run all four static passes (lint R-rules, analyze A-rules, alloccheck Z-rules, \
     racecheck D-rules) in one process, writing the unified findings artifacts \
     (docs/schemas/findings.schema.json) and exiting with the worst per-pass code."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run
      $ Arg.(
          value & flag
          & info [ "no-json" ]
              ~doc:"Skip writing the four *_findings.json artifacts to the current \
                    directory."))

let main =
  let doc = "Eventually consistent failure detectors (Larrea, Fernández, Arévalo) — simulator" in
  Cmd.group
    (Cmd.info "ecfd" ~doc ~version:"1.0.0")
    [
      fd_cmd; consensus_cmd; transform_cmd; sweep_cmd; trace_cmd; qos_cmd; bench_diff_cmd;
      check_cmd;
    ]

let () = exit (Cmd.eval main)
