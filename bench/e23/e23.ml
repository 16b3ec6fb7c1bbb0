(* e23: the repository's benchmark (README.md in this directory).

     e23.exe --workload <name> [--seed S] [--seconds T] [--trace 0|1]
             [--smoke] [--check-names BENCHMARK.json]

   One workload per process.  The run builds the real stack through the
   public functions of Scenario, Sim, Fd, Ecfd, Broadcast, Spec and Obs,
   times those calls from outside, checks the paper's properties on every
   op, prints one METRIC line per metric and, as its last line, a JSON
   summary; it also writes BENCH_e23_<workload>.json.  An op is one unit
   of measured work with its own pass/fail oracle; the exit code is 1 when
   any op failed.

   --trace 0 reports the end-to-end metrics; --trace 1 records spans
   around every call into a layer (BENCH_e23_<workload>.trace.json), runs
   the layer ladder and the other per-layer probes, and reports the
   per-layer metrics. *)

open Workloads

(* ------------------------------------------------------------------ *)
(* Metrics.                                                           *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  unit_ : string;
  key : string;  (** Sample source. *)
  at : float;  (** Quantile reported: 0.5 or 0.9. *)
}

let m ?(at = 0.5) name unit_ key = { name; unit_; key; at }

let end_to_end =
  [
    m "setup_s" "s" "setup_s";
    m "latency_ms_p50" "ms" "latency_ms";
    m ~at:0.9 "latency_ms_p90" "ms" "latency_ms";
    m "check_ms" "ms" "check_ms";
    m "peak_rss_mb" "MB" "peak_rss_mb";
  ]

let per_layer =
  [
    m "sim.engine.ns_per_event" "ns" "engine_ns_per_event";
    m "sim.engine.period_us" "us" "engine_period_us";
    m "sim.engine.events_per_op" "count" "events";
    m "sim.engine.queue_high_water" "count" "queue_high_water";
    m "sim.engine.timer_residency_high_water" "count" "timer_residency_high_water";
    m "sim.link.ns_per_delivery" "ns" "link_ns_per_delivery";
    m "sim.link.period_us" "us" "link_period_us";
    m "sim.link.sends_per_op" "count" "sends";
    m "sim.trace.events_per_op" "count" "trace_events";
    m "sim.trace.events_at_setup" "count" "trace_at_setup";
    m "fd.leader_s.period_us" "us" "leader_s_period_us";
    m "fd.leader_s.adoptions_per_op" "count" "adoptions";
    m "fd.fd_handle.view_changes_per_op" "count" "view_changes";
    m "fd.fd_handle.suspicion_spans_per_op" "count" "suspicion_spans";
    m "core.ec.period_us" "us" "ec_period_us";
    m "core.ec_to_p.suspicions_per_op" "count" "suspicions";
    m "core.ec_to_p.leader_epochs_per_op" "count" "epochs";
    m "protocol.period_us" "us" "protocol_period_us";
    m "consensus.rounds" "count" "rounds";
    m "consensus.decide_ticks" "count" "decide_ticks";
    m "consensus.sends_per_op" "count" "consensus_sends";
    m "broadcast.sends_per_op" "count" "broadcast_sends";
    m "spec.ns_per_trace_event" "ns" "spec_ns_per_event";
    m "obs.qos.ns_per_trace_event" "ns" "qos_ns_per_event";
    m "setup.engine_ms" "ms" "setup_engine_ms";
    m "setup.leader_s_ms" "ms" "setup_leader_s_ms";
    m "setup.ec_ms" "ms" "setup_ec_ms";
    m "setup.protocol_ms" "ms" "setup_protocol_ms";
    m "gc.minor_words_per_event" "words" "minor_words_per_event";
    m "gc.promoted_words_per_event" "words" "promoted_words_per_event";
    m "gc.major_collections_per_op" "count" "major_collections";
    m "gc.top_heap_mb" "MB" "top_heap_mb";
    m "e23.traced_latency_ms_p50" "ms" "latency_ms";
  ]

(* Setup self times, one sample per stack instance, from its spans. *)
let add_setup_spans () =
  let from_spans key names = List.iter (add key) (Span.self_ms_per_instance names) in
  from_spans "setup_engine_ms" [ "engine.create"; "fault.apply" ];
  from_spans "setup_leader_s_ms" [ "leader_s.install" ];
  from_spans "setup_ec_ms" [ "ec.install" ];
  from_spans "setup_protocol_ms"
    [ "ec_to_p.install"; "rb.create"; "ec_consensus.install"; "propose.schedule" ]

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match In_channel.input_line ic with
    | None -> None
    | Some line -> (
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
      | _ -> find ())
  in
  let r = find () in
  close_in ic;
  match r with Some mb -> mb | None -> failwith "e23: no VmHWM in /proc/self/status"

(* Names and units of one section of BENCHMARK.json. *)
let declared_metrics file ~section =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let open Tracequery_core.Json_min in
  match Option.bind (member section (parse text)) to_list with
  | None -> failwith (Printf.sprintf "e23: %s has no %S list" file section)
  | Some items ->
    List.map (fun j -> (string_field j "name" ~default:"", string_field j "unit" ~default:"")) items

let json_float x = Printf.sprintf "%.17g" x

let write_bench_json (cfg : cfg) ~n ~metrics ~correct =
  let path = Printf.sprintf "BENCH_e23_%s.json" cfg.name in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"e23\",\n  \"workload\": \"%s\",\n  \"n\": %d,\n" cfg.name n;
  Printf.fprintf oc "  \"seed\": %d,\n  \"seconds\": %s,\n  \"trace\": %b,\n  \"smoke\": %b,\n"
    cfg.seed (json_float cfg.seconds) cfg.trace cfg.smoke;
  Printf.fprintf oc
    "  \"host\": { \"recommended_domains\": %d, \"ocaml_version\": \"%s\", \"os_type\": \"%s\" },\n"
    (Exec.Pool.recommended_domains ()) Sys.ocaml_version Sys.os_type;
  Printf.fprintf oc "  \"correct\": %b,\n  \"attempted\": %d,\n  \"failed\": %d,\n  \"metrics\": [" correct
    !attempted !failed;
  List.iteri
    (fun i (mt, (s : Summary.t)) ->
      Printf.fprintf oc
        "%s\n    { \"name\": \"%s\", \"unit\": \"%s\", \"value\": %s, \"samples\": %d, \"q1\": %s, \"q3\": %s }"
        (if i = 0 then "" else ",")
        mt.name mt.unit_ (json_float s.value) s.samples (json_float s.q1) (json_float s.q3))
    metrics;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Entry point.                                                       *)
(* ------------------------------------------------------------------ *)

(* What is timed must not depend on the environment: one sequential
   engine, one pool domain, the profiler off and the default GC settings,
   whatever ECFD_SHARDS, ECFD_DOMAINS, ECFD_PROFILE or OCAMLRUNPARAM say.
   (ECFD_TRACE_EXPORT is only read by bench/main.exe.) *)
let pin () =
  Sim.Shard.set_default_shards 1;
  Sim.Shard.set_default_profile false;
  Exec.Pool.set_default_domains 1;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let usage = "e23.exe --workload <name> [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--check-names FILE]"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let smoke = ref false and check_names = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "S  inputs derive from S (default 1)");
      ("--seconds", Arg.Set_float seconds, "T  measure for about T seconds (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1 records spans and reports per-layer metrics");
      ("--smoke", Arg.Set smoke, " n <= 16 and 2 ops per workload (the tier-1 test)");
      ( "--check-names",
        Arg.Set_string check_names,
        "FILE  fail unless the metrics printed are the ones FILE declares" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | Some w when !trace = 0 || !trace = 1 ->
    ( {
        workload = w;
        name = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        smoke = !smoke;
      },
      !check_names )
  | _ ->
    prerr_endline usage;
    exit 2

let () =
  let cfg, check_names = parse_args () in
  pin ();
  Span.enabled := cfg.trace;
  let n =
    match cfg.workload with
    | Ecp_steady -> ecp_steady cfg
    | Ecp_churn -> ecp_churn cfg
    | Consensus_crash | Consensus_calm -> consensus cfg
  in
  add "peak_rss_mb" (peak_rss_mb ());
  add "top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  let ladder_ok = (not cfg.trace) || ladder cfg ~n in
  if cfg.trace then add_setup_spans ();
  let declared = if cfg.trace then per_layer else end_to_end in
  let metrics = List.map (fun mt -> (mt, Summary.of_samples ~at:mt.at (samples_of mt.key))) declared in
  let all_sampled = List.for_all (fun (_, (s : Summary.t)) -> s.Summary.samples > 0) metrics in
  let names_ok =
    String.equal check_names ""
    ||
    let section = if cfg.trace then "per_layer" else "end_to_end" in
    let printed = List.map (fun (mt, _) -> (mt.name, mt.unit_)) metrics in
    let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
    let same (a, u) (b, v) = String.equal a b && String.equal u v in
    let ok = List.equal same (sort printed) (sort (declared_metrics check_names ~section)) in
    if not ok then Printf.eprintf "e23: metrics printed differ from %s %s\n%!" check_names section;
    ok
  in
  let correct = !failed = 0 && ladder_ok && all_sampled && names_ok in
  List.iter
    (fun (mt, (s : Summary.t)) ->
      Printf.printf "METRIC %s %s %s samples=%d q1=%s q3=%s\n" mt.name (json_float s.value) mt.unit_
        s.samples (json_float s.q1) (json_float s.q3))
    metrics;
  write_bench_json cfg ~n ~metrics ~correct;
  if cfg.trace then Span.write_chrome (Printf.sprintf "BENCH_e23_%s.trace.json" cfg.name);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed
    (String.concat ", "
       (List.map
          (fun (mt, (s : Summary.t)) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name (json_float s.value)
              mt.unit_)
          metrics));
  if not correct then exit 1
