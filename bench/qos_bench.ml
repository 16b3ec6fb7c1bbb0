(* E22 — detector QoS / SLA rollups over E1-E4-style scenario sweeps.

   Each scenario is one detector-only run (Scenario.fd_run); the QoS fold
   (Obs.Qos via Sim.Trace_qos) turns its trace into detection-time,
   mistake-rate and availability figures, and Obs.Rollup renders the whole
   sweep as BENCH_qos.json (schema docs/schemas/qos.schema.json).  Every
   number here is a function of the trace alone — no wall clock — so both
   the table and the JSON are byte-identical at every --domains value,
   which is exactly what CI checks.  Compare two runs with
   `ecfd bench-diff old/BENCH_qos.json BENCH_qos.json`. *)

let json_file = "BENCH_qos.json"

(* The sweep: E1's chaotic single-crash matrix, a calm no-crash control
   (E2-style), a late-crash detection probe (E3-style) and a two-crash
   stress (E4-style), each over the three detector families the paper
   compares throughout. *)

type case = {
  case : string;
  net : Scenario.net;
  crashes : Sim.Fault.t;
  horizon : int;
}

let cases =
  [
    {
      case = "e1-chaotic-crash";
      net = { (Scenario.chaotic_net ~seed:1 ~gst:250 ()) with delta = 8 };
      crashes = Sim.Fault.crash 2 ~at:400;
      horizon = 2000;
    };
    {
      case = "e2-calm-no-crash";
      net = Scenario.default_net;
      crashes = Sim.Fault.none;
      horizon = 2000;
    };
    {
      case = "e3-late-crash";
      net = { (Scenario.chaotic_net ~seed:3 ~gst:250 ()) with delta = 8 };
      crashes = Sim.Fault.crash 1 ~at:1200;
      horizon = 2000;
    };
    {
      case = "e4-double-crash";
      net = { (Scenario.chaotic_net ~seed:4 ~gst:250 ()) with delta = 8 };
      crashes = Sim.Fault.crashes [ (2, 400); (4, 900) ];
      horizon = 2000;
    };
  ]

let detectors = [ Scenario.Heartbeat_p; Scenario.Ring_s; Scenario.Ec_from_leader ]

let n = 5

let run_one case detector =
  let handle, run, _stats =
    Scenario.fd_run ~net:case.net ~crashes:case.crashes ~horizon:case.horizon ~n ~detector ()
  in
  let component = Fd.Fd_handle.component handle in
  let report =
    Sim.Trace_qos.report ~component ~n ~horizon:case.horizon run.Spec.Fd_props.trace
  in
  {
    Obs.Rollup.name = Printf.sprintf "%s/%s" case.case (Scenario.detector_name detector);
    component;
    report;
  }

let e22 () =
  Tables.heading "E22" "Detector QoS and SLA rollups (Chen-Toueg metrics over E1-E4 sweeps)";
  let scenarios =
    Exec.Pool.run
      (List.concat_map
         (fun case -> List.map (fun d () -> run_one case d) detectors)
         cases)
  in
  let headers =
    [ "scenario"; "crashed"; "detected"; "TD mean"; "mistakes"; "rate/1k"; "avail %"; "leader" ]
  in
  let rows =
    List.map
      (fun (s : Obs.Rollup.scenario) ->
        let a = Obs.Rollup.aggregate s.report in
        [
          s.name;
          Tables.fi a.a_crashed;
          Tables.fi a.a_detected;
          (match a.a_detection_mean with None -> "-" | Some m -> Tables.ff m);
          Tables.fi a.a_mistakes;
          Printf.sprintf "%.3f" a.a_mistake_rate_per_1k;
          Printf.sprintf "%.3f" a.a_availability_pct;
          (match (a.a_leader_elected, a.a_steady_leader_at) with
          | false, _ -> "-"
          | true, Some t -> Printf.sprintf "t=%d" t
          | true, None -> "split");
        ])
      scenarios
  in
  Tables.table ~headers ~rows;
  Tables.note "TD = detection time (ticks); avail = correct-view time / accounting window.";
  Tables.note "full per-pair figures: %s (schema docs/schemas/qos.schema.json)" json_file;
  let oc = open_out json_file in
  output_string oc (Obs.Rollup.to_json scenarios);
  close_out oc
