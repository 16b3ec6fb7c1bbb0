(* Sanity of the Scenario glue itself: every detector and protocol in the
   enums can actually be installed and produce a working run. *)

let tc name f = Alcotest.test_case name `Quick f

let all_detectors =
  [
    Scenario.Heartbeat_p;
    Scenario.Ring_s;
    Scenario.Ring_w;
    Scenario.Leader_s;
    Scenario.Stable_omega;
    Scenario.Ec_from_leader;
    Scenario.Ec_from_stable;
    Scenario.Ec_from_ring;
    Scenario.Ec_from_omega_chu;
    Scenario.Ec_from_heartbeat;
    Scenario.Ec_from_perfect (Sim.Fault.crash 1 ~at:50);
    Scenario.Scripted_stable 0;
  ]

let scenario_tests =
  [
    tc "every detector installs and runs" (fun () ->
        List.iter
          (fun detector ->
            let crashes =
              match detector with
              | Scenario.Ec_from_perfect schedule -> schedule
              | _ -> Sim.Fault.none
            in
            let _, run, _ = Scenario.fd_run ~crashes ~horizon:500 ~n:4 ~detector () in
            Alcotest.(check bool)
              (Scenario.detector_name detector ^ " produced views")
              true
              (Spec.Fd_props.timeline run 0 <> []))
          all_detectors);
    tc "detector names are unique" (fun () ->
        let names = List.map Scenario.detector_name all_detectors in
        Alcotest.(check int) "unique" (List.length names)
          (List.length (List.sort_uniq compare names)));
    tc "every protocol runs to a decision on the default stack" (fun () ->
        List.iter
          (fun protocol ->
            let r = Scenario.run_consensus ~n:4 ~detector:Scenario.Ec_from_leader ~protocol () in
            Alcotest.(check bool)
              (Scenario.protocol_name protocol ^ " decided")
              true
              (Spec.Consensus_props.decision_round r.Scenario.trace <> None))
          [
            Scenario.Ct;
            Scenario.Mr;
            Scenario.Hr;
            Scenario.Ec Ecfd.Ec_consensus.default_params;
            Scenario.Ec { Ecfd.Ec_consensus.default_params with merge_phase01 = true };
          ]);
  ]

let suites = [ ("scenario", scenario_tests) ]
