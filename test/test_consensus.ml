(* Tests of the two baseline consensus protocols: Chandra–Toueg (◇S,
   rotating coordinator) and the Mostefaoui–Raynal-style Ω protocol. *)

let tc name f = Alcotest.test_case name `Quick f

let decided_values (r : Scenario.consensus_run) =
  List.map (fun (_, v, _, _) -> v) (Sim.Trace.decisions r.trace)

(* ------------------------------------------------------------------ *)
(* Chandra–Toueg                                                      *)
(* ------------------------------------------------------------------ *)

let ct_tests =
  [
    tc "failure-free run decides in round 1" (fun () ->
        let r = Scenario.run_consensus ~n:5 ~detector:Scenario.Ring_s ~protocol:Scenario.Ct () in
        Test_util.check_no_violations "ct" r.trace ~n:5;
        Alcotest.(check (option int)) "round 1" (Some 1)
          (Spec.Consensus_props.decision_round r.trace));
    tc "validity: the decision is some process's proposal" (fun () ->
        let r =
          Scenario.run_consensus ~n:5
            ~proposals:(fun p -> 1000 + (7 * p))
            ~detector:Scenario.Ring_s ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n:5;
        match decided_values r with
        | v :: _ -> Alcotest.(check bool) "proposed" true (List.exists (fun p -> 1000 + (7 * p) = v) (Sim.Pid.all ~n:5))
        | [] -> Alcotest.fail "nobody decided");
    tc "survives the crash of the first coordinator" (fun () ->
        (* p1 coordinates round 1; kill it immediately. *)
        let r =
          Scenario.run_consensus ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:1)
            ~detector:Scenario.Ring_s ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n:5);
    tc "survives a coordinator crash between its phases" (fun () ->
        (* The coordinator dies a few ticks in, after announcing estimates
           may already be under way. *)
        let r =
          Scenario.run_consensus ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:5)
            ~detector:Scenario.Ring_s ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n:5);
    tc "tolerates any minority of crashes" (fun () ->
        let r =
          Scenario.run_consensus ~n:7
            ~crashes:(Sim.Fault.crashes [ (0, 10); (2, 60); (5, 120) ])
            ~horizon:10_000 ~detector:Scenario.Ring_s ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n:7);
    tc "a value locked in round 1 outranks unlocked estimates" (fun () ->
        (* A lock stamps ts with its round, and rounds count from 1, so a
           value locked in round 1 carries ts 1 and outranks every unlocked
           initial estimate (ts 0).  Were it stamped 0, a later coordinator
           could pick the unlocked one, breaking uniform agreement.  These
           are the runs of the "ct over heartbeat-p" property that found
           it. *)
        List.iter
          (fun (n, seed) ->
            let rng = Sim.Rng.create ~seed in
            let crashes = Sim.Fault.random_minority rng ~n ~latest:300 in
            let net = { Scenario.default_net with seed; gst = 150 } in
            let r =
              Scenario.run_consensus ~net ~crashes ~horizon:15_000 ~n
                ~detector:Scenario.Heartbeat_p ~protocol:Scenario.Ct ()
            in
            Test_util.check_no_violations
              (Printf.sprintf "ct n=%d seed=%d" n seed)
              r.trace ~n)
          [ (3, 237); (4, 314); (3, 64879) ]);
    tc "rotating coordinator pays for a late leader (Theorem 3 shape)" (fun () ->
        (* Stable-from-start detector trusting only p4 (index 3): rounds
           coordinated by p1..p3 are all NACKed, so the decision falls in
           round 4. *)
        let n = 5 in
        let leader = 3 in
        let r =
          Scenario.run_consensus ~n ~detector:(Scenario.Scripted_stable leader)
            ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n;
        Alcotest.(check (option int)) "decides in round leader+1" (Some (leader + 1))
          (Spec.Consensus_props.decision_round r.trace));
    tc "chaotic network before GST still reaches agreement" (fun () ->
        let r =
          Scenario.run_consensus
            ~net:(Scenario.chaotic_net ~seed:3 ~gst:500 ())
            ~horizon:12_000 ~n:5 ~detector:Scenario.Ring_s ~protocol:Scenario.Ct ()
        in
        Test_util.check_no_violations "ct" r.trace ~n:5);
  ]

(* ------------------------------------------------------------------ *)
(* Mostefaoui–Raynal (Ω)                                              *)
(* ------------------------------------------------------------------ *)

let mr_tests =
  [
    tc "failure-free run decides in round 1" (fun () ->
        let r =
          Scenario.run_consensus ~n:5 ~detector:Scenario.Ec_from_leader ~protocol:Scenario.Mr ()
        in
        Test_util.check_no_violations "mr" r.trace ~n:5;
        Alcotest.(check (option int)) "round 1" (Some 1)
          (Spec.Consensus_props.decision_round r.trace));
    tc "decides in one round with a stable leader anywhere" (fun () ->
        List.iter
          (fun leader ->
            let r =
              Scenario.run_consensus ~n:5 ~detector:(Scenario.Scripted_stable leader)
                ~protocol:Scenario.Mr ()
            in
            Test_util.check_no_violations "mr" r.trace ~n:5;
            Alcotest.(check (option int))
              (Printf.sprintf "leader p%d: round 1" (leader + 1))
              (Some 1)
              (Spec.Consensus_props.decision_round r.trace))
          [ 0; 2; 4 ]);
    tc "survives the leader's crash" (fun () ->
        let r =
          Scenario.run_consensus ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:30)
            ~horizon:10_000 ~detector:Scenario.Ec_from_leader ~protocol:Scenario.Mr ()
        in
        Test_util.check_no_violations "mr" r.trace ~n:5);
    tc "tolerates a minority of crashes" (fun () ->
        let r =
          Scenario.run_consensus ~n:7
            ~crashes:(Sim.Fault.crashes [ (1, 15); (3, 80); (6, 200) ])
            ~horizon:10_000 ~detector:Scenario.Ec_from_leader ~protocol:Scenario.Mr ()
        in
        Test_util.check_no_violations "mr" r.trace ~n:7);
    tc "f=0: waits for everybody, works when nobody crashes" (fun () ->
        let eng = Scenario.engine ~n:4 () in
        let fd = Scenario.install_detector eng Scenario.Ec_from_leader in
        let rb = Broadcast.Reliable_broadcast.create eng in
        let inst = Consensus.Mr_consensus.install ~f:0 eng ~fd ~rb () in
        List.iter (fun p -> inst.Consensus.Instance.propose p (10 * p)) (Sim.Pid.all ~n:4);
        Sim.Engine.run_until eng 5000;
        Test_util.check_no_violations "mr f=0" (Sim.Engine.trace eng) ~n:4);
    tc "rejects a non-minority f" (fun () ->
        let eng = Scenario.engine ~n:4 () in
        let fd = Scenario.install_detector eng Scenario.Ec_from_leader in
        let rb = Broadcast.Reliable_broadcast.create eng in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Consensus.Mr_consensus.install ~f:2 eng ~fd ~rb ());
             false
           with Invalid_argument _ -> true));
    tc "staggered proposals: late proposers join the frontier" (fun () ->
        let r =
          Scenario.run_consensus ~n:5
            ~propose_at:(fun p -> 50 * p)
            ~detector:Scenario.Ec_from_leader ~protocol:Scenario.Mr ()
        in
        Test_util.check_no_violations "mr staggered" r.trace ~n:5);
  ]

(* ------------------------------------------------------------------ *)
(* Degenerate systems and the Value helpers                           *)
(* ------------------------------------------------------------------ *)

let edge_tests =
  [
    tc "n=1: a lonely process decides its own proposal (all protocols)" (fun () ->
        List.iter
          (fun protocol ->
            let r =
              Scenario.run_consensus ~n:1 ~detector:Scenario.Ec_from_leader ~protocol ()
            in
            Test_util.check_no_violations
              ("n=1 " ^ Scenario.protocol_name protocol)
              r.trace ~n:1;
            Alcotest.(check (option int))
              ("n=1 value " ^ Scenario.protocol_name protocol)
              (Some 100)
              (Option.map (fun (_, v, _, _) -> v)
                 (List.nth_opt (Sim.Trace.decisions r.trace) 0)))
          [ Scenario.Ec Ecfd.Ec_consensus.default_params; Scenario.Ct; Scenario.Mr; Scenario.Hr ]);
    tc "n=2: decides when both are correct (f<n/2 means zero faults)" (fun () ->
        let r =
          Scenario.run_consensus ~n:2 ~detector:Scenario.Ec_from_leader
            ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
        in
        Test_util.check_no_violations "n=2" r.trace ~n:2);
    tc "Value: null handling and proposal validity" (fun () ->
        Alcotest.(check bool) "null is null" true (Consensus.Value.is_null Consensus.Value.null);
        Alcotest.(check bool) "null invalid" false
          (Consensus.Value.valid_proposal Consensus.Value.null);
        Alcotest.(check bool) "0 valid" true (Consensus.Value.valid_proposal 0);
        Alcotest.(check string) "pp null" "<null>"
          (Format.asprintf "%a" Consensus.Value.pp Consensus.Value.null));
    tc "full-stack determinism: same seed, identical trace" (fun () ->
        let run () =
          let r =
            Scenario.run_consensus ~net:{ Scenario.default_net with seed = 91 } ~n:5
              ~crashes:(Sim.Fault.crash 1 ~at:40) ~detector:Scenario.Ec_from_ring
              ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
          in
          List.map (Format.asprintf "%a" Sim.Trace.pp_event) (Sim.Trace.events r.trace)
        in
        Alcotest.(check (list string)) "bit-identical" (run ()) (run ()));
    tc "double proposal is rejected" (fun () ->
        let eng = Scenario.engine ~n:3 () in
        let fd = Scenario.install_detector eng Scenario.Ec_from_leader in
        let rb = Broadcast.Reliable_broadcast.create eng in
        let inst = Ecfd.Ec_consensus.install eng ~fd ~rb Ecfd.Ec_consensus.default_params in
        inst.Consensus.Instance.propose 0 7;
        Alcotest.(check bool) "raises" true
          (try
             inst.Consensus.Instance.propose 0 8;
             false
           with Invalid_argument _ -> true));
    tc "invalid proposal value is rejected" (fun () ->
        let eng = Scenario.engine ~n:3 () in
        let fd = Scenario.install_detector eng Scenario.Ec_from_leader in
        let rb = Broadcast.Reliable_broadcast.create eng in
        let inst = Consensus.Ct_consensus.install eng ~fd ~rb () in
        Alcotest.(check bool) "raises" true
          (try
             inst.Consensus.Instance.propose 0 Consensus.Value.null;
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Hurfin–Raynal-style fast ◇S                                        *)
(* ------------------------------------------------------------------ *)

let hr_tests =
  [
    tc "failure-free run decides in round 1" (fun () ->
        let r = Scenario.run_consensus ~n:5 ~detector:Scenario.Ring_s ~protocol:Scenario.Hr () in
        Test_util.check_no_violations "hr" r.trace ~n:5;
        Alcotest.(check (option int)) "round 1" (Some 1)
          (Spec.Consensus_props.decision_round r.trace));
    tc "rotating coordinator: Theorem 3 shape, like CT" (fun () ->
        let n = 5 in
        let leader = 2 in
        let r =
          Scenario.run_consensus ~n ~detector:(Scenario.Scripted_stable leader)
            ~protocol:Scenario.Hr ()
        in
        Test_util.check_no_violations "hr" r.trace ~n;
        Alcotest.(check (option int)) "decides in round leader+1" (Some (leader + 1))
          (Spec.Consensus_props.decision_round r.trace));
    tc "survives the crash of the first coordinator" (fun () ->
        let r =
          Scenario.run_consensus ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:3)
            ~horizon:10_000 ~detector:Scenario.Ring_s ~protocol:Scenario.Hr ()
        in
        Test_util.check_no_violations "hr coord crash" r.trace ~n:5);
    tc "tolerates a minority of crashes" (fun () ->
        let r =
          Scenario.run_consensus ~n:7
            ~crashes:(Sim.Fault.crashes [ (0, 10); (3, 80); (5, 150) ])
            ~horizon:10_000 ~detector:Scenario.Ring_s ~protocol:Scenario.Hr ()
        in
        Test_util.check_no_violations "hr minority" r.trace ~n:7);
    tc "two communication phases per round" (fun () ->
        let r = Scenario.run_consensus ~n:4 ~detector:Scenario.Ring_s ~protocol:Scenario.Hr () in
        Alcotest.(check int) "phases" 2 r.instance.Consensus.Instance.phases_per_round);
  ]

(* ------------------------------------------------------------------ *)
(* Randomised safety/termination for the baselines                    *)
(* ------------------------------------------------------------------ *)

let property_tests =
  let random_run protocol detector =
    Test_util.qcheck ~count:20
      ~name:
        (Printf.sprintf "%s over %s: uniform consensus on random runs"
           (Scenario.protocol_name protocol)
           (Scenario.detector_name detector))
      QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 100_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:300 in
        let net = { Scenario.default_net with seed; gst = 150 } in
        let r =
          Scenario.run_consensus ~net ~crashes ~horizon:15_000 ~n ~detector ~protocol ()
        in
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d crashes=%s violations=%s" n seed
             (Format.asprintf "%a" Sim.Fault.pp crashes)
             (String.concat "; "
                (List.map
                   (Format.asprintf "%a" Spec.Consensus_props.pp_violation)
                   (Spec.Consensus_props.check_all r.trace ~n))))
          (Spec.Consensus_props.check_all r.trace ~n = []))
  in
  [
    random_run Scenario.Ct Scenario.Ring_s;
    random_run Scenario.Ct Scenario.Heartbeat_p;
    random_run Scenario.Mr Scenario.Ec_from_leader;
    random_run Scenario.Hr Scenario.Ring_s;
  ]

let suites =
  [
    ("consensus.ct", ct_tests);
    ("consensus.mr", mr_tests);
    ("consensus.hr", hr_tests);
    ("consensus.edge", edge_tests);
    ("consensus.props", property_tests);
  ]
