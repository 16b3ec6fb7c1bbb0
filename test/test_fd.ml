(* Tests of the failure-detector framework and the classic detector
   implementations it hosts. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Views and handles                                                  *)
(* ------------------------------------------------------------------ *)

let view_tests =
  [
    tc "empty view" (fun () ->
        Alcotest.(check bool) "nothing suspected" false (Fd.Fd_view.suspects Fd.Fd_view.empty 0);
        Alcotest.(check bool) "nobody trusted" true (Fd.Fd_view.empty.Fd.Fd_view.trusted = None));
    tc "equality is structural" (fun () ->
        let a = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 0; 2 ]) () in
        let b = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 2; 0 ]) () in
        Alcotest.(check bool) "equal" true (Fd.Fd_view.equal a b);
        let c = Fd.Fd_view.make ~trusted:2 ~suspected:(Sim.Pid.set_of_list [ 0; 2 ]) () in
        Alcotest.(check bool) "trusted differs" false (Fd.Fd_view.equal a c));
  ]

let handle_tests =
  [
    tc "set publishes changes once and records them" (fun () ->
        let e = Sim.Engine.create ~n:2 ~link:(Sim.Link.synchronous ~delay:1) () in
        let h = Fd.Fd_handle.make e ~component:"x" in
        let calls = ref 0 in
        Fd.Fd_handle.subscribe h (fun _ _ -> incr calls);
        let v = Fd.Fd_view.make ~trusted:1 ~suspected:Sim.Pid.Set.empty () in
        Fd.Fd_handle.set h 0 v;
        Fd.Fd_handle.set h 0 v;
        (* unchanged: no event *)
        Alcotest.(check int) "one notification" 1 !calls;
        Alcotest.(check bool) "query" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) v);
        (* creation records one view per process, plus the change *)
        Alcotest.(check int) "trace events" 3
          (List.length (Sim.Trace.fd_views ~component:"x" (Sim.Engine.trace e))));
    tc "update composes with the current view" (fun () ->
        let e = Sim.Engine.create ~n:2 ~link:(Sim.Link.synchronous ~delay:1) () in
        let h = Fd.Fd_handle.make e ~component:"x" in
        Fd.Fd_handle.update h 0 (fun v ->
            { v with Fd.Fd_view.suspected = Sim.Pid.Set.add 1 v.Fd.Fd_view.suspected });
        Alcotest.(check bool) "suspects p2" true
          (Sim.Pid.Set.mem 1 (Fd.Fd_handle.suspected h 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Classes                                                            *)
(* ------------------------------------------------------------------ *)

let classes_tests =
  [
    tc "defining properties" (fun () ->
        Alcotest.(check int) "<>P has 2" 2 (List.length (Fd.Classes.properties Fd.Classes.P_eventual));
        Alcotest.(check int) "<>C has 4" 4 (List.length (Fd.Classes.properties Fd.Classes.Ec)));
    tc "implication closure" (fun () ->
        let implied = Fd.Classes.implied_properties Fd.Classes.P_eventual in
        Alcotest.(check bool) "weak completeness implied" true
          (List.mem Fd.Classes.Weak_completeness implied);
        Alcotest.(check bool) "weak accuracy implied" true
          (List.mem Fd.Classes.Eventual_weak_accuracy implied));
    tc "names" (fun () ->
        Alcotest.(check string) "ec" "<>C" (Fd.Classes.name Fd.Classes.Ec);
        Alcotest.(check string) "omega" "Omega" (Fd.Classes.name Fd.Classes.Omega));
  ]

(* ------------------------------------------------------------------ *)
(* Detector end-to-end behaviour                                      *)
(* ------------------------------------------------------------------ *)

let report_holds (r : Spec.Fd_props.report) = r.holds

let heartbeat_tests =
  [
    tc "failure-free: eventual strong accuracy on a chaotic net" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:5 ~gst:400 ())
            ~n:5 ~detector:Scenario.Heartbeat_p ()
        in
        Test_util.check_class "heartbeat-p" Fd.Classes.P_eventual run);
    tc "crashes are permanently suspected by everybody" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (1, 100); (3, 700) ])
            ~detector:Scenario.Heartbeat_p ()
        in
        Test_util.check_class "heartbeat-p" Fd.Classes.P_eventual run);
    tc "costs n(n-1) messages per period" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Heartbeat_p.install e Fd.Heartbeat_p.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Heartbeat_p.default_params.Fd.Heartbeat_p.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Heartbeat_p.component
        in
        Alcotest.(check int) "10 periods" (10 * n * (n - 1)) sent);
    tc "detection latency is about one timeout" (fun () ->
        let crash_at = 500 in
        let _, run, _ =
          Scenario.fd_run ~n:4 ~crashes:(Sim.Fault.crash 2 ~at:crash_at)
            ~detector:Scenario.Heartbeat_p ()
        in
        match Spec.Fd_props.detection_time run ~victim:2 with
        | None -> Alcotest.fail "never detected"
        | Some t ->
          Alcotest.(check bool)
            (Printf.sprintf "latency %d within timeout+2 periods" (t - crash_at))
            true
            (t - crash_at <= 30 + 20 + 10));
  ]

let ring_tests =
  [
    tc "satisfies <>S under crashes" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:6
            ~crashes:(Sim.Fault.crashes [ (0, 200); (3, 400) ])
            ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run);
    tc "chaotic start: accuracy recovers after GST" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:9 ~gst:600 ())
            ~horizon:8000 ~n:5 ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run);
    tc "costs 2n messages per period" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Ring_s.install e Fd.Ring_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Ring_s.default_params.Fd.Ring_s.period));
        let sent = Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Ring_s.component in
        Alcotest.(check int) "10 periods of polls+replies" (10 * 2 * n) sent);
    tc "adjacent crashes are healed around the ring" (fun () ->
        (* p2 and p3 adjacent on the ring: p4's monitor walk must cross both. *)
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (2, 100); (3, 100) ])
            ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run;
        Alcotest.(check bool) "strong accuracy too (benign net)" true
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
    tc "without propagation only weak completeness holds" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:6 ~crashes:(Sim.Fault.crash 2 ~at:100) ~detector:Scenario.Ring_w ()
        in
        Alcotest.(check bool) "weak holds" true
          (report_holds (Spec.Fd_props.weak_completeness run));
        Alcotest.(check bool) "strong fails" false
          (report_holds (Spec.Fd_props.strong_completeness run)));
    tc "the no-propagation ring is even <>Q-grade (strong accuracy)" (fun () ->
        (* Its (local) false suspicions are rescinded on direct replies, so
           under partial synchrony it also offers eventual strong accuracy:
           weak completeness + strong accuracy = the ◇Q corner of Fig. 1. *)
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:15 ~gst:400 ())
            ~horizon:8000 ~n:5 ~crashes:(Sim.Fault.crash 1 ~at:600)
            ~detector:Scenario.Ring_w ()
        in
        Test_util.check_class "ring-w as <>Q" Fd.Classes.Q_eventual run);
  ]

let leader_tests =
  [
    tc "everyone converges on the first correct process" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (0, 150); (1, 300) ])
            ~detector:Scenario.Leader_s ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader is p3" (Some 2) (Spec.Fd_props.eventual_leader run));
    tc "satisfies <>S (with Omega-grade accuracy)" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:150) ~detector:Scenario.Leader_s ()
        in
        Test_util.check_class "leader-s" Fd.Classes.S_eventual run;
        Alcotest.(check bool) "not <>P by construction" false
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
    tc "costs n-1 messages per period once stable" (fun () ->
        let n = 7 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Leader_s.install e Fd.Leader_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Leader_s.default_params.Fd.Leader_s.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Leader_s.component
        in
        Alcotest.(check int) "only the leader beats" (10 * (n - 1)) sent);
    tc "chaotic start still converges" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:13 ~gst:500 ())
            ~horizon:8000 ~n:6 ~detector:Scenario.Leader_s ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run)));
  ]

let stable_omega_tests =
  [
    tc "elects the initial leader and holds it, failure-free" (fun () ->
        let _, run, _ = Scenario.fd_run ~n:5 ~detector:Scenario.Stable_omega () in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader p1" (Some 0) (Spec.Fd_props.eventual_leader run));
    tc "re-elects exactly once per leader crash" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (0, 300); (1, 900) ])
            ~detector:Scenario.Stable_omega ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        (* p3 observes: init + crash of p1 + crash of p2 = at most a couple
           of switches, none of them demoting a live leader. *)
        Alcotest.(check bool) "few changes" true (Spec.Fd_props.leader_changes run 3 <= 3);
        Alcotest.(check int) "no live demotion" 0
          (Spec.Fd_props.demotions_of_live_leaders run 3));
    tc "stability: a returning demoted process does not grab leadership back" (fun () ->
        (* Freeze p1's outgoing heartbeats with a custom link for a while:
           everyone demotes it; when its heartbeats resume, the incumbent
           stays (contrast with Leader_s, which flips back). *)
        let n = 4 in
        let blackout_from = 100 and blackout_to = 400 in
        let base = Sim.Link.synchronous ~delay:2 in
        let link =
          Sim.Link.route ~describe:"blackout-p1" (fun ~src ~dst:_ ->
              if src = 0 then
                {
                  Sim.Link.describe = "p1-muffled";
                  fate =
                    (fun ~rng ~now ~src ~dst ->
                      if now >= blackout_from && now <= blackout_to then Sim.Link.Drop
                      else base.Sim.Link.fate ~rng ~now ~src ~dst);
                }
              else base)
        in
        let run_with install_detector component =
          let e = Sim.Engine.create ~seed:1 ~n ~link () in
          let _ = install_detector e in
          Sim.Engine.run_until e 3000;
          let run = Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace e) in
          (Spec.Fd_props.eventual_leader run, Spec.Fd_props.leader_changes run 2)
        in
        let stable_leader, stable_changes =
          run_with
            (fun e -> Fd.Stable_omega.install e Fd.Stable_omega.default_params)
            Fd.Stable_omega.component
        in
        let plain_leader, plain_changes =
          run_with
            (fun e -> Fd.Leader_s.install e Fd.Leader_s.default_params)
            Fd.Leader_s.component
        in
        (* Stable: p1 demoted once during the blackout, p2 keeps the crown
           afterwards.  Plain order-based: p1 reclaims it. *)
        Alcotest.(check (option int)) "stable keeps the incumbent" (Some 1) stable_leader;
        Alcotest.(check (option int)) "plain flips back to p1" (Some 0) plain_leader;
        Alcotest.(check bool)
          (Printf.sprintf "fewer switches (stable %d vs plain %d)" stable_changes plain_changes)
          true
          (stable_changes <= plain_changes));
    tc "chaotic start: still satisfies Omega (and <>C via the construction)" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:29 ~gst:500 ())
            ~horizon:9000 ~n:6 ~crashes:(Sim.Fault.crash 0 ~at:700)
            ~detector:Scenario.Ec_from_stable ()
        in
        Test_util.check_class "ec-from-stable" Fd.Classes.Ec run);
    tc "costs n-1 messages per period once stable" (fun () ->
        let n = 7 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Stable_omega.install e Fd.Stable_omega.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Stable_omega.default_params.Fd.Stable_omega.period));
        Alcotest.(check int) "only the leader beats" (10 * (n - 1))
          (Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Stable_omega.component));
  ]

let omega_from_s_tests =
  [
    tc "elects a common correct leader over ring-<>S" (fun () ->
        let e = Scenario.engine ~n:5 () in
        Sim.Fault.apply e (Sim.Fault.crash 0 ~at:200);
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let omega = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 6000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component omega)
            ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run)));
    tc "survives the crash of the current leader" (fun () ->
        let e = Scenario.engine ~n:5 () in
        (* p1 is the initial argmin; kill it after stabilisation. *)
        Sim.Fault.apply e (Sim.Fault.crash 0 ~at:1500);
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let omega = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 8000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component omega)
            ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        match Spec.Fd_props.eventual_leader run with
        | Some l -> Alcotest.(check bool) "leader correct" true (l <> 0)
        | None -> Alcotest.fail "no leader");
    tc "costs n(n-1) messages per period (the expensive route)" (fun () ->
        let n = 5 in
        let e = Scenario.engine ~n () in
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let _ = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Omega_from_s.default_params.Fd.Omega_from_s.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Omega_from_s.component
        in
        Alcotest.(check int) "broadcasts" (10 * n * (n - 1)) sent);
  ]

(* The eventual-source fabric of [3]: only [source]'s output links are
   timely; every other link suffers ever-growing silence windows, so no
   time-out — even an adaptive one — can hold on it forever. *)
let eventual_source_link ~source =
  let timely = Sim.Link.reliable ~min_delay:1 ~max_delay:8 () in
  let silent = Sim.Link.growing_blackouts () in
  Sim.Link.route ~describe:"eventual-source" (fun ~src ~dst:_ ->
      if Sim.Pid.equal src source then timely else silent)

let omega_source_tests =
  [
    tc "elects the eventual source, not the smallest id" (fun () ->
        let n = 5 in
        let source = 2 in
        let e = Sim.Engine.create ~seed:1 ~n ~link:(eventual_source_link ~source) () in
        let h = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 30_000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component h) ~n (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true
          (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader is the source" (Some source)
          (Spec.Fd_props.eventual_leader run));
    tc "the order-based election keeps flapping on that fabric" (fun () ->
        (* Same system, Leader_s: whenever a silence window ends, p1's
           heartbeats resume and leadership is handed back to it; the next
           window takes it away again — no permanent leader.  (This is the
           [3] separation that motivates the counter-based algorithm.)  The
           counter-based election is settled long before the same point. *)
        let n = 5 in
        let run_of install component =
          let e = Sim.Engine.create ~seed:1 ~n ~link:(eventual_source_link ~source:2) () in
          install e;
          Sim.Engine.run_until e 30_000;
          Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace e)
        in
        let plain =
          run_of
            (fun e -> ignore (Fd.Leader_s.install e Fd.Leader_s.default_params))
            Fd.Leader_s.component
        in
        let counter =
          run_of
            (fun e -> ignore (Fd.Omega_source.install e Fd.Omega_source.default_params))
            Fd.Omega_source.component
        in
        let late_plain = Spec.Fd_props.leader_changes_after plain 3 ~after:15_000 in
        let late_counter = Spec.Fd_props.leader_changes_after counter 3 ~after:15_000 in
        Alcotest.(check bool)
          (Printf.sprintf "plain flaps late in the run (%d changes)" late_plain)
          true (late_plain > 0);
        Alcotest.(check int) "counter-based is settled" 0 late_counter);
    tc "still plain Omega under full partial synchrony, with crashes" (fun () ->
        let e = Scenario.engine ~n:5 () in
        Sim.Fault.apply e (Sim.Fault.crashes [ (0, 300); (2, 800) ]);
        let h = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 8000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component h) ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        match Spec.Fd_props.eventual_leader run with
        | Some l -> Alcotest.(check bool) "correct leader" true (l <> 0 && l <> 2)
        | None -> Alcotest.fail "no leader");
    tc "costs n(n-1) per period (the price of weak assumptions)" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Omega_source.default_params.Fd.Omega_source.period));
        Alcotest.(check int) "all-to-all" (10 * n * (n - 1))
          (Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Omega_source.component));
  ]

let weak_to_strong_tests =
  [
    tc "amplifies ring-<>W to strong completeness" (fun () ->
        let e = Scenario.engine ~n:6 () in
        Sim.Fault.apply e (Sim.Fault.crash 2 ~at:100);
        let weak = Fd.Ring_s.install e { Fd.Ring_s.default_params with propagate = false } in
        let strong =
          Fd.Weak_to_strong.install e ~underlying:weak Fd.Weak_to_strong.default_params
        in
        Sim.Engine.run_until e 6000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component strong)
            ~n:6 (Sim.Engine.trace e)
        in
        Test_util.check_class "w->s" Fd.Classes.S_eventual run);
    tc "preserves accuracy: transient accusations die out" (fun () ->
        (* A scripted underlying detector that wrongly suspects p1 for a
           while, then stops: the output must eventually clear p1. *)
        let e = Scenario.engine ~n:4 () in
        let bad = Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
        let scripted =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.empty)
            ~steps:
              [
                { Fd.Scripted.at = 50; pid = 2; view = bad };
                { Fd.Scripted.at = 400; pid = 2; view = Fd.Fd_view.empty };
              ]
            ()
        in
        let strong =
          Fd.Weak_to_strong.install e ~underlying:scripted Fd.Weak_to_strong.default_params
        in
        Sim.Engine.run_until e 3000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component strong)
            ~n:4 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "eventual strong accuracy" true
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
  ]

let oracle_scripted_tests =
  [
    tc "oracle is a perfect detector" (fun () ->
        let e = Scenario.engine ~n:4 () in
        let schedule = Sim.Fault.crashes [ (1, 100); (2, 500) ] in
        Sim.Fault.apply e schedule;
        let p = Fd.Oracle_p.install e ~schedule Fd.Oracle_p.default_params in
        Sim.Engine.run_until e 2000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n:4 (Sim.Engine.trace e)
        in
        Test_util.check_class "oracle" Fd.Classes.P_eventual run;
        (* Strong accuracy holds from the very start: no premature suspicion. *)
        let tl = Spec.Fd_props.timeline run 0 in
        Alcotest.(check bool) "never suspects correct p4" true
          (List.for_all (fun (_, v) -> not (Fd.Fd_view.suspects v 3)) tl));
    tc "scripted applies steps at their instants" (fun () ->
        let e = Scenario.engine ~n:3 () in
        let v1 = Fd.Fd_view.make ~trusted:2 ~suspected:(Sim.Pid.set_of_list [ 1 ]) () in
        let h =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.empty)
            ~steps:[ { Fd.Scripted.at = 10; pid = 0; view = v1 } ]
            ()
        in
        Sim.Engine.run_until e 5;
        Alcotest.(check bool) "before" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) Fd.Fd_view.empty);
        Sim.Engine.run_until e 20;
        Alcotest.(check bool) "after" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) v1));
    tc "stable views match the Theorem 3 adversary" (fun () ->
        let v = Fd.Scripted.stable ~leader:1 ~n:4 3 in
        Alcotest.(check (option int)) "trusts leader" (Some 1) v.Fd.Fd_view.trusted;
        Alcotest.(check bool) "suspects p1" true (Fd.Fd_view.suspects v 0);
        Alcotest.(check bool) "not leader" false (Fd.Fd_view.suspects v 1);
        Alcotest.(check bool) "not self" false (Fd.Fd_view.suspects v 3));
  ]

(* Cross-cutting qcheck: every detector satisfies its class on random
   minority-crash schedules. *)
let property_tests =
  let detector_satisfies detector cls =
    Test_util.qcheck ~count:15
      ~name:(Printf.sprintf "%s satisfies %s on random runs" (Scenario.detector_name detector) (Fd.Classes.name cls))
      QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:400 in
        let net = { Scenario.default_net with seed; gst = 200 } in
        let _, run, _ = Scenario.fd_run ~net ~crashes ~horizon:8000 ~n ~detector () in
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d crashes=%s" n seed
             (Format.asprintf "%a" Sim.Fault.pp crashes))
          (Spec.Fd_props.satisfies_class cls run))
  in
  [
    detector_satisfies Scenario.Heartbeat_p Fd.Classes.P_eventual;
    detector_satisfies Scenario.Ring_s Fd.Classes.S_eventual;
    detector_satisfies Scenario.Leader_s Fd.Classes.S_eventual;
    detector_satisfies Scenario.Ring_w Fd.Classes.W_eventual;
  ]

let suites =
  [
    ("fd.view", view_tests);
    ("fd.handle", handle_tests);
    ("fd.classes", classes_tests);
    ("fd.heartbeat_p", heartbeat_tests);
    ("fd.ring_s", ring_tests);
    ("fd.leader_s", leader_tests);
    ("fd.stable_omega", stable_omega_tests);
    ("fd.omega_from_s", omega_from_s_tests);
    ("fd.omega_source", omega_source_tests);
    ("fd.weak_to_strong", weak_to_strong_tests);
    ("fd.oracle_scripted", oracle_scripted_tests);
    ("fd.properties", property_tests);
  ]
