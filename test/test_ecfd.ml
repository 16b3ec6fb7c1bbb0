(* Tests of the paper's contribution: the ◇C class constructions
   (Section 3), the ◇C→◇P transformation (Section 4, Fig. 2) and the
   ◇C consensus algorithm (Section 5, Figs. 3-4). *)

let tc name f = Alcotest.test_case name `Quick f

let ec_params = Ecfd.Ec_consensus.default_params

let report_holds (r : Spec.Fd_props.report) = r.holds

(* ------------------------------------------------------------------ *)
(* Section 3: constructions of <>C                                    *)
(* ------------------------------------------------------------------ *)

let construction_satisfies_ec name detector =
  tc (name ^ " satisfies <>C") (fun () ->
      let crashes = Sim.Fault.crashes [ (0, 200); (3, 500) ] in
      let _, run, _ =
        Scenario.fd_run
          ~net:(Scenario.chaotic_net ~seed:17 ~gst:300 ())
          ~horizon:9000 ~n:6 ~crashes
          ~detector:(match detector with `D d -> d | `Perfect -> Scenario.Ec_from_perfect crashes)
          ()
      in
      Test_util.check_class name Fd.Classes.Ec run)

let construction_tests =
  [
    construction_satisfies_ec "ec-from-leader" (`D Scenario.Ec_from_leader);
    construction_satisfies_ec "ec-from-ring" (`D Scenario.Ec_from_ring);
    construction_satisfies_ec "ec-from-omega-chu" (`D Scenario.Ec_from_omega_chu);
    construction_satisfies_ec "ec-from-heartbeat" (`D Scenario.Ec_from_heartbeat);
    construction_satisfies_ec "ec-from-perfect" `Perfect;
    tc "of_omega suspects everybody but the leader and oneself" (fun () ->
        let e = Scenario.engine ~n:4 () in
        let omega =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.make ~trusted:2 ~suspected:Sim.Pid.Set.empty ())
            ~steps:[] ()
        in
        let ec = Ecfd.Ec.of_omega omega ~engine:e in
        Sim.Engine.run_until e 1;
        let v = Fd.Fd_handle.query ec 0 in
        Alcotest.(check (option int)) "trusted" (Some 2) v.Fd.Fd_view.trusted;
        Alcotest.(check (list int)) "suspects the rest" [ 1; 3 ]
          (Sim.Pid.Set.elements v.Fd.Fd_view.suspected));
    tc "of_perfect trusts the first non-suspected process" (fun () ->
        let e = Scenario.engine ~n:5 () in
        let base =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 0; 1 ]) ())
            ~steps:[] ()
        in
        let ec = Ecfd.Ec.of_perfect base ~engine:e in
        Sim.Engine.run_until e 1;
        Alcotest.(check (option int)) "p3" (Some 2) (Fd.Fd_handle.trusted ec 3));
    tc "of_ring starts the walk at the initial candidate" (fun () ->
        let e = Scenario.engine ~n:5 () in
        let base =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 3 ]) ())
            ~steps:[] ()
        in
        let ec = Ecfd.Ec.of_ring ~initial_candidate:3 base ~engine:e in
        Sim.Engine.run_until e 1;
        (* p4 (the candidate) is suspected; the walk wraps to p5. *)
        Alcotest.(check (option int)) "p5" (Some 4) (Fd.Fd_handle.trusted ec 0));
    tc "derived views track the underlying detector" (fun () ->
        let e = Scenario.engine ~n:3 () in
        let base =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.empty)
            ~steps:
              [
                {
                  Fd.Scripted.at = 10;
                  pid = 1;
                  view = Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 0 ]) ();
                };
              ]
            ()
        in
        let ec = Ecfd.Ec.of_perfect base ~engine:e in
        Sim.Engine.run_until e 5;
        Alcotest.(check (option int)) "before: p1" (Some 0) (Fd.Fd_handle.trusted ec 1);
        Sim.Engine.run_until e 15;
        Alcotest.(check (option int)) "after: p2" (Some 1) (Fd.Fd_handle.trusted ec 1));
    tc "conforms checks the static clauses" (fun () ->
        let good = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 2 ]) () in
        Alcotest.(check bool) "good" true (Ecfd.Ec.conforms ~n:3 0 good);
        let no_leader = Fd.Fd_view.make ~suspected:Sim.Pid.Set.empty () in
        Alcotest.(check bool) "no leader" false (Ecfd.Ec.conforms ~n:3 0 no_leader);
        let self_suspect = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
        Alcotest.(check bool) "self-suspicion" false (Ecfd.Ec.conforms ~n:3 0 self_suspect));
    tc "constructions exchange no messages of their own" (fun () ->
        let e = Scenario.engine ~n:5 () in
        let base = Fd.Leader_s.install e Fd.Leader_s.default_params in
        let _ = Ecfd.Ec.of_leader_s base ~engine:e in
        Sim.Engine.run_until e 2000;
        Alcotest.(check int) "zero" 0
          (Sim.Stats.component_counts (Sim.Engine.stats e)
             ~component:Ecfd.Ec.component_of_leader_s)
            .Sim.Stats.sent);
  ]

(* ------------------------------------------------------------------ *)
(* Section 4: the <>C -> <>P transformation                           *)
(* ------------------------------------------------------------------ *)

let make_transformation_stack ?(n = 5) ?(net = Scenario.default_net) ?(crashes = Sim.Fault.none)
    ?(params = Ecfd.Ec_to_p.default_params) ?(piggyback = false) () =
  let e = Scenario.engine ~net ~n () in
  Sim.Fault.apply e crashes;
  let hooks = Fd.Leader_s.make_hooks () in
  let base = Fd.Leader_s.install ~hooks e Fd.Leader_s.default_params in
  let ec = Ecfd.Ec.of_leader_s base ~engine:e in
  let p =
    if piggyback then Ecfd.Ec_to_p.install_piggybacked e ~hooks ~underlying:ec params
    else Ecfd.Ec_to_p.install e ~underlying:ec params
  in
  (e, ec, p)

let transformation_run ?n ?net ?crashes ?params ?piggyback ?(horizon = 9000) () =
  let e, _, p = make_transformation_stack ?n ?net ?crashes ?params ?piggyback () in
  Sim.Engine.run_until e horizon;
  let n = Sim.Engine.n e in
  (e, Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace e))

let ec_to_p_tests =
  [
    tc "Theorem 1: the output is <>P (chaotic net, crashes)" (fun () ->
        let _, run =
          transformation_run
            ~net:(Scenario.chaotic_net ~seed:23 ~gst:400 ())
            ~crashes:(Sim.Fault.crashes [ (2, 300); (4, 700) ])
            ()
        in
        Test_util.check_class "ec->p" Fd.Classes.P_eventual run);
    tc "survives the crash of the leader itself" (fun () ->
        (* p1 is the initial leader; kill it mid-run so the lists must be
           rebuilt by the next leader. *)
        let _, run =
          transformation_run ~crashes:(Sim.Fault.crashes [ (0, 1000); (3, 2000) ]) ()
        in
        Test_util.check_class "ec->p after leader crash" Fd.Classes.P_eventual run);
    tc "works under Fig. 2's weakest links (fair-lossy out of the leader)" (fun () ->
        let n = 5 in
        let link = Ecfd.Ec_to_p.links ~n ~leader:0 ~gst:300 ~delta:8 ~drop_probability:0.3 () in
        let e = Sim.Engine.create ~seed:31 ~n ~link () in
        Sim.Fault.apply e (Sim.Fault.crash 3 ~at:500);
        (* The underlying detector is scripted to trust p1 everywhere, so
           the transformation's leader matches the link fabric's. *)
        let ec =
          Fd.Scripted.install e ~initial:(Fd.Scripted.stable ~leader:0 ~n) ~steps:[] ()
        in
        let p = Ecfd.Ec_to_p.install e ~underlying:ec Ecfd.Ec_to_p.default_params in
        Sim.Engine.run_until e 12_000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace e)
        in
        Test_util.check_class "ec->p lossy" Fd.Classes.P_eventual run);
    tc "transforms a bare Omega too" (fun () ->
        (* Only the trusted output is queried (the paper notes this). *)
        let n = 4 in
        let e = Scenario.engine ~n () in
        Sim.Fault.apply e (Sim.Fault.crash 2 ~at:400);
        let omega =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.make ~trusted:1 ~suspected:Sim.Pid.Set.empty ())
            ~steps:[] ()
        in
        let p = Ecfd.Ec_to_p.install e ~underlying:omega Ecfd.Ec_to_p.default_params in
        Sim.Engine.run_until e 6000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace e)
        in
        Test_util.check_class "omega->p" Fd.Classes.P_eventual run);
    tc "stand-alone cost: 2(n-1) messages per period" (fun () ->
        let n = 6 in
        let e, _, _ = make_transformation_stack ~n () in
        Sim.Engine.run_until e 2000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (2000 + 100);
        (* 10 list periods + 10 alive periods of 10 ticks each. *)
        let sent = Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Ecfd.Ec_to_p.component in
        Alcotest.(check int) "2(n-1) per period" (10 * 2 * (n - 1)) sent);
    tc "piggybacked cost: n-1 messages per period" (fun () ->
        let n = 6 in
        let e, _, _ = make_transformation_stack ~n ~piggyback:true () in
        Sim.Engine.run_until e 2000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (2000 + 100);
        let own = Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Ecfd.Ec_to_p.component in
        let under =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Leader_s.component
        in
        Alcotest.(check int) "own: only I-AM-ALIVE" (10 * (n - 1)) own;
        Alcotest.(check int) "underlying unchanged" (10 * (n - 1)) under);
    tc "piggybacked output is still <>P" (fun () ->
        let _, run =
          transformation_run ~piggyback:true
            ~crashes:(Sim.Fault.crashes [ (1, 400) ])
            ~net:(Scenario.chaotic_net ~seed:37 ~gst:300 ())
            ()
        in
        Test_util.check_class "piggybacked ec->p" Fd.Classes.P_eventual run);
    tc "doubling time-out growth also converges" (fun () ->
        let _, run =
          transformation_run
            ~params:{ Ecfd.Ec_to_p.default_params with growth = Ecfd.Ec_to_p.Doubling }
            ~net:(Scenario.chaotic_net ~seed:41 ~gst:500 ())
            ~crashes:(Sim.Fault.crash 2 ~at:200) ()
        in
        Test_util.check_class "doubling growth" Fd.Classes.P_eventual run);
    tc "works over the stable leader election too" (fun () ->
        (* Any Ω-grade source will do (the paper notes the algorithm only
           queries the trusted output); the stable election of [2] is a
           drop-in. *)
        let n = 5 in
        let e = Scenario.engine ~net:{ Scenario.default_net with seed = 43 } ~n () in
        Sim.Fault.apply e (Sim.Fault.crashes [ (0, 800); (3, 1600) ]);
        let omega = Fd.Stable_omega.install e Fd.Stable_omega.default_params in
        let ec = Ecfd.Ec.of_leader_s omega ~engine:e in
        let p = Ecfd.Ec_to_p.install e ~underlying:ec Ecfd.Ec_to_p.default_params in
        Sim.Engine.run_until e 10_000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace e)
        in
        Test_util.check_class "stable-omega -> p" Fd.Classes.P_eventual run);
    tc "the output has no trusted process (it is a pure <>P)" (fun () ->
        let e, _, p = make_transformation_stack () in
        Sim.Engine.run_until e 500;
        Alcotest.(check (option int)) "none" None (Fd.Fd_handle.trusted p 2));
    Test_util.qcheck ~count:15 ~name:"Theorem 1 on random runs (E9 in miniature)"
      QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 50_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:500 in
        let net = { Scenario.default_net with seed; gst = 250 } in
        let _, run = transformation_run ~n ~net ~crashes ~horizon:12_000 () in
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d crashes=%s" n seed
             (Format.asprintf "%a" Sim.Fault.pp crashes))
          (Spec.Fd_props.satisfies_class Fd.Classes.P_eventual run));
  ]

(* ------------------------------------------------------------------ *)
(* Section 5: the <>C consensus algorithm                             *)
(* ------------------------------------------------------------------ *)

let run_ec ?net ?crashes ?proposals ?propose_at ?horizon ?(params = ec_params) ?(n = 5)
    ?(detector = Scenario.Ec_from_leader) () =
  Scenario.run_consensus ?net ?crashes ?proposals ?propose_at ?horizon ~n ~detector
    ~protocol:(Scenario.Ec params) ()

(* E15's noise scenario at q = 0.5, seed 3, under the strict wait: p1
   leads, stable and accurate, while the processes drawn as NACKers
   suspect it forever, so no round ever decides. *)
let noisy_strict_trace ~horizon =
  let n = 9 and seed = 3 in
  let rng = Sim.Rng.create ~seed in
  let nackers =
    List.filter (fun p -> not (Sim.Pid.equal p 0) && Sim.Rng.bool rng ~p:0.5) (Sim.Pid.all ~n)
  in
  let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
  let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
  let nacker_view = Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
  let fd =
    Fd.Scripted.install engine
      ~initial:(fun p -> if List.mem p nackers then nacker_view else accurate p)
      ~steps:[] ()
  in
  let rb = Broadcast.Reliable_broadcast.create engine in
  let params =
    { ec_params with Ecfd.Ec_consensus.wait_mode = Strict_majority; max_rounds = 2000 }
  in
  let inst = Ecfd.Ec_consensus.install engine ~fd ~rb params in
  List.iter (fun p -> inst.Consensus.Instance.propose p (100 + p)) (Sim.Pid.all ~n);
  Sim.Engine.run_until engine horizon;
  Sim.Engine.trace engine

let ec_consensus_tests =
  [
    tc "failure-free: one round, everyone decides the same value" (fun () ->
        let r = run_ec () in
        Test_util.check_no_violations "ec" r.trace ~n:5;
        Alcotest.(check (option int)) "round 1" (Some 1)
          (Spec.Consensus_props.decision_round r.trace));
    tc "stable detector: one round regardless of the leader's identity" (fun () ->
        List.iter
          (fun leader ->
            let r = run_ec ~detector:(Scenario.Scripted_stable leader) () in
            Test_util.check_no_violations "ec" r.trace ~n:5;
            Alcotest.(check (option int))
              (Printf.sprintf "leader p%d" (leader + 1))
              (Some 1)
              (Spec.Consensus_props.decision_round r.trace))
          [ 0; 1; 2; 3; 4 ]);
    tc "the early leader crash is survived" (fun () ->
        let r = run_ec ~crashes:(Sim.Fault.crash 0 ~at:2) ~horizon:10_000 () in
        Test_util.check_no_violations "ec leader crash" r.trace ~n:5);
    tc "coordinator crash between proposal and decision" (fun () ->
        (* Crash the leader around the ack-gathering window: the next leader
           must finish the job without violating agreement. *)
        List.iter
          (fun at ->
            let r = run_ec ~crashes:(Sim.Fault.crash 0 ~at) ~horizon:10_000 () in
            Test_util.check_no_violations (Printf.sprintf "crash@%d" at) r.trace ~n:5)
          [ 3; 5; 7; 9; 11; 13 ]);
    tc "repeated leader crashes" (fun () ->
        let r =
          run_ec ~n:7
            ~crashes:(Sim.Fault.crashes [ (0, 4); (1, 8); (2, 12) ])
            ~horizon:15_000 ()
        in
        Test_util.check_no_violations "ec cascade" r.trace ~n:7);
    tc "chaotic pre-GST network" (fun () ->
        let r =
          run_ec
            ~net:(Scenario.chaotic_net ~seed:51 ~gst:600 ())
            ~crashes:(Sim.Fault.crash 1 ~at:100) ~horizon:15_000 ()
        in
        Test_util.check_no_violations "ec chaotic" r.trace ~n:5);
    tc "works over the ring-based <>C too" (fun () ->
        let r =
          run_ec ~detector:Scenario.Ec_from_ring ~crashes:(Sim.Fault.crash 0 ~at:50)
            ~horizon:10_000 ()
        in
        Test_util.check_no_violations "ec over ring" r.trace ~n:5);
    tc "staggered proposals" (fun () ->
        let r = run_ec ~propose_at:(fun p -> 40 * p) ~horizon:10_000 () in
        Test_util.check_no_violations "ec staggered" r.trace ~n:5);
    tc "NACK tolerance: decides despite a persistent false suspicion" (fun () ->
        (* p5 trusts the leader of the others but also suspects it forever:
           every round it NACKs.  The extended wait still decides in round
           1 on the majority of ACKs.  The other views are fully accurate
           (suspect nobody), so the coordinator genuinely waits for all of
           them — this is the accuracy advantage of ◇C over Ω. *)
        let n = 5 in
        let nacker_view =
          Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) ()
        in
        let eng = Scenario.engine ~n () in
        let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
        let fd =
          Fd.Scripted.install eng
            ~initial:(fun p -> if p = 4 then nacker_view else accurate p)
            ~steps:[] ()
        in
        let rb = Broadcast.Reliable_broadcast.create eng in
        let inst = Ecfd.Ec_consensus.install eng ~fd ~rb ec_params in
        List.iter (fun p -> inst.Consensus.Instance.propose p (7 * (p + 1))) (Sim.Pid.all ~n);
        Sim.Engine.run_until eng 5000;
        Test_util.check_no_violations "ec nack tolerance" (Sim.Engine.trace eng) ~n;
        Alcotest.(check (option int)) "still round 1" (Some 1)
          (Spec.Consensus_props.decision_round (Sim.Engine.trace eng)));
    tc "strict-majority ablation blocks under the same suspicion" (fun () ->
        (* Identical scenario, Chandra–Toueg-style waits: the NACK lands in
           the first majority every round, so no decision is reached. *)
        let n = 5 in
        let nacker_view =
          Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) ()
        in
        let eng = Scenario.engine ~n () in
        let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
        let fd =
          Fd.Scripted.install eng
            ~initial:(fun p -> if p = 4 then nacker_view else accurate p)
            ~steps:[] ()
        in
        let rb = Broadcast.Reliable_broadcast.create eng in
        let inst =
          Ecfd.Ec_consensus.install eng ~fd ~rb
            { ec_params with wait_mode = Ecfd.Ec_consensus.Strict_majority; max_rounds = 50 }
        in
        List.iter (fun p -> inst.Consensus.Instance.propose p (7 * (p + 1))) (Sim.Pid.all ~n);
        Sim.Engine.run_until eng 5000;
        Test_util.check_safety_only "ec strict" (Sim.Engine.trace eng);
        Alcotest.(check (option int)) "never decides" None
          (Spec.Consensus_props.decision_round (Sim.Engine.trace eng)));
    tc "merged-phase variant reaches the same agreement" (fun () ->
        let r =
          run_ec
            ~params:{ ec_params with merge_phase01 = true }
            ~crashes:(Sim.Fault.crash 0 ~at:60) ~horizon:10_000 ()
        in
        Test_util.check_no_violations "ec merged" r.trace ~n:5);
    tc "merged-phase variant: one round under a stable detector" (fun () ->
        let r =
          run_ec ~params:{ ec_params with merge_phase01 = true }
            ~detector:(Scenario.Scripted_stable 2) ()
        in
        Test_util.check_no_violations "ec merged stable" r.trace ~n:5;
        Alcotest.(check (option int)) "round 1" (Some 1)
          (Spec.Consensus_props.decision_round r.trace));
    tc "messages per stable round: Theta(n) classic, Theta(n^2) merged" (fun () ->
        let count params =
          let n = 8 in
          let r = run_ec ~n ~params ~detector:(Scenario.Scripted_stable 0) () in
          Spec.Round_metrics.sends_in_round r.trace ~component:Ecfd.Ec_consensus.component
            ~round:1
        in
        let classic = count ec_params in
        let merged = count { ec_params with merge_phase01 = true } in
        (* Classic: announcement + estimates + propositions + acks = 4(n-1). *)
        Alcotest.(check int) "classic = 4(n-1)" (4 * 7) classic;
        (* Merged: estimates+nulls n(n-1), propositions n-1, acks n-1. *)
        Alcotest.(check int) "merged = n(n-1)+2(n-1)" ((8 * 7) + (2 * 7)) merged);
    tc "the whole stack over 40%-lossy links (stubborn transport)" (fun () ->
        (* Fair-lossy everywhere: the leader detector survives because its
           traffic is periodic; the consensus messages and the decision
           broadcast ride retransmitting stubborn channels. *)
        let n = 5 in
        let link =
          Sim.Link.fair_lossy ~drop_probability:0.4
            ~underlying:(Sim.Link.reliable ~min_delay:1 ~max_delay:5 ())
        in
        let engine = Sim.Engine.create ~seed:13 ~n ~link () in
        Sim.Fault.apply engine (Sim.Fault.crash 1 ~at:200);
        let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
        let ec = Ecfd.Ec.of_leader_s base ~engine in
        let st_rb = Broadcast.Stubborn.create ~component:"stubborn.rb" engine in
        let rb = Broadcast.Reliable_broadcast.create ~transport:(`Stubborn st_rb) engine in
        let st_cons = Broadcast.Stubborn.create ~component:"stubborn.cons" engine in
        let inst =
          Ecfd.Ec_consensus.install ~transport:(`Stubborn st_cons) engine ~fd:ec ~rb ec_params
        in
        List.iter (fun p -> inst.Consensus.Instance.propose p (60 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 30_000;
        Test_util.check_no_violations "lossy stack" (Sim.Engine.trace engine) ~n);
    Test_util.qcheck ~count:10 ~name:"stubborn stack terminates even at 60% loss"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        (* Raw one-shot rounds already survive mild loss (a round only needs
           majority paths, and failed rounds retry), but they give no
           guarantee; the retransmitting transport turns termination into a
           certainty, which this law samples at a loss rate where unlucky
           rounds are common. *)
        let n = 5 in
        let link =
          Sim.Link.fair_lossy ~drop_probability:0.6
            ~underlying:(Sim.Link.reliable ~min_delay:1 ~max_delay:5 ())
        in
        let engine = Sim.Engine.create ~seed ~n ~link () in
        let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
        let ec = Ecfd.Ec.of_leader_s base ~engine in
        let st_rb = Broadcast.Stubborn.create ~component:"stubborn.rb" engine in
        let rb = Broadcast.Reliable_broadcast.create ~transport:(`Stubborn st_rb) engine in
        let st_cons = Broadcast.Stubborn.create ~component:"stubborn.cons" engine in
        let inst =
          Ecfd.Ec_consensus.install ~transport:(`Stubborn st_cons) engine ~fd:ec ~rb ec_params
        in
        List.iter (fun p -> inst.Consensus.Instance.propose p (60 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 40_000;
        Test_util.bool_law
          (Printf.sprintf "seed=%d" seed)
          (Spec.Consensus_props.check_all (Sim.Engine.trace engine) ~n = []));
    tc "Phase 0 worst case: all self-proclaimed leaders cost Omega(n^2)" (fun () ->
        (* Section 5.4: "Phase 0 ... could require Omega(n^2) messages in the
           bad case in which all the processes consider themselves as the
           leader."  Scripted detector: everyone trusts itself in round 1,
           then a common leader emerges. *)
        let n = 6 in
        let count_round1_announcements initial =
          let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 31 } ~n () in
          let fd =
            Fd.Scripted.install engine ~initial
              ~steps:
                (List.map
                   (fun p ->
                     { Fd.Scripted.at = 100; pid = p; view = Fd.Scripted.stable ~leader:0 ~n p })
                   (Sim.Pid.all ~n))
              ()
          in
          let rb = Broadcast.Reliable_broadcast.create engine in
          let inst = Ecfd.Ec_consensus.install engine ~fd ~rb ec_params in
          List.iter (fun p -> inst.Consensus.Instance.propose p (40 + p)) (Sim.Pid.all ~n);
          Sim.Engine.run_until engine 5000;
          Test_util.check_no_violations "phase0 worst case" (Sim.Engine.trace engine) ~n;
          Spec.Round_metrics.sends_by_tag_in_round (Sim.Engine.trace engine)
            ~component:Ecfd.Ec_consensus.component ~round:1
          |> List.assoc_opt "coordinator"
          |> Option.value ~default:0
        in
        let everyone_self p = Fd.Scripted.stable ~leader:p ~n p in
        Alcotest.(check int) "all self-leaders: n(n-1) announcements" (n * (n - 1))
          (count_round1_announcements everyone_self);
        Alcotest.(check int) "stable leader: n-1 announcements" (n - 1)
          (count_round1_announcements (Fd.Scripted.stable ~leader:0 ~n)));
    tc "capstone: consensus where <>P is impossible (eventual source + stubborn)" (fun () ->
        (* The weak-synchrony system of [3]: only p3's output links are
           timely; every other link suffers ever-growing silence windows.
           No ◇P exists there (E12), but Ω does — and Ω-grade ◇C plus
           retransmitting channels is enough for the paper's consensus. *)
        let n = 5 in
        let source = 2 in
        let fabric =
          let timely = Sim.Link.reliable ~min_delay:1 ~max_delay:8 () in
          let silent = Sim.Link.growing_blackouts () in
          Sim.Link.route (fun ~src ~dst:_ ->
              if Sim.Pid.equal src source then timely else silent)
        in
        let engine = Sim.Engine.create ~seed:21 ~n ~link:fabric () in
        let omega = Fd.Omega_source.install engine Fd.Omega_source.default_params in
        let ec = Ecfd.Ec.of_omega omega ~engine in
        let st_rb = Broadcast.Stubborn.create ~component:"stubborn.rb" engine in
        let rb = Broadcast.Reliable_broadcast.create ~transport:(`Stubborn st_rb) engine in
        let st_cons = Broadcast.Stubborn.create ~component:"stubborn.cons" engine in
        let inst =
          Ecfd.Ec_consensus.install ~transport:(`Stubborn st_cons) engine ~fd:ec ~rb
            { ec_params with max_rounds = 5000 }
        in
        List.iter (fun p -> inst.Consensus.Instance.propose p (500 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 60_000;
        Test_util.check_no_violations "weak-synchrony consensus" (Sim.Engine.trace engine) ~n);
    tc "n=3: smallest system with a tolerable fault" (fun () ->
        let r = run_ec ~n:3 ~crashes:(Sim.Fault.crash 0 ~at:30) ~horizon:10_000 () in
        Test_util.check_no_violations "ec n=3" r.trace ~n:3);
    Test_util.qcheck ~count:25 ~name:"uniform consensus on random runs (E10 in miniature)"
      QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 100_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:300 in
        let net = { Scenario.default_net with seed; gst = 150 } in
        let r = run_ec ~n ~net ~crashes ~horizon:15_000 () in
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d crashes=%s violations=%s" n seed
             (Format.asprintf "%a" Sim.Fault.pp crashes)
             (String.concat "; "
                (List.map
                   (Format.asprintf "%a" Spec.Consensus_props.pp_violation)
                   (Spec.Consensus_props.check_all r.trace ~n))))
          (Spec.Consensus_props.check_all r.trace ~n = []));
    Test_util.qcheck ~count:20 ~name:"safety holds even under majority crashes"
      QCheck2.Gen.(tup2 (int_range 3 6) (int_range 0 100_000))
      (fun (n, seed) ->
        (* Too many crashes may prevent termination but must never break
           agreement, integrity or validity. *)
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random rng ~n ~max_faulty:(n - 1) ~latest:200 in
        let net = { Scenario.default_net with seed } in
        let r = run_ec ~n ~net ~crashes ~horizon:8000 () in
        Test_util.bool_law "safety"
          (Spec.Consensus_props.check_safety r.trace = []));
    tc "timer ledger conserves across the full stack (crashes orphan, nothing leaks)" (fun () ->
        (* The protocol stack under crashes is the richest timer workload in
           the repo: heartbeat periodics, timeout one-shots, stubborn
           retransmissions — some fired, some cancelled, some orphaned by
           crashes.  Whatever the mix, the engine's lifecycle ledger must
           balance: set = fired + cancelled + orphaned + still-armed, and
           every set timer is reclaimed or still resident. *)
        let r =
          run_ec ~n:5
            ~crashes:(Sim.Fault.crashes [ (1, 40); (3, 150) ])
            ~horizon:10_000 ()
        in
        let e = r.engine in
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check bool) "crashes orphaned at least one armed timer" true
          (lc.Sim.Stats.timers_orphaned > 0);
        Alcotest.(check int) "conservation law" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled
          + lc.Sim.Stats.timers_orphaned + Sim.Engine.timer_armed e);
        Alcotest.(check int) "no leaked registry slots" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_reclaimed + Sim.Engine.timer_residency e));
    tc "undecided noisy run: flat words per trace event, same JSONL" (fun () ->
        (* E15's undecided run (n = 9, q = 0.5, seed 3, strict wait): the
           coordinator announcements pile up round after round.  Sweeping
           every announcement ever received made the cost per trace event
           grow with the horizon (684 → 2578 minor words from 4000 to
           16000); dropping handled ones keeps it flat.  The digests are
           the exports of the code before the prune. *)
        let run horizon =
          let w0 = Gc.minor_words () in
          let trace = noisy_strict_trace ~horizon in
          let words = Gc.minor_words () -. w0 in
          (words /. float_of_int (Sim.Trace.length trace), trace)
        in
        let short, short_trace = run 4000 and long, long_trace = run 16000 in
        Alcotest.(check bool) "no round decides" true
          (Option.is_none (Spec.Consensus_props.decision_round long_trace));
        let digest t = Digest.to_hex (Digest.string (Sim.Trace_export.jsonl_string t)) in
        Alcotest.(check string) "export at 4000" "6a3e123a7d51ad39bf9a6eefc08d2747" (digest short_trace);
        Alcotest.(check string) "export at 16000" "2b543a34488748d2d4291d64741ee341" (digest long_trace);
        if long > 1.5 *. short then
          Alcotest.failf "%.0f minor words per trace event at 16000, %.0f at 4000" long short);
    tc "an adopted estimate outranks initial ones (seed 3173 decides one value)" (fun () ->
        (* The run of `ecfd consensus -n 3 --seed 3173 --gst 150 --horizon
           15000`.  p1 coordinates rounds 1 and 2; in round 1 it proposes
           102 and adopts it.  Round 2's estimate pool then holds that 102
           beside p2's initial 101.  Had the adopted 102 carried ts 0, the
           stamp of an initial estimate (a round counted from 0 gives round
           1 that stamp), the tie would go to 101, and round 2 would decide
           it after round 1 had decided 102. *)
        let n = 3 in
        let net = { (Scenario.chaotic_net ~seed:3173 ~gst:150 ()) with delta = 8 } in
        let r = run_ec ~n ~net ~horizon:15_000 () in
        let values = List.map (fun (_, v, _, _) -> v) (Sim.Trace.decisions r.trace) in
        Alcotest.(check (list int)) "every process decides 102" [ 102; 102; 102 ] values;
        Test_util.check_no_violations "seed 3173" r.trace ~n);
  ]

(* ------------------------------------------------------------------ *)
(* Detector state: memory and lazily allocated tables                 *)
(* ------------------------------------------------------------------ *)

(* A run that takes both lazily allocated paths.  Pre-GST delays make
   process 3 give up on process 0 and re-adopt it when a late heartbeat
   arrives, which grows Leader_s's time-out for 0; process 0's crash at
   300 then hands Ec_to_p leadership to process 1.  The golden export
   test/golden/TRACE_lazy_tables.jsonl was written by the dense-table
   code, so the lazy tables must reproduce it byte for byte.  After an
   intentional trace change, regenerate it with
   [Sim.Trace_export.jsonl_string (lazy_tables_trace ())] and review the
   diff. *)
let lazy_tables_trace () =
  let e, _, _ =
    make_transformation_stack ~n:4 ~piggyback:true
      ~net:(Scenario.chaotic_net ~seed:2 ~gst:200 ())
      ~crashes:(Sim.Fault.crashes [ (0, 300) ])
      ()
  in
  Sim.Engine.run_until e 400;
  Sim.Engine.trace e

(* Live major-heap words after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let detector_state_tests =
  [
    tc "lazy tables: the scripted run takes both paths" (fun () ->
        let events = Sim.Trace.events (lazy_tables_trace ()) in
        let readopted =
          List.exists
            (fun (ev : Sim.Trace.event) ->
              match ev.body with
              | Fd_view { component = "fd.leader-s"; trusted = Some 0; at; _ } -> at > 0
              | _ -> false)
            events
        in
        let handed_over =
          List.exists
            (fun (ev : Sim.Trace.event) ->
              match ev.body with
              | Span_begin { pid = 1; name = "leader-epoch"; at; _ } -> at > 300
              | _ -> false)
            events
        in
        Alcotest.(check bool) "a Leader_s process re-adopts process 0" true readopted;
        Alcotest.(check bool) "process 1 leads after the crash" true handed_over);
    tc "lazy tables: JSONL export matches the golden file byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden/TRACE_lazy_tables.jsonl"
          (Test_util.read_file "golden/TRACE_lazy_tables.jsonl")
          (Sim.Trace_export.jsonl_string (lazy_tables_trace ())));
    (* The piggybacked stack of e23's ecp-steady at n = 400: every
       non-leader's Leader_s and Ec views suspect n - 2 processes for the
       whole run.  The trace lives off the OCaml heap, so the live words
       measure detector state (dense span records measured 24.6 per pair,
       int rows allocated on first suspicion 4.7, batch rows that stay
       batches 0.71). *)
    tc "n = 400: the <>C -> <>P stack holds < 6 live words per (p, q)" (fun () ->
        let n = 400 in
        (* A live engine that holds the domain's spare storage, so the
           stack's engine grows its own whatever test ran before. *)
        let holder = Sim.Engine.create ~n:1 ~link:(Sim.Link.synchronous ~delay:1) () in
        let before = live_words () in
        let e, ec, p = make_transformation_stack ~n ~piggyback:true () in
        Sim.Engine.run_until e 300;
        let after = live_words () in
        ignore (Sys.opaque_identity (holder, e, ec, p));
        let per_pair = float_of_int (after - before) /. float_of_int (n * n) in
        if per_pair >= 6. then Alcotest.failf "%.1f live words per (p, q) pair" per_pair);
    (* The same stack's state is O(n): a first suspicion costs a batch
       row of three words, not two n-int rows, so doubling n leaves the
       words per process nearly flat (284 at n = 400 and 292 at n = 800;
       dense rows measured 1891 and 3499). *)
    tc "n = 400 and 800: the <>C -> <>P stack's live words per process stay flat" (fun () ->
        let per_process n =
          (* A live engine that holds the domain's spare storage, so the
             stack's engine grows its own and the figure counts it. *)
          let holder = Sim.Engine.create ~n:1 ~link:(Sim.Link.synchronous ~delay:1) () in
          let before = live_words () in
          let e, ec, p = make_transformation_stack ~n ~piggyback:true () in
          Sim.Engine.run_until e 300;
          let after = live_words () in
          ignore (Sys.opaque_identity (holder, e, ec, p));
          float_of_int (after - before) /. float_of_int n
        in
        let w400 = per_process 400 in
        let w800 = per_process 800 in
        if w800 > 1.25 *. w400 || w400 >= 400. || w800 >= 400. then
          Alcotest.failf "live words per process: %.0f at n = 400, %.0f at n = 800" w400 w800);
  ]

let suites =
  [
    ("ecfd.constructions", construction_tests);
    ("ecfd.ec_to_p", ec_to_p_tests);
    ("ecfd.ec_consensus", ec_consensus_tests);
    ("ecfd.detector_state", detector_state_tests);
  ]
