(* Network partitions, modelled within the paper's system model: links stay
   reliable (every message is eventually delivered) but cross-partition
   messages are delayed until the partition heals — an asynchronous period
   localised to the cut.  The majority side must keep deciding; the
   minority must block (quorums!) and then catch up at heal time. *)

let tc name f = Alcotest.test_case name `Quick f

(* Group A = pids < cut; group B = the rest.  Cross-group messages sent
   during [from_t, heal) arrive shortly after [heal]. *)
let partition_link ~cut ~from_t ~heal =
  let base = Sim.Link.reliable ~min_delay:1 ~max_delay:6 () in
  let crossing src dst = src < cut <> (dst < cut) in
  {
    Sim.Link.fate =
      (fun ~rng ~now ~src ~dst ->
        if crossing src dst && now >= from_t && now < heal then
          heal + Sim.Rng.int_in_range rng ~lo:1 ~hi:8
        else base.Sim.Link.fate ~rng ~now ~src ~dst);
  }

let build ~n ~link ~protocol =
  let engine = Sim.Engine.create ~seed:3 ~n ~link () in
  let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
  let rb = Broadcast.Reliable_broadcast.create engine in
  let instance =
    match protocol with
    | `Ec -> Ecfd.Ec_consensus.install engine ~fd ~rb Ecfd.Ec_consensus.default_params
    | `Ct -> Consensus.Ct_consensus.install engine ~fd ~rb ()
  in
  List.iter (fun p -> instance.Consensus.Instance.propose p (300 + p)) (Sim.Pid.all ~n);
  (engine, instance)

let deciders instance ~n =
  List.filter (fun p -> instance.Consensus.Instance.decision p <> None) (Sim.Pid.all ~n)

let partition_tests =
  [
    tc "minority side blocks, majority decides, heal reunites (<>C)" (fun () ->
        let n = 5 in
        (* {p1,p2} cut off from {p3,p4,p5} from the very start until 2000. *)
        let link = partition_link ~cut:2 ~from_t:0 ~heal:2000 in
        let engine, instance = build ~n ~link ~protocol:`Ec in
        Sim.Engine.run_until engine 1500;
        let mid = deciders instance ~n in
        Alcotest.(check bool) "minority p1 undecided mid-partition" false (List.mem 0 mid);
        Alcotest.(check bool) "minority p2 undecided mid-partition" false (List.mem 1 mid);
        Alcotest.(check bool) "majority decided mid-partition" true
          (List.for_all (fun p -> List.mem p mid) [ 2; 3; 4 ]);
        Sim.Engine.run_until engine 6000;
        Test_util.check_no_violations "after heal" (Sim.Engine.trace engine) ~n);
    tc "same through Chandra-Toueg" (fun () ->
        let n = 5 in
        let link = partition_link ~cut:2 ~from_t:0 ~heal:2000 in
        let engine, instance = build ~n ~link ~protocol:`Ct in
        Sim.Engine.run_until engine 1500;
        Alcotest.(check bool) "minority undecided mid-partition" false
          (List.mem 0 (deciders instance ~n));
        Sim.Engine.run_until engine 8000;
        Test_util.check_no_violations "after heal" (Sim.Engine.trace engine) ~n);
    tc "partition striking mid-round cannot split the decision" (fun () ->
        (* The cut lands a few ticks in, while round 1's messages fly. *)
        List.iter
          (fun from_t ->
            let n = 5 in
            let link = partition_link ~cut:2 ~from_t ~heal:1500 in
            let engine, _ = build ~n ~link ~protocol:`Ec in
            Sim.Engine.run_until engine 8000;
            Test_util.check_no_violations
              (Printf.sprintf "cut at t=%d" from_t)
              (Sim.Engine.trace engine) ~n)
          [ 2; 5; 8; 11; 14 ]);
    tc "leader isolated in the minority: majority re-elects and decides" (fun () ->
        let n = 5 in
        (* p1 (initial leader) sits in the minority {p1}. *)
        let link = partition_link ~cut:1 ~from_t:0 ~heal:2500 in
        let engine, instance = build ~n ~link ~protocol:`Ec in
        Sim.Engine.run_until engine 2000;
        Alcotest.(check bool) "majority decided during the cut" true
          (List.for_all (fun p -> List.mem p (deciders instance ~n)) [ 1; 2; 3; 4 ]);
        Sim.Engine.run_until engine 8000;
        Test_util.check_no_violations "after heal" (Sim.Engine.trace engine) ~n;
        (* The old leader adopts the majority's decision, not its own. *)
        let vs =
          List.sort_uniq compare
            (List.map (fun (_, v, _, _) -> v) (Sim.Trace.decisions (Sim.Engine.trace engine)))
        in
        Alcotest.(check int) "single decided value" 1 (List.length vs));
    Test_util.qcheck ~count:15 ~name:"random cuts never violate uniform consensus"
      QCheck2.Gen.(tup3 (int_range 3 7) (int_range 0 10_000) (int_range 0 300))
      (fun (n, seed, from_t) ->
        let cut = 1 + (seed mod (n - 1)) in
        let link = partition_link ~cut ~from_t ~heal:(from_t + 1500) in
        let engine = Sim.Engine.create ~seed ~n ~link () in
        let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
        let rb = Broadcast.Reliable_broadcast.create engine in
        let instance =
          Ecfd.Ec_consensus.install engine ~fd ~rb Ecfd.Ec_consensus.default_params
        in
        List.iter (fun p -> instance.Consensus.Instance.propose p (400 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 20_000;
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d cut=%d from=%d" n seed cut from_t)
          (Spec.Consensus_props.check_all (Sim.Engine.trace engine) ~n = []));
  ]

let suites = [ ("consensus.partition", partition_tests) ]
