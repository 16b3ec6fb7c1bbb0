(* Tests of total-order broadcast (atomic broadcast from repeated
   consensus) — the paper's flagship application domain. *)

let tc name f = Alcotest.test_case name `Quick f

let make_stack ?(n = 5) ?(seed = 1) ?(crashes = Sim.Fault.none) ?(max_slots = 24)
    ?(protocol = `Ec) () =
  let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
  Sim.Fault.apply engine crashes;
  let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
  let make_instance ~slot =
    let suffix = Printf.sprintf ".slot%d" slot in
    let rb =
      Broadcast.Reliable_broadcast.create
        ~component:(Broadcast.Reliable_broadcast.default_component ^ suffix)
        engine
    in
    match protocol with
    | `Ec ->
      Ecfd.Ec_consensus.install
        ~component:(Ecfd.Ec_consensus.component ^ suffix)
        engine ~fd ~rb Ecfd.Ec_consensus.default_params
    | `Ct ->
      Consensus.Ct_consensus.install
        ~component:(Consensus.Ct_consensus.component ^ suffix)
        engine ~fd ~rb ()
  in
  let to_ = Consensus.Total_order.create ~max_slots engine ~make_instance () in
  (engine, to_)

let logs_of engine to_ =
  let n = Sim.Engine.n engine in
  List.filter_map
    (fun p ->
      if Sim.Engine.is_alive engine p then
        Some (p, List.map (fun m -> m.Consensus.Total_order.body) (Consensus.Total_order.delivered to_ p))
      else None)
    (Sim.Pid.all ~n)

let check_total_order what logs =
  match logs with
  | [] -> Alcotest.fail (what ^ ": no correct process")
  | (_, reference) :: rest ->
    List.iter
      (fun (p, log) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s's log equals the reference" what (Sim.Pid.to_string p))
          reference log)
      rest;
    (* integrity: no duplicates *)
    Alcotest.(check int) (what ^ ": no duplicate delivery")
      (List.length reference)
      (List.length (List.sort_uniq compare reference))

let to_tests =
  [
    tc "all correct processes deliver the same sequence" (fun () ->
        let engine, to_ = make_stack () in
        List.iter
          (fun (src, body) -> Sim.Engine.at engine (10 * body) (fun () ->
               Consensus.Total_order.broadcast to_ ~src ~body))
          [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 6); (1, 7) ];
        Sim.Engine.run_until engine 20_000;
        let logs = logs_of engine to_ in
        check_total_order "failure-free" logs;
        let _, reference = List.hd logs in
        Alcotest.(check (list int)) "everything delivered" [ 1; 2; 3; 4; 5; 6; 7 ]
          (List.sort compare reference));
    tc "concurrent broadcasts are linearised identically everywhere" (fun () ->
        let engine, to_ = make_stack ~seed:9 () in
        (* Everybody broadcasts at the same instant: the slots decide the
           order, not the wall clock. *)
        List.iter
          (fun src -> Sim.Engine.at engine 5 (fun () ->
               Consensus.Total_order.broadcast to_ ~src ~body:(100 + src)))
          [ 0; 1; 2; 3; 4 ];
        Sim.Engine.run_until engine 20_000;
        check_total_order "concurrent" (logs_of engine to_));
    tc "a crashed broadcaster cannot fork the log" (fun () ->
        let engine, to_ = make_stack ~crashes:(Sim.Fault.crash 1 ~at:60) () in
        Sim.Engine.at engine 5 (fun () -> Consensus.Total_order.broadcast to_ ~src:1 ~body:11);
        Sim.Engine.at engine 50 (fun () -> Consensus.Total_order.broadcast to_ ~src:1 ~body:12);
        Sim.Engine.at engine 100 (fun () -> Consensus.Total_order.broadcast to_ ~src:0 ~body:13);
        Sim.Engine.run_until engine 20_000;
        let logs = logs_of engine to_ in
        check_total_order "crashed broadcaster" logs;
        let _, reference = List.hd logs in
        (* 13 (from a correct process) must be there; 11/12 may or may not,
           but identically everywhere (already checked). *)
        Alcotest.(check bool) "correct broadcast delivered" true (List.mem 13 reference));
    tc "a broadcast from a crashed process is a no-op" (fun () ->
        let engine, to_ = make_stack ~crashes:(Sim.Fault.crash 0 ~at:10) () in
        Sim.Engine.run_until engine 20;
        let trace_length () = Sim.Trace.length (Sim.Engine.trace engine) in
        let registry () =
          Obs.Registry.json_of_snapshot (Obs.Registry.snapshot (Sim.Engine.obs engine))
        in
        let delivered () =
          List.map (fun p -> List.length (Consensus.Total_order.delivered to_ p)) (Sim.Pid.all ~n:5)
        in
        let length0, registry0, delivered0 = (trace_length (), registry (), delivered ()) in
        Consensus.Total_order.broadcast to_ ~src:0 ~body:1;
        Alcotest.(check int) "trace length unchanged" length0 (trace_length ());
        Alcotest.(check string) "registry snapshot unchanged" registry0 (registry ());
        Alcotest.(check (list int)) "deliveries unchanged" delivered0 (delivered ()));
    tc "leader crash mid-stream" (fun () ->
        let engine, to_ = make_stack ~seed:3 ~crashes:(Sim.Fault.crash 0 ~at:150) () in
        List.iteri
          (fun i src ->
            Sim.Engine.at engine (40 * (i + 1)) (fun () ->
                if Sim.Engine.is_alive engine src then
                  Consensus.Total_order.broadcast to_ ~src ~body:(200 + i)))
          [ 0; 1; 2; 3; 4; 1; 2 ];
        Sim.Engine.run_until engine 30_000;
        let logs = logs_of engine to_ in
        check_total_order "leader crash" logs;
        let _, reference = List.hd logs in
        (* Broadcasts from correct processes (all but index 0) must arrive. *)
        List.iter
          (fun body ->
            Alcotest.(check bool) (Printf.sprintf "body %d delivered" body) true
              (List.mem body reference))
          [ 201; 202; 203; 204; 205; 206 ]);
    tc "works over the Chandra-Toueg baseline too" (fun () ->
        let engine, to_ = make_stack ~protocol:`Ct ~seed:5 () in
        List.iter
          (fun src -> Sim.Engine.at engine (7 * src) (fun () ->
               Consensus.Total_order.broadcast to_ ~src ~body:(300 + src)))
          [ 0; 1; 2; 3; 4 ];
        Sim.Engine.run_until engine 20_000;
        let logs = logs_of engine to_ in
        check_total_order "over ct" logs;
        let _, reference = List.hd logs in
        Alcotest.(check int) "all five delivered" 5 (List.length reference));
    tc "subscribers see deliveries in log order" (fun () ->
        let engine, to_ = make_stack ~seed:6 () in
        let seen = ref [] in
        Consensus.Total_order.subscribe to_ 2 (fun m ->
            seen := m.Consensus.Total_order.body :: !seen);
        List.iter
          (fun src -> Sim.Engine.at engine (5 * src) (fun () ->
               Consensus.Total_order.broadcast to_ ~src ~body:(400 + src)))
          [ 0; 1; 2 ];
        Sim.Engine.run_until engine 20_000;
        Alcotest.(check (list int)) "callback order = log order"
          (List.map (fun m -> m.Consensus.Total_order.body) (Consensus.Total_order.delivered to_ 2))
          (List.rev !seen));
    Test_util.qcheck ~count:10 ~name:"total order on random runs"
      QCheck2.Gen.(tup2 (int_range 3 6) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:300 in
        let engine, to_ = make_stack ~n ~seed ~crashes () in
        let k = 2 + Sim.Rng.int rng ~bound:5 in
        for i = 0 to k - 1 do
          let src = Sim.Rng.int rng ~bound:n in
          let at = Sim.Rng.int rng ~bound:400 in
          Sim.Engine.at engine at (fun () ->
              if Sim.Engine.is_alive engine src then
                Consensus.Total_order.broadcast to_ ~src ~body:(500 + i))
        done;
        Sim.Engine.run_until engine 30_000;
        let logs = logs_of engine to_ in
        match logs with
        | [] -> true
        | (_, reference) :: rest ->
          List.for_all (fun (_, log) -> log = reference) rest
          && List.length reference = List.length (List.sort_uniq compare reference));
  ]

let suites = [ ("consensus.total_order", to_tests) ]
