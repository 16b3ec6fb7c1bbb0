(* Long-run soak: a replicated store under sustained traffic, repeated
   leader crashes and a partition, over tens of thousands of ticks — the
   closest this repository gets to "running it in production overnight". *)

let tc name f = Alcotest.test_case name `Slow f

module Kv = Consensus.Kv_store

let soak_tests =
  [
    tc "40k ticks, rolling leader crashes, sustained writes" (fun () ->
        let n = 7 in
        let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 101 } ~n () in
        (* The first three leaders fall, spread over the run. *)
        Sim.Fault.apply engine (Sim.Fault.crashes [ (0, 4_000); (1, 14_000); (2, 24_000) ]);
        let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
        let make_instance ~slot =
          let suffix = Printf.sprintf ".slot%d" slot in
          let rb =
            Broadcast.Reliable_broadcast.create
              ~component:(Broadcast.Reliable_broadcast.default_component ^ suffix)
              engine
          in
          Ecfd.Ec_consensus.install
            ~component:(Ecfd.Ec_consensus.component ^ suffix)
            engine ~fd ~rb Ecfd.Ec_consensus.default_params
        in
        let store = Kv.create ~max_slots:96 engine ~make_instance () in
        (* One write every 500 ticks from a rotating replica, 70 in all. *)
        let submitted = ref 0 in
        for i = 0 to 69 do
          let src = i mod n in
          let at = 100 + (i * 500) in
          Sim.Engine.at engine at (fun () ->
              if Sim.Engine.is_alive engine src then begin
                incr submitted;
                Kv.submit store ~src (Kv.Add { key = i mod 5; delta = 1 })
              end)
        done;
        Sim.Engine.run_until engine 60_000;
        let correct = List.filter (Sim.Engine.is_alive engine) (Sim.Pid.all ~n) in
        (* Convergence of state and of the full applied log. *)
        let reference = Kv.entries store (List.hd correct) in
        List.iter
          (fun p ->
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s converged" (Sim.Pid.to_string p))
              reference (Kv.entries store p))
          (List.tl correct);
        (* Every accepted write from a then-alive replica must be in. *)
        let total = List.fold_left (fun acc (_, v) -> acc + v) 0 reference in
        Alcotest.(check int) "no lost or duplicated increments" !submitted total;
        Alcotest.(check bool) "a healthy share of writes went through" true (!submitted >= 50));
    tc "a partition in the middle of the soak heals cleanly" (fun () ->
        let n = 5 in
        let base = Sim.Link.reliable ~min_delay:1 ~max_delay:6 () in
        let link =
          {
            Sim.Link.describe = "soak-partition";
            fate =
              (fun ~rng ~now ~src ~dst ->
                let crossing = src < 2 <> (dst < 2) in
                if crossing && now >= 8_000 && now < 16_000 then
                  Sim.Link.Deliver_at (16_000 + Sim.Rng.int_in_range rng ~lo:1 ~hi:8)
                else base.Sim.Link.fate ~rng ~now ~src ~dst);
          }
        in
        let engine = Sim.Engine.create ~seed:55 ~n ~link () in
        let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
        let make_instance ~slot =
          let suffix = Printf.sprintf ".slot%d" slot in
          let rb =
            Broadcast.Reliable_broadcast.create
              ~component:(Broadcast.Reliable_broadcast.default_component ^ suffix)
              engine
          in
          Ecfd.Ec_consensus.install
            ~component:(Ecfd.Ec_consensus.component ^ suffix)
            engine ~fd ~rb Ecfd.Ec_consensus.default_params
        in
        let store = Kv.create ~max_slots:64 engine ~make_instance () in
        for i = 0 to 39 do
          let src = i mod n in
          Sim.Engine.at engine (200 + (i * 600)) (fun () ->
              Kv.submit store ~src (Kv.Add { key = 0; delta = 1 }))
        done;
        Sim.Engine.run_until engine 60_000;
        let logs = List.map (fun p -> Kv.log store p) (Sim.Pid.all ~n) in
        Alcotest.(check bool) "all five logs identical" true
          (List.for_all (( = ) (List.hd logs)) logs);
        Alcotest.(check (option int)) "all 40 increments survived" (Some 40)
          (Kv.get store 0 ~key:0));
    tc "10^6 events with 10^5 cancellations: timer table and heap stay bounded" (fun () ->
        (* The engine-core soak: timer-dominated churn (timers record no
           trace, so memory pressure is pure engine state).  Every tick each
           process arms two timers and cancels one; before the registry
           rework, each cancellation left a hashtable entry behind forever,
           so this run would have accumulated >3*10^5 dead entries. *)
        let n = 8 in
        let engine = Sim.Engine.create ~seed:7 ~n ~link:(Sim.Link.synchronous ~delay:1) () in
        let max_residency = ref 0 in
        List.iter
          (fun p ->
            ignore
              (Sim.Engine.every engine p ~phase:0 ~period:1 (fun () ->
                   let doomed = Sim.Engine.set_timer engine p ~delay:3 (fun () -> ()) in
                   ignore
                     (Sim.Engine.set_timer engine p ~delay:2 (fun () -> ())
                       : Sim.Engine.timer);
                   Sim.Engine.cancel_timer engine doomed;
                   let r = Sim.Engine.timer_residency engine in
                   if r > !max_residency then max_residency := r)
                : unit -> unit))
          (Sim.Pid.all ~n);
        let steps = ref 0 in
        while !steps < 1_000_000 && Sim.Engine.step engine do
          incr steps
        done;
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
        Alcotest.(check bool) "ran >= 10^6 events" true (lc.Sim.Stats.events_executed >= 1_000_000);
        Alcotest.(check bool)
          (Printf.sprintf "ran >= 10^5 cancellations (got %d)" lc.Sim.Stats.timers_cancelled)
          true
          (lc.Sim.Stats.timers_cancelled >= 100_000);
        (* Residency bounded by in-flight timers: at most 2 fresh timers per
           process per tick over a 3-tick window, plus the periodic driver —
           nowhere near the 3*10^5 cancellations issued. *)
        let bound = n * 7 in
        Alcotest.(check bool)
          (Printf.sprintf "timer-table residency bounded (max %d <= %d)" !max_residency bound)
          true (!max_residency <= bound);
        Alcotest.(check bool)
          (Printf.sprintf "slot reuse keeps the table small (capacity %d)"
             (Sim.Engine.timer_table_capacity engine))
          true
          (Sim.Engine.timer_table_capacity engine <= bound);
        (* Conservation: every set timer was reclaimed or is still pending. *)
        Alcotest.(check int) "set = reclaimed + resident" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_reclaimed + Sim.Engine.timer_residency engine);
        (* The event queue's high-water mark is a burst bound, not O(run). *)
        Alcotest.(check bool)
          (Printf.sprintf "queue high-water bounded (%d)" lc.Sim.Stats.queue_high_water)
          true
          (lc.Sim.Stats.queue_high_water <= n * 8);
        (* Mid-flight, [compact] may only tighten, never disturb: capacity
           stays within the old bound and covers everything resident. *)
        Sim.Engine.compact engine;
        Alcotest.(check bool) "mid-flight compact keeps capacity within the bound" true
          (Sim.Engine.timer_table_capacity engine <= bound
          && Sim.Engine.timer_table_capacity engine >= Sim.Engine.timer_residency engine);
        let before = (Sim.Stats.lifecycle (Sim.Engine.stats engine)).Sim.Stats.timers_fired in
        let resumed = ref 0 in
        while !resumed < 10_000 && Sim.Engine.step engine do
          incr resumed
        done;
        let after = (Sim.Stats.lifecycle (Sim.Engine.stats engine)).Sim.Stats.timers_fired in
        Alcotest.(check bool) "engine keeps firing timers after mid-flight compaction" true
          (after > before);
        (* Crash every process: the periodics stop re-arming, the remaining
           pops come up orphaned, and the registry drains to empty — at
           which point [compact] must shrink the table to the live
           residency, i.e. zero.  This is the contract a long-lived engine
           relies on: footprint tracks what is in flight now, not the
           historical high-water. *)
        List.iter
          (fun p -> Sim.Engine.schedule_crash engine p ~at:(Sim.Engine.now engine + 1))
          (Sim.Pid.all ~n);
        while Sim.Engine.step engine do
          ()
        done;
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
        Alcotest.(check bool)
          (Printf.sprintf "drain orphaned the in-flight timers (%d)" lc.Sim.Stats.timers_orphaned)
          true
          (lc.Sim.Stats.timers_orphaned > 0);
        Alcotest.(check int) "conservation after drain: set = fired + cancelled + orphaned"
          lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled + lc.Sim.Stats.timers_orphaned);
        Alcotest.(check int) "registry fully drained" 0 (Sim.Engine.timer_residency engine);
        Sim.Engine.compact engine;
        Alcotest.(check int) "compact shrank the drained table to live residency" 0
          (Sim.Engine.timer_table_capacity engine));
  ]

let suites = [ ("soak", soak_tests) ]
