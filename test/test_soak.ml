(* Long-run soak: total-order broadcast over repeated ◇C consensus under
   sustained traffic, repeated leader crashes and a partition, over tens
   of thousands of ticks — the closest this repository gets to "running it
   in production overnight". *)

let tc name f = Alcotest.test_case name `Slow f

module To = Consensus.Total_order

(* One ◇C consensus instance per total-order slot, all on detector [fd]. *)
let ec_slots engine ~fd ~slot =
  let suffix = Printf.sprintf ".slot%d" slot in
  let rb =
    Broadcast.Reliable_broadcast.create
      ~component:(Broadcast.Reliable_broadcast.default_component ^ suffix)
      engine
  in
  Ecfd.Ec_consensus.install
    ~component:(Ecfd.Ec_consensus.component ^ suffix)
    engine ~fd ~rb Ecfd.Ec_consensus.default_params

let bodies order p = List.map (fun m -> m.To.body) (To.delivered order p)

let soak_tests =
  [
    tc "40k ticks, rolling leader crashes, sustained writes" (fun () ->
        let n = 7 in
        let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 101 } ~n () in
        (* The first three leaders fall, spread over the run. *)
        Sim.Fault.apply engine (Sim.Fault.crashes [ (0, 4_000); (1, 14_000); (2, 24_000) ]);
        let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
        let order = To.create ~max_slots:96 engine ~make_instance:(ec_slots engine ~fd) () in
        (* One write every 500 ticks from a rotating process, 70 in all;
           write [i] carries body [i]. *)
        let rev_submitted = ref [] in
        for i = 0 to 69 do
          let src = i mod n in
          let at = 100 + (i * 500) in
          Sim.Engine.at engine at (fun () ->
              if Sim.Engine.is_alive engine src then begin
                rev_submitted := i :: !rev_submitted;
                To.broadcast order ~src ~body:i
              end)
        done;
        Sim.Engine.run_until engine 60_000;
        let correct = List.filter (Sim.Engine.is_alive engine) (Sim.Pid.all ~n) in
        (* Every correct process delivers the same sequence. *)
        let reference = bodies order (List.hd correct) in
        List.iter
          (fun p ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s delivered the same sequence" (Sim.Pid.to_string p))
              reference (bodies order p))
          (List.tl correct);
        (* Every accepted write from a then-alive process is delivered
           exactly once. *)
        Alcotest.(check (list int)) "no lost or duplicated writes" (List.rev !rev_submitted)
          (List.sort Int.compare reference);
        Alcotest.(check bool) "a healthy share of writes went through" true
          (List.length !rev_submitted >= 50));
    tc "a partition in the middle of the soak heals cleanly" (fun () ->
        let n = 5 in
        let base = Sim.Link.reliable ~min_delay:1 ~max_delay:6 () in
        let link =
          {
            Sim.Link.fate =
              (fun ~rng ~now ~src ~dst ->
                let crossing = src < 2 <> (dst < 2) in
                if crossing && now >= 8_000 && now < 16_000 then
                  16_000 + Sim.Rng.int_in_range rng ~lo:1 ~hi:8
                else base.Sim.Link.fate ~rng ~now ~src ~dst);
          }
        in
        let engine = Sim.Engine.create ~seed:55 ~n ~link () in
        let fd = Scenario.install_detector engine Scenario.Ec_from_leader in
        let order = To.create ~max_slots:64 engine ~make_instance:(ec_slots engine ~fd) () in
        for i = 0 to 39 do
          let src = i mod n in
          Sim.Engine.at engine (200 + (i * 600)) (fun () -> To.broadcast order ~src ~body:i)
        done;
        Sim.Engine.run_until engine 60_000;
        let reference = bodies order 0 in
        List.iter
          (fun p ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s delivered the same sequence" (Sim.Pid.to_string p))
              reference (bodies order p))
          (Sim.Pid.others ~n 0);
        Alcotest.(check (list int)) "all 40 writes survived" (List.init 40 Fun.id)
          (List.sort Int.compare reference));
    tc "10^6 events with 10^5 cancellations: timer table and event wheel stay bounded" (fun () ->
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
          (Printf.sprintf "slot reuse keeps the slab small (capacity %d)"
             (Sim.Engine.slab_capacity engine))
          true
          (Sim.Engine.slab_capacity engine <= bound);
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
          (Sim.Engine.slab_capacity engine <= bound
          && Sim.Engine.slab_capacity engine >= Sim.Engine.timer_residency engine);
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
        Alcotest.(check int) "compact shrank the drained slab to live residency" 0
          (Sim.Engine.slab_capacity engine));
  ]

let suites = [ ("soak", soak_tests) ]
