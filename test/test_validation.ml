(* Input validation across the public API: bad parameters must fail loudly
   at construction time, not corrupt a running simulation. *)

let tc name f = Alcotest.test_case name `Quick f

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let engine () = Scenario.engine ~n:3 ()

let validation_tests =
  [
    tc "engine: n must be positive" (fun () ->
        Alcotest.(check bool) "n=0" true
          (raises_invalid (fun () ->
               ignore (Sim.Engine.create ~n:0 ~link:(Sim.Link.synchronous ~delay:1) ()))));
    tc "engine: invalid pids are rejected everywhere" (fun () ->
        let e = engine () in
        Alcotest.(check bool) "send bad src" true
          (raises_invalid (fun () ->
               Sim.Engine.send e ~component:"x" ~tag:"t" ~src:7 ~dst:0 Sim.Payload.Blank));
        Alcotest.(check bool) "is_alive bad pid" true
          (raises_invalid (fun () -> ignore (Sim.Engine.is_alive e (-1))));
        Alcotest.(check bool) "crash bad pid" true
          (raises_invalid (fun () -> Sim.Engine.schedule_crash e 9 ~at:5)));
    tc "engine: negative timer delay and past scheduling rejected" (fun () ->
        let e = engine () in
        Sim.Engine.run_until e 10;
        Alcotest.(check bool) "negative delay" true
          (raises_invalid (fun () -> ignore (Sim.Engine.set_timer e 0 ~delay:(-1) ignore)));
        Alcotest.(check bool) "past harness action" true
          (raises_invalid (fun () -> Sim.Engine.at e 5 ignore));
        Alcotest.(check bool) "past crash" true
          (raises_invalid (fun () -> Sim.Engine.schedule_crash e 0 ~at:5));
        Alcotest.(check bool) "every period 0" true
          (raises_invalid (fun () ->
               ignore (Sim.Engine.every e 0 ~period:0 ignore : unit -> unit))));
    tc "detectors: non-positive periods/time-outs rejected" (fun () ->
        let bad_hb = { Fd.Heartbeat_p.default_params with period = 0 } in
        Alcotest.(check bool) "heartbeat" true
          (raises_invalid (fun () -> ignore (Fd.Heartbeat_p.install (engine ()) bad_hb)));
        let bad_ring = { Fd.Ring_s.default_params with initial_timeout = 0 } in
        Alcotest.(check bool) "ring" true
          (raises_invalid (fun () -> ignore (Fd.Ring_s.install (engine ()) bad_ring)));
        let bad_leader = { Fd.Leader_s.default_params with period = -3 } in
        Alcotest.(check bool) "leader" true
          (raises_invalid (fun () -> ignore (Fd.Leader_s.install (engine ()) bad_leader)));
        let bad_stable = { Fd.Stable_omega.default_params with period = 0 } in
        Alcotest.(check bool) "stable" true
          (raises_invalid (fun () -> ignore (Fd.Stable_omega.install (engine ()) bad_stable)));
        let bad_source = { Fd.Omega_source.default_params with initial_timeout = 0 } in
        Alcotest.(check bool) "source" true
          (raises_invalid (fun () -> ignore (Fd.Omega_source.install (engine ()) bad_source))));
    tc "transformation: non-positive periods rejected" (fun () ->
        let e = engine () in
        let fd = Scenario.install_detector e Scenario.Ec_from_leader in
        let bad = { Ecfd.Ec_to_p.default_params with alive_period = 0 } in
        Alcotest.(check bool) "raises" true
          (raises_invalid (fun () -> ignore (Ecfd.Ec_to_p.install e ~underlying:fd bad))));
    tc "total order: bad configuration and bodies rejected" (fun () ->
        let e = engine () in
        Alcotest.(check bool) "max_slots 0" true
          (raises_invalid (fun () ->
               ignore
                 (Consensus.Total_order.create ~max_slots:0 e
                    ~make_instance:(fun ~slot:_ -> assert false)
                    ())));
        let fd = Scenario.install_detector e Scenario.Ec_from_leader in
        let make_instance ~slot =
          let suffix = Printf.sprintf ".s%d" slot in
          let rb = Broadcast.Reliable_broadcast.create ~component:("rb" ^ suffix) e in
          Ecfd.Ec_consensus.install
            ~component:("c" ^ suffix)
            e ~fd ~rb Ecfd.Ec_consensus.default_params
        in
        let order = Consensus.Total_order.create ~max_slots:4 e ~make_instance () in
        Alcotest.(check bool) "negative body" true
          (raises_invalid (fun () -> Consensus.Total_order.broadcast order ~src:0 ~body:(-1))));
    tc "stubborn: duplicate handler registration rejected" (fun () ->
        let e = engine () in
        let st = Broadcast.Stubborn.create e in
        Broadcast.Stubborn.register st 0 (fun ~src:_ _ -> ());
        Alcotest.(check bool) "raises" true
          (raises_invalid (fun () -> Broadcast.Stubborn.register st 0 (fun ~src:_ _ -> ()))));
    tc "link models: bad probabilities rejected (assertions)" (fun () ->
        Alcotest.(check bool) "p=1 fair-lossy" true
          (try
             ignore
               (Sim.Link.fair_lossy ~drop_probability:1.0
                  ~underlying:(Sim.Link.synchronous ~delay:1));
             false
           with Assert_failure _ -> true));
  ]

let suites = [ ("validation", validation_tests) ]
