(* Tests of the Reliable Broadcast substrate. *)

let tc name f = Alcotest.test_case name `Quick f

type Sim.Payload.t += Word of string

let setup ?(seed = 0) ?(n = 4) ?(delay = `Sync 2) () =
  let link =
    match delay with
    | `Sync d -> Sim.Link.synchronous ~delay:d
    | `Reliable -> Sim.Link.reliable ~min_delay:1 ~max_delay:10 ()
  in
  let e = Sim.Engine.create ~seed ~n ~link () in
  let rb = Broadcast.Reliable_broadcast.create e in
  let logs = Array.make n [] in
  List.iter
    (fun p ->
      Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin payload ->
          match payload with
          | Word w -> logs.(p) <- (origin, w) :: logs.(p)
          | _ -> ()))
    (Sim.Pid.all ~n);
  (e, rb, logs)

let rb_tests =
  [
    tc "everyone R-delivers, including the sender" (fun () ->
        let e, rb, logs = setup () in
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:1 ~tag:"w" (Word "hello");
        Sim.Engine.run_until e 50;
        Array.iteri
          (fun p log ->
            Alcotest.(check (list (pair int string)))
              (Printf.sprintf "p%d" (p + 1))
              [ (1, "hello") ] log)
          logs);
    tc "uniform integrity: exactly once despite relays" (fun () ->
        let e, rb, logs = setup ~delay:`Reliable () in
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:0 ~tag:"w" (Word "x");
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:0 ~tag:"w" (Word "x");
        Sim.Engine.run_until e 200;
        Array.iter
          (fun log ->
            (* Two distinct broadcasts of the same word: delivered twice,
               never more (the relay storm is deduplicated). *)
            Alcotest.(check int) "twice" 2 (List.length log))
          logs);
    tc "agreement survives the originator's crash" (fun () ->
        (* The originator reaches one process before dying; the relay must
           carry the message to everybody. *)
        let e, rb, logs = setup ~delay:(`Sync 3) ~n:5 () in
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:0 ~tag:"w" (Word "last");
        (* Crashes after its own local delivery+relay at t=0, long before
           others receive at t=3. *)
        Sim.Engine.schedule_crash e 0 ~at:1;
        Sim.Engine.run_until e 100;
        List.iter
          (fun p ->
            Alcotest.(check int) (Printf.sprintf "p%d delivered" (p + 1)) 1 (List.length logs.(p)))
          [ 1; 2; 3; 4 ]);
    tc "messages from distinct origins keep their origin" (fun () ->
        let e, rb, logs = setup ~n:3 () in
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:0 ~tag:"w" (Word "a");
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:2 ~tag:"w" (Word "b");
        Sim.Engine.run_until e 50;
        Array.iter
          (fun log ->
            let sorted = List.sort compare log in
            Alcotest.(check (list (pair int string))) "both" [ (0, "a"); (2, "b") ] sorted)
          logs;
        Alcotest.(check int) "delivered_count" 2 (Broadcast.Reliable_broadcast.delivered_count rb 1));
    Test_util.qcheck ~count:30 ~name:"agreement and integrity on random runs"
      QCheck2.Gen.(tup3 (int_range 2 6) (int_range 0 10_000) (int_range 0 3))
      (fun (n, seed, broadcasts) ->
        let e, rb, logs = setup ~seed ~n ~delay:`Reliable () in
        for i = 0 to broadcasts - 1 do
          Broadcast.Reliable_broadcast.rbroadcast rb ~src:(i mod n) ~tag:"w"
            (Word (string_of_int i))
        done;
        Sim.Engine.run_until e 500;
        Array.for_all (fun log -> List.length log = broadcasts) logs
        && Array.for_all
             (fun log -> List.sort compare log = List.sort compare logs.(0))
             logs);
  ]

(* ------------------------------------------------------------------ *)
(* Stubborn channels and broadcast over lossy links                   *)
(* ------------------------------------------------------------------ *)

let lossy ?(p = 0.4) () =
  Sim.Link.fair_lossy ~drop_probability:p
    ~underlying:(Sim.Link.reliable ~min_delay:1 ~max_delay:5 ())

let stubborn_tests =
  [
    tc "exactly-once delivery over a 40%-lossy link" (fun () ->
        let e = Sim.Engine.create ~seed:2 ~n:2 ~link:(lossy ()) () in
        let st = Broadcast.Stubborn.create e in
        let got = ref [] in
        Broadcast.Stubborn.register st 1 (fun ~src:_ payload ->
            match payload with Word w -> got := w :: !got | _ -> ());
        Broadcast.Stubborn.register st 0 (fun ~src:_ _ -> ());
        for i = 0 to 9 do
          Broadcast.Stubborn.send st ~src:0 ~dst:1 ~tag:"w" (Word (string_of_int i))
        done;
        Sim.Engine.run_until e 3000;
        Alcotest.(check (list string)) "all ten, once each, despite drops"
          (List.init 10 string_of_int)
          (List.sort compare !got));
    tc "quiescence: retransmission stops once everything is acked" (fun () ->
        let e = Sim.Engine.create ~seed:3 ~n:3 ~link:(lossy ~p:0.3 ()) () in
        let st = Broadcast.Stubborn.create e in
        List.iter
          (fun p -> Broadcast.Stubborn.register st p (fun ~src:_ _ -> ()))
          (Sim.Pid.all ~n:3);
        Broadcast.Stubborn.send st ~src:0 ~dst:1 ~tag:"w" (Word "a");
        Broadcast.Stubborn.send st ~src:0 ~dst:2 ~tag:"w" (Word "b");
        Sim.Engine.run_until e 5000;
        Alcotest.(check int) "nothing left unacked" 0 (Broadcast.Stubborn.unacked st 0);
        (* ... and the channel is silent from then on. *)
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e 8000;
        Alcotest.(check int) "silent" 0
          (Sim.Stats.sent_since (Sim.Engine.stats e) snap
             ~component:Broadcast.Stubborn.default_component));
    tc "plain engine sends lose messages on the same link (the contrast)" (fun () ->
        let e = Sim.Engine.create ~seed:2 ~n:2 ~link:(lossy ()) () in
        let got = ref 0 in
        Sim.Engine.register e ~component:"raw" 1 (fun ~src:_ _ -> incr got);
        for _ = 1 to 10 do
          Sim.Engine.send e ~component:"raw" ~tag:"w" ~src:0 ~dst:1 (Word "x")
        done;
        Sim.Engine.run_until e 3000;
        Alcotest.(check bool)
          (Printf.sprintf "only %d of 10 arrived" !got)
          true (!got < 10));
    tc "reliable broadcast over stubborn channels survives lossy links" (fun () ->
        let n = 5 in
        let e = Sim.Engine.create ~seed:9 ~n ~link:(lossy ()) () in
        let stubborn = Broadcast.Stubborn.create e in
        let rb = Broadcast.Reliable_broadcast.create ~transport:(`Stubborn stubborn) e in
        let logs = Array.make n [] in
        List.iter
          (fun p ->
            Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin payload ->
                match payload with
                | Word w -> logs.(p) <- (origin, w) :: logs.(p)
                | _ -> ()))
          (Sim.Pid.all ~n);
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:0 ~tag:"w" (Word "hello");
        Broadcast.Reliable_broadcast.rbroadcast rb ~src:3 ~tag:"w" (Word "world");
        Sim.Engine.run_until e 5000;
        Array.iteri
          (fun p log ->
            Alcotest.(check (list (pair int string)))
              (Printf.sprintf "p%d has both, once" (p + 1))
              [ (0, "hello"); (3, "world") ]
              (List.sort compare log))
          logs);
    Test_util.qcheck ~count:15 ~name:"stubborn RB: agreement on random lossy runs"
      QCheck2.Gen.(tup2 (int_range 2 6) (int_range 0 10_000))
      (fun (n, seed) ->
        let e = Sim.Engine.create ~seed ~n ~link:(lossy ~p:0.5 ()) () in
        let stubborn = Broadcast.Stubborn.create e in
        let rb = Broadcast.Reliable_broadcast.create ~transport:(`Stubborn stubborn) e in
        let counts = Array.make n 0 in
        List.iter
          (fun p ->
            Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin:_ _ ->
                counts.(p) <- counts.(p) + 1))
          (Sim.Pid.all ~n);
        for i = 0 to 4 do
          Broadcast.Reliable_broadcast.rbroadcast rb ~src:(i mod n) ~tag:"w"
            (Word (string_of_int i))
        done;
        Sim.Engine.run_until e 20_000;
        Array.for_all (( = ) 5) counts);
  ]

let suites =
  [
    ("broadcast.rb", rb_tests);
    ("broadcast.stubborn", stubborn_tests);
  ]
