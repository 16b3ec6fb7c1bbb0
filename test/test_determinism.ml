(* Regression tests for the determinism guarantees behind the R2 lint rule:
   hash-table iteration order must never reach an observable output.
   Covers the sites fixed alongside the linter (Stats.snapshot,
   Consensus_props.uniform_integrity, Round_metrics) and the acceptance
   scenario: identical Stats.snapshot / Round_metrics output across two
   runs with the same seed but different component-registration order. *)

let snapshot_t = Alcotest.(list (triple string string (triple int int int)))

let flatten_snapshot stats =
  List.map
    (fun (c, tag, (v : Sim.Stats.counts)) -> (c, tag, (v.sent, v.delivered, v.dropped)))
    (Sim.Stats.snapshot stats)

(* -- unit level: Stats.snapshot vs table insertion history ---------------- *)

let feed stats ops =
  List.iter
    (fun (component, tag) ->
      Sim.Stats.on_send stats ~component ~tag;
      Sim.Stats.on_deliver stats ~component ~tag)
    ops

let ops =
  [
    ("beta", "ping.r2");
    ("alpha", "est.r1");
    ("gamma", "ack.r1");
    ("alpha", "est.r2");
    ("beta", "ping.r1");
    ("alpha", "est.r1");
  ]

let test_snapshot_insertion_order () =
  let a = Sim.Stats.create (Obs.Registry.create ())
  and b = Sim.Stats.create (Obs.Registry.create ()) in
  feed a ops;
  feed b (List.rev ops);
  Alcotest.check snapshot_t "snapshot independent of insertion order"
    (flatten_snapshot a) (flatten_snapshot b)

let test_snapshot_sorted () =
  let a = Sim.Stats.create (Obs.Registry.create ()) in
  feed a ops;
  let snap = flatten_snapshot a in
  let resorted =
    List.sort
      (fun (c1, t1, _) (c2, t2, _) ->
        match String.compare c1 c2 with 0 -> String.compare t1 t2 | c -> c)
      snap
  in
  Alcotest.check snapshot_t "snapshot arrives (component, tag)-sorted" resorted snap

(* -- engine level: component-registration order --------------------------- *)

(* Each component broadcasts on its own period with a round tag derived from
   the clock.  Over a synchronous (draw-free) link, everything either
   component does is independent of the other, so only event interleaving -
   and with it every hash table's insertion history - changes when the
   registration order flips.  The observable outputs must not. *)
let install engine ~name ~period =
  let n = Sim.Engine.n engine in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component:name p (fun ~src:_ _ -> ());
      ignore
        (Sim.Engine.every engine p ~phase:1 ~period (fun () ->
             let round = 1 + (Sim.Engine.now engine mod 3) in
             Sim.Engine.send_to_all_others engine ~component:name
               ~tag:(Printf.sprintf "ping.r%d" round)
               ~src:p Sim.Payload.Blank)
          : unit -> unit))
    (Sim.Pid.all ~n)

let run_with order =
  let engine = Sim.Engine.create ~seed:11 ~n:4 ~link:(Sim.Link.synchronous ~delay:2) () in
  List.iter (fun (name, period) -> install engine ~name ~period) order;
  Sim.Engine.run_until engine 200;
  let trace = Sim.Engine.trace engine in
  ( flatten_snapshot (Sim.Engine.stats engine),
    Spec.Round_metrics.sends_by_round trace ~component:"alpha",
    Spec.Round_metrics.sends_by_tag_in_round trace ~component:"beta" ~round:1 )

let test_registration_order () =
  let snap1, by_round1, by_tag1 = run_with [ ("alpha", 5); ("beta", 7) ] in
  let snap2, by_round2, by_tag2 = run_with [ ("beta", 7); ("alpha", 5) ] in
  Alcotest.check snapshot_t "Stats.snapshot identical across registration orders" snap1
    snap2;
  Alcotest.(check (list (pair int int)))
    "Round_metrics.sends_by_round identical across registration orders" by_round1 by_round2;
  Alcotest.(check (list (pair string int)))
    "Round_metrics.sends_by_tag_in_round identical across registration orders" by_tag1
    by_tag2;
  Alcotest.(check bool) "the runs actually sent something" true (snap1 <> [])

(* -- spec level: sorted outputs from Hashtbl-backed checkers -------------- *)

let test_uniform_integrity_sorted () =
  let trace = Sim.Trace.create () in
  List.iter
    (fun pid ->
      Sim.Trace.record trace (Sim.Trace.Decide { at = 5; pid; value = 1; round = 1 });
      Sim.Trace.record trace (Sim.Trace.Decide { at = 6; pid; value = 1; round = 2 }))
    [ 3; 1; 2; 0 ];
  let offenders =
    List.map
      (function Spec.Consensus_props.Multiple_decisions p -> p | _ -> -1)
      (Spec.Consensus_props.uniform_integrity trace)
  in
  Alcotest.(check (list int)) "offenders reported in pid order" [ 0; 1; 2; 3 ] offenders

let test_sends_by_round_sorted () =
  let trace = Sim.Trace.create () in
  List.iter
    (fun r ->
      Sim.Trace.record trace
        (Sim.Trace.Send
           { at = 1; src = 0; dst = 1; msg = 0; component = "c"; tag = "t.r" ^ string_of_int r }))
    [ 5; 2; 9; 1; 1; 2 ];
  Alcotest.(check (list (pair int int)))
    "rounds ascending regardless of event order"
    [ (1, 2); (2, 2); (5, 1); (9, 1) ]
    (Spec.Round_metrics.sends_by_round trace ~component:"c")

let suites =
  [
    ( "determinism",
      [
        Alcotest.test_case "Stats.snapshot vs insertion order" `Quick
          test_snapshot_insertion_order;
        Alcotest.test_case "Stats.snapshot is sorted" `Quick test_snapshot_sorted;
        Alcotest.test_case "same seed, flipped registration order: identical outputs"
          `Quick test_registration_order;
        Alcotest.test_case "uniform_integrity reports in pid order" `Quick
          test_uniform_integrity_sorted;
        Alcotest.test_case "sends_by_round sorted under shuffled events" `Quick
          test_sends_by_round_sorted;
      ] );
  ]
