(* Storage recycling: an engine or trace takes over the int storage of a
   collected predecessor on its domain (Exec.Spare), never of a live one,
   and what it records is the same either way. *)

let tc name f = Alcotest.test_case name `Quick f

let counter engine name =
  match List.assoc_opt name (Obs.Registry.snapshot (Sim.Engine.obs engine)) with
  | Some (Obs.Registry.Counter c) -> c
  | _ -> Alcotest.failf "%s missing from the registry" name

let jsonl engine = Sim.Trace_export.jsonl_string (Sim.Engine.trace engine)

(* Forty processes each send to every other one every 5 ticks, so about
   two thousand events are pending at once and a run to tick 40 records
   more than one full trace chunk.  Process 0 crashes at tick 30;
   a harness action notes tick 25.  The timer callbacks and the action
   reach the engine through their closures. *)
let horizon = 80
let component = "burst"

let build ~seed =
  let n = 40 in
  let e = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
  for p = 0 to n - 1 do
    Sim.Engine.register e ~component p (fun ~src:_ _ -> ());
    ignore
      (Sim.Engine.every e p ~phase:(1 + (p mod 3)) ~period:5 (fun () ->
           Sim.Engine.send_to_all_others e ~component ~tag:"ping" ~src:p Sim.Payload.Blank)
        : unit -> unit)
  done;
  Sim.Engine.schedule_crash e 0 ~at:30;
  Sim.Engine.at e 25 (fun () -> Sim.Engine.note e 1 ~tag:"half" "way");
  e

(* Not inlined, so the engine is unreachable once it returns. *)
let[@inline never] run_alone ~seed =
  let e = build ~seed in
  Sim.Engine.run_until e horizon;
  jsonl e

(* An engine dropped half-way: timers armed, messages in flight, an
   action pending.  Returns the slots its slab had handed out. *)
let[@inline never] drop_half_way ~seed =
  let e = build ~seed in
  Sim.Engine.run_until e (horizon / 2);
  Sim.Engine.at e horizon (fun () -> Sim.Engine.note e 0 ~tag:"late" "never");
  Alcotest.(check bool) "events pending when dropped" true (Sim.Engine.pending_events e > 0);
  Alcotest.(check bool)
    "more than one trace chunk recorded" true
    (Sim.Trace.length (Sim.Engine.trace e) > 16_384);
  Sim.Engine.slab_capacity e

let[@inline never] consensus_run () =
  let r =
    Scenario.run_consensus ~n:100 ~horizon:600 ~detector:Scenario.Ec_from_leader
      ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
  in
  ( Sim.Trace_export.jsonl_string r.Scenario.trace,
    counter r.Scenario.engine "engine.recycled_slots",
    counter r.Scenario.engine "trace.recycled_chunks" )

(* Keep a store for an owner that is unreachable once this returns. *)
let[@inline never] keep_for_dead_owner spare store = Exec.Spare.keep spare (ref 0) store

let recycle_tests =
  [
    tc "a spare hands a store over once, and only after its owner is collected" (fun () ->
        let spare = Exec.Spare.create () in
        let store = Alcotest.(option (array int)) in
        let owner = ref 0 in
        Exec.Spare.keep spare owner [| 1 |];
        Gc.full_major ();
        Alcotest.check store "owner alive" None (Exec.Spare.take spare);
        ignore (Sys.opaque_identity owner : int ref);
        keep_for_dead_owner spare [| 2 |];
        Gc.full_major ();
        Alcotest.check store "owner collected" (Some [| 2 |]) (Exec.Spare.take spare);
        Alcotest.check store "handed over once" None (Exec.Spare.take spare));
    tc "a live engine never lends its storage, even under interleaving" (fun () ->
        let fresh_a = run_alone ~seed:1 and fresh_b = run_alone ~seed:2 in
        Gc.full_major ();
        let a = build ~seed:1 in
        Sim.Engine.run_until a (horizon / 2);
        Gc.full_major ();
        let b = build ~seed:2 in
        Alcotest.(check int) "no slots from the live engine" 0 (counter b "engine.recycled_slots");
        Alcotest.(check int) "no chunks from the live trace" 0 (counter b "trace.recycled_chunks");
        for t = 1 to horizon do
          Sim.Engine.run_until b t;
          if t > horizon / 2 then Sim.Engine.run_until a t
        done;
        Alcotest.(check string) "the live engine's trace" fresh_a (jsonl a);
        Alcotest.(check string) "the new engine's trace" fresh_b (jsonl b));
    tc "a dead engine with pending timers, messages and actions is recycled" (fun () ->
        let slots = drop_half_way ~seed:3 in
        Gc.full_major ();
        let e = Scenario.engine ~n:2 () in
        Alcotest.(check bool)
          (Printf.sprintf "recycled slots cover the dead slab's %d" slots)
          true
          (counter e "engine.recycled_slots" >= slots);
        Alcotest.(check bool) "trace chunks recycled" true (counter e "trace.recycled_chunks" >= 1));
    tc "a consensus run repeated on recycled storage exports the same trace" (fun () ->
        let first, _, _ = consensus_run () in
        Gc.full_major ();
        let second, slots, chunks = consensus_run () in
        Alcotest.(check string) "JSONL export" first second;
        Alcotest.(check bool) (Printf.sprintf "slots recycled (%d)" slots) true (slots > 0);
        Alcotest.(check bool) (Printf.sprintf "chunks recycled (%d)" chunks) true (chunks > 0));
  ]

let suites = [ ("sim.recycle", recycle_tests) ]
