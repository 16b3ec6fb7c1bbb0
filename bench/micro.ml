(* E20: the engine's own cost, the one experiment of the harness that
   reads the clock.  Two mixes drive a bare engine (no detector, no trace
   events) through one measuring loop:

   - churn, n = 8: every tick every process arms two timers and cancels
     one — the timer traffic a failure-detector layer produces;
   - heartbeat, n in {100, 1k, 10k}: nothing but periodic timers, the
     workload the timer wheel exists for; the steady-state pop/fire/re-arm
     cycle must allocate nothing.

   stdout carries only figures that are a function of the code (counts and
   minor words per event); elapsed time and events/sec go to stderr and,
   with the rest, to BENCH_sim_core.json. *)

let json_file = "BENCH_sim_core.json"

type row = {
  mix : string;
  n : int;
  events : int;  (* events in the measured window *)
  elapsed : float;
  words_per_event : float;
  lc : Sim.Stats.lifecycle;  (* whole run, warm-up included *)
  residency_end : int;
}

let events_per_sec r = if r.elapsed > 0.0 then float_of_int r.events /. r.elapsed else 0.0

let cpu_time () =
  (Sys.time [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) ()

(* Step [warm] events, then time and count the minor words of the next
   [events]. *)
let measure ~mix ~n ~warm ~events engine =
  let steps = ref 0 in
  while !steps < warm && Sim.Engine.step engine do
    incr steps
  done;
  let measured = ref 0 in
  let t0 = cpu_time () in
  let w0 = Gc.minor_words () in
  while !measured < events && Sim.Engine.step engine do
    incr measured
  done;
  let w1 = Gc.minor_words () in
  let elapsed = cpu_time () -. t0 in
  let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
  let residency_end = Sim.Engine.timer_residency engine in
  (* The residency high-water is tracked on every set_timer, so it bounds
     the end-of-run residency by construction; every set timer is either
     reclaimed or still resident, and ended in exactly one bucket. *)
  assert (residency_end <= lc.Sim.Stats.timer_residency_high_water);
  assert (lc.Sim.Stats.timers_set = lc.Sim.Stats.timers_reclaimed + residency_end);
  assert (
    lc.Sim.Stats.timers_set
    = lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled + lc.Sim.Stats.timers_orphaned
      + Sim.Engine.timer_armed engine);
  {
    mix;
    n;
    events = !measured;
    elapsed;
    words_per_event = (w1 -. w0) /. float_of_int (Stdlib.max 1 !measured);
    lc;
    residency_end;
  }

let churn () =
  let n = 8 in
  let engine = Sim.Engine.create ~seed:97 ~n ~link:(Sim.Link.synchronous ~delay:1) () in
  List.iter
    (fun p ->
      ignore
        (Sim.Engine.every engine p ~phase:0 ~period:1 (fun () ->
             let doomed = Sim.Engine.set_timer engine p ~delay:3 (fun () -> ()) in
             ignore (Sim.Engine.set_timer engine p ~delay:2 (fun () -> ()) : Sim.Engine.timer);
             Sim.Engine.cancel_timer engine doomed)
          : unit -> unit))
    (Sim.Pid.all ~n);
  measure ~mix:"churn" ~n ~warm:0 ~events:1_000_000 engine

let heartbeat n =
  let engine = Sim.Engine.create ~seed:131 ~n ~link:(Sim.Link.synchronous ~delay:1) () in
  (* Periods 1..4 ticks, phases staggered so ticks carry a blend of timers
     from different wheel slots. *)
  List.iter
    (fun p ->
      ignore
        (Sim.Engine.every engine p ~phase:(1 + (p mod 7)) ~period:(1 + (p mod 4)) (fun () -> ())
          : unit -> unit))
    (Sim.Pid.all ~n);
  (* The warm-up grows the registry columns, wheel, free stack and firing
     batch to steady state before the measured window. *)
  let r = measure ~mix:"heartbeat" ~n ~warm:(Stdlib.max (4 * n) 20_000) ~events:500_000 engine in
  (* 0.01 words/event of slack absorbs the boxed floats of the measurement
     itself. *)
  if r.words_per_event >= 0.01 then
    failwith
      (Printf.sprintf "E20 heartbeat n=%d: %.6f minor words per event, the re-arm path must allocate none (limit 0.01)"
         n r.words_per_event);
  r

let write_json rows =
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"bench\": \"sim_core\",\n  \"schema_version\": 6,\n";
  Printf.fprintf oc "  \"build_profile\": %S,\n  \"rows\": [" Build_profile.name;
  List.iteri
    (fun i r ->
      let lc = r.lc in
      Printf.fprintf oc
        "%s\n    { \"name\": %S, \"n\": %d, \"events\": %d, \"elapsed_s\": %.6f, \"events_per_sec\": %.1f, \"minor_words_per_event\": %.6f, \"queue_high_water\": %d, \"timer_table_capacity\": %d, \"residency_at_end\": %d, \"timers\": { \"set\": %d, \"fired\": %d, \"cancelled\": %d, \"orphaned\": %d, \"reclaimed\": %d } }"
        (if i = 0 then "" else ",")
        r.mix r.n r.events r.elapsed (events_per_sec r) r.words_per_event
        lc.Sim.Stats.queue_high_water lc.Sim.Stats.timer_residency_high_water r.residency_end
        lc.Sim.Stats.timers_set lc.Sim.Stats.timers_fired lc.Sim.Stats.timers_cancelled
        lc.Sim.Stats.timers_orphaned lc.Sim.Stats.timers_reclaimed)
    rows;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

let e20 ppf =
  Tables.heading ppf "E20" "Engine cost: timer churn and heartbeat scaling, allocs/event on the wheel";
  let rows = churn () :: List.map heartbeat [ 100; 1_000; 10_000 ] in
  Tables.table ppf
    ~headers:
      [
        "mix"; "n"; "events"; "timers set"; "fired"; "cancelled"; "queue hw"; "capacity";
        "minor words/event";
      ]
    ~rows:
      (List.map
         (fun r ->
           let lc = r.lc in
           [
             r.mix;
             string_of_int r.n;
             string_of_int r.events;
             string_of_int lc.Sim.Stats.timers_set;
             string_of_int lc.Sim.Stats.timers_fired;
             string_of_int lc.Sim.Stats.timers_cancelled;
             string_of_int lc.Sim.Stats.queue_high_water;
             string_of_int lc.Sim.Stats.timer_residency_high_water;
             Printf.sprintf "%.2f" r.words_per_event;
           ])
         rows);
  Tables.note ppf "Timer counts cover the whole run; events and words/event the measured window.";
  Tables.note ppf "Steady-state heartbeat pop/fire/re-arm allocates no minor-heap words";
  Tables.note ppf "(Gc.minor_words deltas after a warm-up; asserted < 0.01/event).";
  List.iter
    (fun r ->
      Printf.eprintf "e20: %-9s n=%-5d %7d events in %.3fs CPU, %.0f events/sec\n" r.mix r.n
        r.events r.elapsed (events_per_sec r))
    rows;
  write_json rows;
  Tables.note ppf "Wrote %s; elapsed time and events/sec are there and on stderr." json_file
