(* Bechamel micro-benchmarks of the substrate (B1-B4 in DESIGN.md):
   wall-clock cost of the simulator and of complete protocol runs.  These
   are about the reproduction artefact itself, not the paper's claims —
   they answer "how expensive is one experiment?". *)

open Bechamel
open Toolkit

(* B1: raw engine throughput — events through the queue. *)
let bench_engine_events =
  Test.make ~name:"b1: engine, heartbeat <>P n=8, 500 ticks"
    (Staged.stage (fun () ->
         let engine =
           Sim.Engine.create ~seed:1 ~n:8 ~link:(Sim.Link.reliable ~min_delay:1 ~max_delay:8 ()) ()
         in
         let _ = Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params in
         Sim.Engine.run_until engine 500))

(* B2: the ring detector, whose epoch-vector piggybacking is the heaviest
   per-message work in the FD layer. *)
let bench_ring =
  Test.make ~name:"b2: ring <>S n=16, 500 ticks, one crash"
    (Staged.stage (fun () ->
         let engine =
           Sim.Engine.create ~seed:2 ~n:16 ~link:(Sim.Link.reliable ~min_delay:1 ~max_delay:8 ()) ()
         in
         Sim.Fault.apply engine (Sim.Fault.crash 5 ~at:100);
         let _ = Fd.Ring_s.install engine Fd.Ring_s.default_params in
         Sim.Engine.run_until engine 500))

(* B3: one complete <>C consensus instance over the full stack. *)
let bench_consensus =
  Test.make ~name:"b3: <>C consensus n=5, full stack, to decision"
    (Staged.stage (fun () ->
         let r =
           Scenario.run_consensus ~net:{ Scenario.default_net with seed = 3 } ~horizon:500 ~n:5
             ~detector:Scenario.Ec_from_leader
             ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
         in
         assert (Spec.Consensus_props.decision_round r.Scenario.trace <> None)))

(* B4: trace checking — the Spec layer over a finished run. *)
let bench_spec =
  let r =
    Scenario.run_consensus ~net:{ Scenario.default_net with seed = 4 } ~horizon:3000 ~n:6
      ~crashes:(Sim.Fault.crash 1 ~at:50) ~detector:Scenario.Ec_from_leader
      ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
  in
  let run =
    Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component r.Scenario.fd) ~n:6 r.Scenario.trace
  in
  Test.make ~name:"b4: property checking of a finished trace"
    (Staged.stage (fun () ->
         ignore (Spec.Fd_props.satisfies_class Fd.Classes.Ec run);
         ignore (Spec.Consensus_props.check_all r.Scenario.trace ~n:6)))

(* ------------------------------------------------------------------ *)
(* Sim-core lifecycle bench: events/sec through the engine hot path   *)
(* and resource-accounting counters, emitted as BENCH_sim_core.json   *)
(* so successive PRs can track the engine's perf trajectory.          *)
(* ------------------------------------------------------------------ *)

let sim_core_default_events = 1_000_000

let sim_core_target () =
  (* SIM_CORE_EVENTS=2000 gives CI a smoke run that still exercises the
     whole measurement + JSON path. *)
  match Sys.getenv_opt "SIM_CORE_EVENTS" with
  | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> sim_core_default_events)
  | None -> sim_core_default_events

let sim_core_json_file = "BENCH_sim_core.json"

(* Results of the two sim-core sections (timer-churn and the e20 heartbeat
   scaling sweep), kept module-level so one process running both — the
   default bench run, or `main.exe -- sim_core e20` — emits a single
   BENCH_sim_core.json with both sections populated.  A process running
   only one section emits [null] for the other. *)

type churn_result = {
  ch_n : int;
  ch_target : int;
  ch_events : int;
  ch_elapsed : float;
  ch_eps : float;
  ch_queue_hw : int;
  ch_set : int;
  ch_fired : int;
  ch_cancelled : int;
  ch_orphaned : int;
  ch_reclaimed : int;
  ch_max_residency : int;
  ch_residency_end : int;
  ch_obs_json : string;
}

type e20_row = {
  hb_n : int;
  hb_events : int;
  hb_elapsed : float;
  hb_eps : float;
  hb_words_per_event : float;
  hb_queue_hw : int;
  hb_capacity : int;
}

let churn_result : churn_result option ref = ref None
let e20_result : e20_row list option ref = ref None

let emit_sim_core_json () =
  let oc = open_out sim_core_json_file in
  Printf.fprintf oc "{\n  \"bench\": \"sim_core\",\n  \"schema_version\": 5,\n";
  (match !churn_result with
  | None -> Printf.fprintf oc "  \"churn\": null,\n"
  | Some c ->
    (* "timer_table.capacity" keeps its key: timers hold event-slab slots,
       so the table's capacity is the most they ever held at once, the
       residency high-water. *)
    Printf.fprintf oc
      {|  "churn": {
    "n": %d,
    "events_target": %d,
    "events_executed": %d,
    "elapsed_s": %.6f,
    "events_per_sec": %.1f,
    "queue_high_water": %d,
    "timers": {
      "set": %d,
      "fired": %d,
      "cancelled": %d,
      "orphaned": %d,
      "reclaimed": %d
    },
    "timer_table": {
      "capacity": %d,
      "max_residency": %d,
      "residency_at_end": %d
    },
    "obs": %s
  },
|}
      c.ch_n c.ch_target c.ch_events c.ch_elapsed c.ch_eps c.ch_queue_hw c.ch_set c.ch_fired
      c.ch_cancelled c.ch_orphaned c.ch_reclaimed c.ch_max_residency c.ch_max_residency
      c.ch_residency_end c.ch_obs_json);
  (match !e20_result with
  | None -> Printf.fprintf oc "  \"e20\": null\n"
  | Some rows ->
    Printf.fprintf oc "  \"e20\": {\n    \"heartbeat_rows\": [";
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "%s\n      { \"n\": %d, \"events\": %d, \"elapsed_s\": %.6f, \"events_per_sec\": %.1f, \"minor_words_per_event\": %.6f, \"queue_high_water\": %d, \"timer_table_capacity\": %d }"
          (if i = 0 then "" else ",")
          r.hb_n r.hb_events r.hb_elapsed r.hb_eps r.hb_words_per_event r.hb_queue_hw
          r.hb_capacity)
      rows;
    Printf.fprintf oc "\n    ]\n  }\n");
  Printf.fprintf oc "}\n";
  close_out oc

let sim_core () =
  Tables.heading "SIM-CORE" "Engine hot path: timer-churn throughput and lifecycle accounting";
  let target = sim_core_target () in
  let n = 8 in
  let engine = Sim.Engine.create ~seed:97 ~n ~link:(Sim.Link.synchronous ~delay:1) () in
  (* Timer-dominated churn — the mix a failure-detector layer produces:
     every tick every process arms two timers and cancels one.  Timers
     record no trace events, so the run measures the engine core rather
     than trace allocation. *)
  List.iter
    (fun p ->
      ignore
        (Sim.Engine.every engine p ~phase:0 ~period:1 (fun () ->
             let doomed = Sim.Engine.set_timer engine p ~delay:3 (fun () -> ()) in
             ignore (Sim.Engine.set_timer engine p ~delay:2 (fun () -> ()) : Sim.Engine.timer);
             Sim.Engine.cancel_timer engine doomed)
          : unit -> unit))
    (Sim.Pid.all ~n);
  let t0 = (Sys.time [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) () in
  let steps = ref 0 in
  while !steps < target && Sim.Engine.step engine do
    incr steps
  done;
  let elapsed =
    (Sys.time [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) () -. t0
  in
  let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
  let events_per_sec =
    if elapsed > 0.0 then float_of_int !steps /. elapsed else 0.0
  in
  let residency_end = Sim.Engine.timer_residency engine in
  (* The engine tracks the high-water on every set_timer, so unlike the old
     sampled-in-timer-callbacks figure it bounds the end-of-run residency
     by construction (sampling missed timers armed after the last callback
     of the run, which reported residency_at_end > max_residency).  It is
     also the capacity the table column reports: timers hold slab slots,
     so the most slots they ever held at once. *)
  let max_residency = lc.Sim.Stats.timer_residency_high_water in
  assert (residency_end <= max_residency);
  Tables.table
    ~headers:[ "metric"; "value" ]
    ~rows:
      [
        [ "events executed"; string_of_int lc.Sim.Stats.events_executed ];
        [ "elapsed (s)"; Printf.sprintf "%.3f" elapsed ];
        [ "events/sec"; Printf.sprintf "%.0f" events_per_sec ];
        [ "queue high-water (pending events + pending timers)"; string_of_int lc.Sim.Stats.queue_high_water ];
        [ "timers set"; string_of_int lc.Sim.Stats.timers_set ];
        [ "timers fired"; string_of_int lc.Sim.Stats.timers_fired ];
        [ "timers cancelled"; string_of_int lc.Sim.Stats.timers_cancelled ];
        [ "timers orphaned"; string_of_int lc.Sim.Stats.timers_orphaned ];
        [ "timers reclaimed"; string_of_int lc.Sim.Stats.timers_reclaimed ];
        [ "timer-table capacity (slots ever allocated)"; string_of_int max_residency ];
        [ "timer-table max residency"; string_of_int max_residency ];
        [ "timer-table residency at end"; string_of_int residency_end ];
      ];
  (* Sanity: every set timer is either reclaimed or still resident. *)
  assert (lc.Sim.Stats.timers_set = lc.Sim.Stats.timers_reclaimed + residency_end);
  (* Lifecycle conservation: every set timer ended in exactly one bucket. *)
  assert (
    lc.Sim.Stats.timers_set
    = lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled + lc.Sim.Stats.timers_orphaned
      + Sim.Engine.timer_armed engine);
  churn_result :=
    Some
      {
        ch_n = n;
        ch_target = target;
        ch_events = lc.Sim.Stats.events_executed;
        ch_elapsed = elapsed;
        ch_eps = events_per_sec;
        ch_queue_hw = lc.Sim.Stats.queue_high_water;
        ch_set = lc.Sim.Stats.timers_set;
        ch_fired = lc.Sim.Stats.timers_fired;
        ch_cancelled = lc.Sim.Stats.timers_cancelled;
        ch_orphaned = lc.Sim.Stats.timers_orphaned;
        ch_reclaimed = lc.Sim.Stats.timers_reclaimed;
        ch_max_residency = max_residency;
        ch_residency_end = residency_end;
        ch_obs_json =
          (* The churn mix is timer-only: it sends no messages and opens no
             spans, so the message-path histograms (engine.delivery_latency,
             engine.span_duration) are structurally zero here.  Publishing
             all-zero counts read as a broken recording site — deliveries do
             record into the histogram, test/test_obs.ml pins that — so
             drop never-observed histograms from this snapshot instead. *)
          (let snap = Obs.Registry.snapshot (Sim.Engine.obs engine) in
           Obs.Registry.json_of_snapshot
             (List.filter
                (fun (_, v) ->
                  match v with
                  | Obs.Registry.Histogram { count = 0; _ } -> false
                  | _ -> true)
                snap));
      };
  emit_sim_core_json ();
  Tables.note "Wrote %s (SIM_CORE_EVENTS=%d; set the env var for smoke runs)." sim_core_json_file
    target;
  Tables.note "Timer-table residency stays bounded by in-flight timers — cancellations";
  Tables.note "no longer accumulate for the lifetime of the run."

(* ------------------------------------------------------------------ *)
(* E20: heartbeat-saturated scaling.  n processes, nothing but        *)
(* periodic heartbeat timers — the workload the timer wheel exists    *)
(* for — at n in {100, 1k, 10k}.  Reports events/sec and minor-heap   *)
(* words allocated per event (Gc.minor_words deltas) into             *)
(* BENCH_sim_core.json, and asserts the steady-state pop/fire/re-arm  *)
(* cycle allocates nothing.                                           *)
(* ------------------------------------------------------------------ *)

let e20_default_events = 500_000

let e20_sizes () =
  (* ECFD_E20_NS="100,1000" trims the sweep (CI's alloc gate needs only the
     n=1000 cell). *)
  let parse s =
    let parts = String.split_on_char ',' (String.trim s) in
    let ns = List.filter_map int_of_string_opt (List.map String.trim parts) in
    match List.filter (fun n -> n > 0) ns with [] -> None | ns -> Some ns
  in
  match Sys.getenv_opt "ECFD_E20_NS" with
  | Some s -> ( match parse s with Some ns -> ns | None -> [ 100; 1_000; 10_000 ])
  | None -> [ 100; 1_000; 10_000 ]

let e20_events () =
  match Sys.getenv_opt "ECFD_E20_EVENTS" with
  | Some s -> (
    match int_of_string_opt s with Some v when v > 0 -> v | _ -> e20_default_events)
  | None -> e20_default_events

(* Wall-clock budget for the whole sweep: a size only starts while the
   budget has room, so the n=10000 row runs by default on any development
   machine (it costs well under a second) but a pathologically slow host
   or an oversized ECFD_E20_EVENTS can't hang CI. *)
let e20_default_budget_s = 60.0

let e20_budget_s () =
  match Sys.getenv_opt "ECFD_E20_BUDGET_S" with
  | Some s -> (
    match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> e20_default_budget_s)
  | None -> e20_default_budget_s

let e20_run_one ~n ~events =
  let engine = Sim.Engine.create ~seed:131 ~n ~link:(Sim.Link.synchronous ~delay:1) () in
  (* Heartbeat mix: periods 1..4 ticks, phases staggered so ticks carry a
     blend of timers from different wheels slots. *)
  List.iter
    (fun p ->
      ignore
        (Sim.Engine.every engine p ~phase:(1 + (p mod 7)) ~period:(1 + (p mod 4)) (fun () -> ())
          : unit -> unit))
    (Sim.Pid.all ~n);
  (* Warm-up: grow the registry columns, wheel, free stack and firing
     batch to steady state before the measured window. *)
  let warm = Stdlib.max (4 * n) 20_000 in
  let steps = ref 0 in
  while !steps < warm && Sim.Engine.step engine do
    incr steps
  done;
  let measured = ref 0 in
  let t0 = (Sys.time [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) () in
  let w0 = Gc.minor_words () in
  while !measured < events && Sim.Engine.step engine do
    incr measured
  done;
  let w1 = Gc.minor_words () in
  let elapsed =
    (Sys.time [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) () -. t0
  in
  let words_per_event = (w1 -. w0) /. float_of_int (Stdlib.max 1 !measured) in
  (* The measured window is pure heartbeat pop/fire/re-arm: the acceptance
     bar is zero minor-heap allocation per occurrence.  0.01 words/event of
     slack absorbs the boxed floats of the measurement itself. *)
  assert (words_per_event < 0.01);
  let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
  {
    hb_n = n;
    hb_events = !measured;
    hb_elapsed = elapsed;
    hb_eps = (if elapsed > 0.0 then float_of_int !measured /. elapsed else 0.0);
    hb_words_per_event = words_per_event;
    hb_queue_hw = lc.Sim.Stats.queue_high_water;
    hb_capacity = lc.Sim.Stats.timer_residency_high_water;
  }

let alloc_budget_file () =
  match Sys.getenv_opt "ECFD_ALLOC_BUDGET_FILE" with
  | Some f -> f
  | None -> "bench/alloc_budget.json"

(* Minimal extraction of "minor_words_per_event_budget": <float> from the
   checked-in budget JSON — no JSON dependency in the bench harness. *)
let read_alloc_budget file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let key = "\"minor_words_per_event_budget\"" in
  let rec find i =
    if i + String.length key > String.length s then None
    else if String.sub s i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let i = ref i in
    while !i < String.length s && (s.[!i] = ':' || s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
    let j = ref !i in
    while
      !j < String.length s
      && (match s.[!j] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false)
    do
      incr j
    done;
    float_of_string_opt (String.sub s !i (!j - !i))

(* CI alloc gate: compare the e20 n=1000 cell against the checked-in
   budget; >10% over is a regression and fails the run. *)
let e20_alloc_gate rows =
  match Sys.getenv_opt "ECFD_ALLOC_GATE" with
  | Some "1" -> (
    match List.find_opt (fun r -> r.hb_n = 1_000) rows with
    | None ->
      Printf.eprintf "e20 alloc gate: no n=1000 row (set ECFD_E20_NS to include 1000)\n%!";
      exit 2
    | Some r -> (
      match read_alloc_budget (alloc_budget_file ()) with
      | None ->
        Printf.eprintf "e20 alloc gate: cannot read budget from %s\n%!" (alloc_budget_file ());
        exit 2
      | Some budget ->
        let limit = budget *. 1.10 in
        if r.hb_words_per_event > limit then begin
          Printf.eprintf
            "e20 alloc gate: FAIL — %.6f minor words/event exceeds budget %.6f (+10%% = %.6f)\n%!"
            r.hb_words_per_event budget limit;
          exit 2
        end
        else
          Printf.eprintf "e20 alloc gate: ok — %.6f minor words/event within budget %.6f\n%!"
            r.hb_words_per_event budget))
  | Some _ | None -> ()

let e20 () =
  Tables.heading "E20" "Heartbeat-saturated scaling: events/sec and allocs/event on the wheel";
  let events = e20_events () in
  let budget = e20_budget_s () in
  let t_sweep =
    (Sys.time
     [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) ()
  in
  let spent () =
    (Sys.time
     [@check.allow ambient "host-CPU throughput measurement; reads no simulated state"]) ()
    -. t_sweep
  in
  let rows, skipped =
    List.fold_left
      (fun (rows, skipped) n ->
        if spent () > budget then (rows, n :: skipped)
        else (e20_run_one ~n ~events :: rows, skipped))
      ([], []) (e20_sizes ())
  in
  let rows = List.rev rows and skipped = List.rev skipped in
  if skipped <> [] then
    Tables.note "Time budget %.0fs exhausted; skipped n in {%s} (raise ECFD_E20_BUDGET_S)."
      budget
      (String.concat ", " (List.map string_of_int skipped));
  Tables.table
    ~headers:
      [ "n"; "events"; "elapsed (s)"; "events/sec"; "minor words/event"; "queue hw"; "capacity" ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.hb_n;
             string_of_int r.hb_events;
             Printf.sprintf "%.3f" r.hb_elapsed;
             Printf.sprintf "%.0f" r.hb_eps;
             Printf.sprintf "%.6f" r.hb_words_per_event;
             string_of_int r.hb_queue_hw;
             string_of_int r.hb_capacity;
           ])
         rows);
  Tables.note "Steady-state heartbeat pop/fire/re-arm allocates no minor-heap words";
  Tables.note "(measured via Gc.minor_words deltas over the window; asserted < 0.01/event).";
  e20_result := Some rows;
  emit_sim_core_json ();
  Tables.note "Wrote %s (ECFD_E20_NS / ECFD_E20_EVENTS trim the sweep)." sim_core_json_file;
  e20_alloc_gate rows

let run () =
  Tables.heading "B1-B4" "Bechamel micro-benchmarks of the reproduction substrate";
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      [ bench_engine_events; bench_ring; bench_consensus; bench_spec ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Printf.sprintf "%.3f ms" (t /. 1e6)
          | Some [] | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; estimate; r2 ] :: acc)
      results []
    |> List.sort (List.compare String.compare)
  in
  Tables.table ~headers:[ "benchmark"; "time/run (OLS)"; "r^2" ] ~rows;
  Tables.note "Monotonic-clock OLS estimates; each run rebuilds its whole system.";
  (* One representative run's lifecycle accounting, so regressions in event
     or timer volume (not just wall clock) are visible in the report. *)
  let engine =
    Sim.Engine.create ~seed:1 ~n:8 ~link:(Sim.Link.reliable ~min_delay:1 ~max_delay:8 ()) ()
  in
  let _ = Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params in
  Sim.Engine.run_until engine 500;
  Tables.note "B1 lifecycle: %s"
    (Format.asprintf "%a" Sim.Stats.pp_lifecycle (Sim.Stats.lifecycle (Sim.Engine.stats engine)))
