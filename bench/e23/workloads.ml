(* The four e23 workloads, their stacks and oracles, and the traced-run
   probes.  Every op's measurements go into [samples], keyed by metric
   source; e23.ml turns them into the reported metrics. *)

type workload =
  | Ecp_steady
  | Ecp_churn
  | Consensus_crash
  | Consensus_calm

let workloads =
  [
    ("ecp-steady", Ecp_steady);
    ("ecp-churn", Ecp_churn);
    ("consensus-crash", Consensus_crash);
    ("consensus-calm", Consensus_calm);
  ]

type cfg = {
  workload : workload;
  name : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** n <= 16 and 2 ops: the tier-1 test. *)
}

let period = 10
let now_ns = Span.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* [f ()] inside a span, with its wall time in ns. *)
let timed_span ~instance name f = timed (fun () -> Span.with_ ~instance name f)

(* ------------------------------------------------------------------ *)
(* Samples, keyed by metric source; ops attempted and failed.         *)
(* ------------------------------------------------------------------ *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

(* Off during the warm-up, whose samples are dropped. *)
let recording = ref true

let add key x =
  if !recording then
    Hashtbl.replace samples key (x :: Option.value ~default:[] (Hashtbl.find_opt samples key))

let addi key x = add key (float_of_int x)
let samples_of key = Option.value ~default:[] (Hashtbl.find_opt samples key)
let attempted = ref 0
let failed = ref 0

let op_done ok =
  incr attempted;
  if not ok then incr failed

(* Deterministic per-op counts, read before and after each op. *)
type counters = {
  events : int;
  sends : int;
  trace_len : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  adoptions : int;
  suspicions : int;
  epochs : int;
}

let counters engine =
  let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
  let gc = Gc.quick_stat () in
  let registry = Obs.Registry.snapshot (Sim.Engine.obs engine) in
  let counter name =
    match List.assoc_opt name registry with Some (Obs.Registry.Counter c) -> c | _ -> 0
  in
  {
    events = lc.Sim.Stats.events_executed;
    sends = (Sim.Stats.total (Sim.Engine.stats engine)).Sim.Stats.sent;
    trace_len = Sim.Trace.length (Sim.Engine.trace engine);
    minor_words = Gc.minor_words ();
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
    adoptions = counter "fd.leader_s.adoptions";
    suspicions = counter "ec_to_p.suspicions";
    epochs = counter "ec_to_p.leader_epochs";
  }

let record_op_counts a b =
  let events = b.events - a.events in
  let per_event x = x /. float_of_int (Stdlib.max 1 events) in
  addi "events" events;
  addi "sends" (b.sends - a.sends);
  addi "trace_events" (b.trace_len - a.trace_len);
  add "minor_words_per_event" (per_event (b.minor_words -. a.minor_words));
  add "promoted_words_per_event" (per_event (b.promoted_words -. a.promoted_words));
  addi "major_collections" (b.major_collections - a.major_collections);
  addi "adoptions" (b.adoptions - a.adoptions);
  addi "suspicions" (b.suspicions - a.suspicions);
  addi "epochs" (b.epochs - a.epochs)

(* Per-instance engine facts. *)
let record_instance_counts engine ~setup_trace_len =
  let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
  addi "trace_at_setup" setup_trace_len;
  addi "queue_high_water" lc.Sim.Stats.queue_high_water;
  addi "timer_residency_high_water" lc.Sim.Stats.timer_residency_high_water

(* Traced runs only: one pass over an instance's trace counting detector
   view changes and suspicion spans per op.  [bounds.(i)] is the trace
   length when op i began; the last entry is the length at the end. *)
let record_fd_counts trace bounds =
  let ops = Array.length bounds - 1 in
  let views = Array.make ops 0 and spans = Array.make ops 0 in
  Sim.Trace.iter trace (fun e ->
      let seq = e.Sim.Trace.seq in
      if seq >= bounds.(0) && seq < bounds.(ops) then begin
        let i = ref 0 in
        while seq >= bounds.(!i + 1) do
          incr i
        done;
        match e.Sim.Trace.body with
        | Sim.Trace.Fd_view _ -> views.(!i) <- views.(!i) + 1
        | Sim.Trace.Span_begin { name; _ } when String.equal name "suspicion" ->
          spans.(!i) <- spans.(!i) + 1
        | _ -> ()
      end);
  Array.iter (addi "view_changes") views;
  Array.iter (addi "suspicion_spans") spans

(* Per-op zeros for the layers a workload does not build. *)
let record_absent keys = List.iter (fun k -> addi k 0) keys

let consensus_keys = [ "rounds"; "decide_ticks"; "consensus_sends"; "broadcast_sends" ]

(* Obs.Qos over one detector component, timed per trace event. *)
let qos_report ~instance ~component ~n engine =
  let trace = Sim.Engine.trace engine in
  let report, ns =
    timed_span ~instance "obs.qos" (fun () ->
        Sim.Trace_qos.report ~component ~n ~horizon:(Sim.Engine.now engine) trace)
  in
  add "qos_ns_per_event" (float_of_int ns /. float_of_int (Stdlib.max 1 (Sim.Trace.length trace)));
  report

let warmup_s = 1.0

(* Run [body i] for stack instances i = 0, 1, ...: [smoke_instances] of
   them in a smoke run; otherwise a warm-up of [warmup_s] whose samples and
   spans are dropped (a process's first second runs measurably slower),
   then instances until [cfg.seconds] have passed.  Each phase runs at
   least one instance.  An instance's garbage is collected before the next
   is built, outside every timed region, so peak memory is one instance's
   and not a GC-paced multiple of it. *)
let each_instance cfg ~smoke_instances body =
  let phase more =
    let start = now_ns () in
    let rec go i =
      if i = 0 || more i start then begin
        body i;
        Gc.full_major ();
        go (i + 1)
      end
    in
    go 0
  in
  if cfg.smoke then phase (fun i _ -> i < smoke_instances)
  else begin
    recording := false;
    Span.enabled := false;
    phase (fun _ start -> seconds_since start < warmup_s);
    recording := true;
    Span.enabled := cfg.trace;
    phase (fun _ start -> seconds_since start < cfg.seconds)
  end

(* ------------------------------------------------------------------ *)
(* The ◇C -> ◇P stack: Leader_s + Ec.of_leader_s + piggybacked Ec_to_p *)
(* (experiments E2/E14).                                               *)
(* ------------------------------------------------------------------ *)

type ecp_stack = {
  engine : Sim.Engine.t;
  ec : Fd.Fd_handle.t;
  ecp : Fd.Fd_handle.t;
}

let build_ecp ~instance ~net ~n ~crashes =
  let sp name f = Span.with_ ~instance name f in
  sp "setup" (fun () ->
      let engine = sp "engine.create" (fun () -> Scenario.engine ~net ~n ()) in
      sp "fault.apply" (fun () -> Sim.Fault.apply engine crashes);
      let hooks = Fd.Leader_s.make_hooks () in
      let leader =
        sp "leader_s.install" (fun () -> Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params)
      in
      let ec = sp "ec.install" (fun () -> Ecfd.Ec.of_leader_s leader ~engine) in
      let ecp =
        sp "ec_to_p.install" (fun () ->
            Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params)
      in
      { engine; ec; ecp })

(* Simulate [periods] detector periods, one latency sample per period. *)
let run_periods engine ~periods =
  for _ = 1 to periods do
    let t0 = now_ns () in
    Sim.Engine.run_until engine (Sim.Engine.now engine + period);
    add "latency_ms" (float_of_int (now_ns () - t0) *. 1e-6)
  done

let pair_equal (a, b) (c, d) = Sim.Pid.equal a c && Sim.Pid.equal b d

(* ecp-steady: n = 1000 on the default network, failure-free.  Per
   instance: warm-up, then windows of 300 periods; op = one window.  A
   window fails unless exactly 2(n-1) messages per period were sent, every
   ◇P view is empty and p0 is trusted everywhere; the last window also
   checks (Spec.Link_metrics, E14) that only the leader's 2(n-1) star
   links carried messages since the warm-up. *)
let ecp_steady cfg =
  let n = if cfg.smoke then 16 else 1000 in
  let periods = 300 and warmup = 200 in
  each_instance cfg ~smoke_instances:1 (fun i ->
      let windows = if cfg.smoke then 2 else if !recording then 5 else 1 in
      let net = { Scenario.default_net with seed = cfg.seed + i } in
      let s, setup_ns = timed (fun () -> build_ecp ~instance:i ~net ~n ~crashes:Sim.Fault.none) in
      add "setup_s" (float_of_int setup_ns *. 1e-9);
      let trace = Sim.Engine.trace s.engine in
      let setup_trace_len = Sim.Trace.length trace in
      Span.with_ ~instance:i "warmup" (fun () -> Sim.Engine.run_until s.engine warmup);
      let bounds = ref [] and check_ns = ref 0 in
      for w = 1 to windows do
        let before = counters s.engine in
        bounds := before.trace_len :: !bounds;
        Span.with_ ~instance:i "window" (fun () -> run_periods s.engine ~periods);
        let after = counters s.engine in
        record_op_counts before after;
        let ok, ns =
          timed_span ~instance:i "oracle" (fun () ->
              let sent_ok = after.sends - before.sends = 2 * (n - 1) * periods in
              let views_ok =
                List.for_all
                  (fun p ->
                    Sim.Pid.Set.is_empty (Fd.Fd_handle.suspected s.ecp p)
                    && Option.equal Sim.Pid.equal (Fd.Fd_handle.trusted s.ec p) (Some 0))
                  (Sim.Pid.all ~n)
              in
              let star_ok =
                w < windows
                ||
                let links, ns =
                  timed_span ~instance:i "spec.link_metrics" (fun () ->
                      Spec.Link_metrics.active_links trace
                        ~components:[ Fd.Leader_s.component; Ecfd.Ec_to_p.component ]
                        ~from_t:(warmup + 1) ~to_t:(Sim.Engine.now s.engine))
                in
                add "spec_ns_per_event" (float_of_int ns /. float_of_int (Sim.Trace.length trace));
                List.equal pair_equal links (Spec.Link_metrics.star_of ~leader:0 ~n)
              in
              sent_ok && views_ok && star_ok)
        in
        check_ns := !check_ns + ns;
        op_done ok
      done;
      add "check_ms" (float_of_int !check_ns *. 1e-6);
      record_instance_counts s.engine ~setup_trace_len;
      record_absent consensus_keys;
      if cfg.trace then begin
        record_fd_counts trace (Array.of_list (List.rev (Sim.Trace.length trace :: !bounds)));
        ignore (qos_report ~instance:i ~component:Ecfd.Ec_to_p.component ~n s.engine : Obs.Qos.report)
      end);
  n

(* ecp-churn: n = 128, the same stack on a chaotic network (GST 3000,
   pre-GST delays up to 160); p0, p1 and p(n/2) crash at ticks 500, 1500
   and 2500; horizon 5000.  Op = one instance, seeds S, S+1, ...  It fails
   unless the ◇P output satisfies ◇P (Spec.Fd_props) and the QoS fold
   (Obs.Qos) shows every correct process detecting every crash. *)
let ecp_churn cfg =
  let n = if cfg.smoke then 16 else 128 in
  let horizon = 5000 in
  let crashes = Sim.Fault.crashes [ (0, 500); (1, 1500); (n / 2, 2500) ] in
  each_instance cfg ~smoke_instances:2 (fun i ->
      let net = Scenario.chaotic_net ~seed:(cfg.seed + i) ~gst:3000 () in
      let s, setup_ns = timed (fun () -> build_ecp ~instance:i ~net ~n ~crashes) in
      add "setup_s" (float_of_int setup_ns *. 1e-9);
      let trace = Sim.Engine.trace s.engine in
      let before = counters s.engine in
      Span.with_ ~instance:i "run" (fun () -> run_periods s.engine ~periods:(horizon / period));
      let after = counters s.engine in
      record_op_counts before after;
      let ok, ns =
        timed_span ~instance:i "oracle" (fun () ->
            let run = Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component s.ecp) ~n trace in
            let eventually_perfect, spec_ns =
              timed_span ~instance:i "spec.fd_props" (fun () ->
                  Spec.Fd_props.satisfies_class Fd.Classes.P_eventual run)
            in
            add "spec_ns_per_event"
              (float_of_int spec_ns /. float_of_int (Sim.Trace.length trace));
            let qos = qos_report ~instance:i ~component:(Fd.Fd_handle.component s.ecp) ~n s.engine in
            let faulty = Sim.Fault.faulty crashes in
            let detected (p : Obs.Qos.pair) =
              Sim.Pid.Set.mem p.Obs.Qos.observer faulty
              || (not (Sim.Pid.Set.mem p.Obs.Qos.subject faulty))
              || Option.is_some p.Obs.Qos.detection_time
            in
            eventually_perfect && List.for_all detected qos.Obs.Qos.pairs)
      in
      add "check_ms" (float_of_int ns *. 1e-6);
      op_done ok;
      record_instance_counts s.engine ~setup_trace_len:before.trace_len;
      record_absent consensus_keys;
      if cfg.trace then record_fd_counts trace [| before.trace_len; after.trace_len |]);
  n

(* ------------------------------------------------------------------ *)
(* ◇C consensus: Ec_consensus over Ec_from_leader + Reliable_broadcast *)
(* ------------------------------------------------------------------ *)

type consensus_stack = {
  c_engine : Sim.Engine.t;
  instance : Consensus.Instance.t;
}

(* The consensus marginal probe builds without spans, so its installs do
   not count as the instance's setup. *)
let build_detector ~spans ~instance ~net ~n ~crashes =
  let sp name f = if spans then Span.with_ ~instance name f else f () in
  let engine = sp "engine.create" (fun () -> Scenario.engine ~net ~n ()) in
  sp "fault.apply" (fun () -> Sim.Fault.apply engine crashes);
  let leader = sp "leader_s.install" (fun () -> Fd.Leader_s.install engine Fd.Leader_s.default_params) in
  let fd = sp "ec.install" (fun () -> Ecfd.Ec.of_leader_s leader ~engine) in
  (engine, fd)

let build_consensus ~instance ~net ~n ~crashes =
  let sp name f = Span.with_ ~instance name f in
  sp "setup" (fun () ->
      let engine, fd = build_detector ~spans:true ~instance ~net ~n ~crashes in
      let rb = sp "rb.create" (fun () -> Broadcast.Reliable_broadcast.create engine) in
      let inst =
        sp "ec_consensus.install" (fun () ->
            Ecfd.Ec_consensus.install engine ~fd ~rb Ecfd.Ec_consensus.default_params)
      in
      sp "propose.schedule" (fun () ->
          List.iter
            (fun p ->
              Sim.Engine.at engine 0 (fun () ->
                  if Sim.Engine.is_alive engine p then inst.Consensus.Instance.propose p (100 + p)))
            (Sim.Pid.all ~n));
      { c_engine = engine; instance = inst })

let decide_cap = 20_000

(* Step tick by tick until every correct process has decided (or the
   cap); the decision tick, or None at the cap. *)
let run_to_decision engine inst ~correct =
  let next = ref 0 in
  let all_decided () =
    while
      !next < Array.length correct
      && Option.is_some (inst.Consensus.Instance.decision correct.(!next))
    do
      incr next
    done;
    !next = Array.length correct
  in
  while (not (all_decided ())) && Sim.Engine.now engine < decide_cap do
    Sim.Engine.run_until engine (Sim.Engine.now engine + 1)
  done;
  if all_decided () then Some (Sim.Engine.now engine) else None

(* consensus-crash (n = 100, p0..p(n/2-2) crash at t = 0) and
   consensus-calm (n = 200, failure-free).  Op = one instance, seeds S,
   S+1, ...: propose at 0, step until every correct process decided.  It
   fails unless all correct processes decided within 20 000 ticks and
   Spec.Consensus_props.check_all finds no violation. *)
let consensus cfg =
  let crash_half = match cfg.workload with Consensus_crash -> true | _ -> false in
  let n = if cfg.smoke then 16 else if crash_half then 100 else 200 in
  let crashes =
    if crash_half then Sim.Fault.crashes (List.init ((n / 2) - 1) (fun p -> (p, 0)))
    else Sim.Fault.none
  in
  let correct = Array.of_list (Sim.Pid.Set.elements (Sim.Fault.correct ~n crashes)) in
  each_instance cfg ~smoke_instances:2 (fun i ->
      let net = { Scenario.default_net with seed = cfg.seed + i } in
      let s, setup_ns = timed (fun () -> build_consensus ~instance:i ~net ~n ~crashes) in
      add "setup_s" (float_of_int setup_ns *. 1e-9);
      let trace = Sim.Engine.trace s.c_engine in
      let before = counters s.c_engine in
      let decided, run_ns =
        timed_span ~instance:i "step_loop" (fun () ->
            run_to_decision s.c_engine s.instance ~correct)
      in
      add "latency_ms" (float_of_int run_ns *. 1e-6);
      let after = counters s.c_engine in
      record_op_counts before after;
      let ok, ns =
        timed_span ~instance:i "oracle" (fun () ->
            let violations, spec_ns =
              timed_span ~instance:i "spec.consensus_props" (fun () ->
                  Spec.Consensus_props.check_all trace ~n)
            in
            add "spec_ns_per_event" (float_of_int spec_ns /. float_of_int (Sim.Trace.length trace));
            Option.is_some decided && List.is_empty violations)
      in
      add "check_ms" (float_of_int ns *. 1e-6);
      op_done ok;
      record_instance_counts s.c_engine ~setup_trace_len:before.trace_len;
      let stats = Sim.Engine.stats s.c_engine in
      let sent component = (Sim.Stats.component_counts stats ~component).Sim.Stats.sent in
      addi "rounds" (Option.value ~default:0 (Spec.Consensus_props.decision_round trace));
      addi "decide_ticks" (Option.value ~default:decide_cap decided);
      addi "consensus_sends" (sent Ecfd.Ec_consensus.component);
      addi "broadcast_sends" (sent Broadcast.Reliable_broadcast.default_component);
      if cfg.trace then begin
        record_fd_counts trace [| before.trace_len; after.trace_len |];
        ignore (qos_report ~instance:i ~component:Ecfd.Ec.component_of_leader_s ~n s.c_engine : Obs.Qos.report);
        (* Consensus marginal: the detector-only stack, same network and
           crashes, stepped the same way to the same decision tick. *)
        let ticks = Option.value ~default:decide_cap decided in
        let engine, _ =
          Span.with_ ~instance:i "probe.setup" (fun () ->
              build_detector ~spans:false ~instance:i ~net ~n ~crashes)
        in
        let (), detector_ns =
          timed_span ~instance:i "probe.step_loop" (fun () ->
              while Sim.Engine.now engine < ticks do
                Sim.Engine.run_until engine (Sim.Engine.now engine + 1)
              done)
        in
        add "protocol_period_us"
          (float_of_int (run_ns - detector_ns) *. 1e-3 /. (float_of_int ticks /. float_of_int period))
      end);
  n

(* ------------------------------------------------------------------ *)
(* Traced runs: the layer ladder.                                     *)
(* ------------------------------------------------------------------ *)

let ladder cfg ~n =
  let top =
    match cfg.workload with
    | Ecp_steady | Ecp_churn -> Ladder.Transformation
    | Consensus_crash | Consensus_calm -> Ladder.Nothing
  in
  let steps =
    Ladder.run ~instance:(-1) ~net:{ Scenario.default_net with seed = cfg.seed } ~n ~top
      ~budget_s:(if cfg.smoke then 0.0 else 1.0)
      ~min_chunks:(if cfg.smoke then 2 else 5)
  in
  let step i = List.nth steps i in
  let us i = (step i).Ladder.period_us in
  let engine = step 0 and link = step 1 in
  add "engine_period_us" engine.Ladder.period_us;
  add "engine_ns_per_event" (engine.Ladder.period_us *. 1e3 /. float_of_int engine.Ladder.events_per_period);
  add "link_period_us" (us 1 -. us 0);
  add "link_ns_per_delivery"
    ((us 1 -. us 0) *. 1e3 /. float_of_int (Stdlib.max 1 link.Ladder.deliveries_per_period));
  add "leader_s_period_us" (us 2 -. us 1);
  add "ec_period_us" (us 3 -. us 2);
  (match top with Ladder.Transformation -> add "protocol_period_us" (us 4 -. us 3) | Ladder.Nothing -> ());
  let same_mix =
    List.for_all (fun s -> s.Ladder.consistent) steps
    && List.for_all
         (fun s -> s.Ladder.events_per_period = link.Ladder.events_per_period)
         (List.tl steps)
  in
  List.iter
    (fun s ->
      Printf.printf "LADDER %-16s %10.1f us/period %7d events/period %6d deliveries/period%s\n"
        s.Ladder.name s.Ladder.period_us s.Ladder.events_per_period s.Ladder.deliveries_per_period
        (if s.Ladder.consistent then "" else "  INCONSISTENT"))
    steps;
  same_mix
