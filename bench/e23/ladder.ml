(* The layer ladder: one steady-state event mix at the workload's n, built
   up one layer at a time.  Every step fires the same timers per period,
   and every step from +link on sends the same messages and executes the
   same events (asserted), so the difference in wall time per period
   between consecutive steps is the marginal cost of the layer the step
   adds.

     engine          no-op [Engine.every] timers standing in for the stack's
     +link           the same timers, some sending the leader's star
                     traffic to no-op handlers
     +detector       the real Leader_s replaces the leader->all sends and
                     two timers
     +ec             adds Ec.of_leader_s
     +transformation Ec_to_p replaces the remaining synthetic sends and
                     timers: this step is the ecp-* stack

   The consensus-* stacks have nothing periodic above ◇C, so their ladder
   stops at +ec.  [+link] also pays for Trace.record, Stats and the
   Obs.Registry delivery histogram: none of them can be detached from
   outside the engine. *)

let period = 10
let warmup = 200
let chunk_periods = 30

type top =
  | Transformation  (** Ec_to_p over ◇C: 4 timers and 2(n-1) sends per period. *)
  | Nothing  (** ◇C alone: 2 timers and n-1 sends per period. *)

type step = {
  name : string;
  period_us : float;  (** Median over chunks of wall time per period. *)
  events_per_period : int;
  deliveries_per_period : int;
  consistent : bool;
      (** Every chunk had the expected timer fires and sends: the stack's
          fires at every step, its sends from +link on. *)
}

let every engine p ~phase f = ignore (Sim.Engine.every engine p ~phase ~period f : unit -> unit)

(* Synthetic stand-ins, one timer per process each.  [phase] matches the
   real timer replaced: 0 for senders, [period] for time-out checks. *)
let noop_timers engine ~n ~phase =
  List.iter (fun p -> every engine p ~phase (fun () -> ())) (Sim.Pid.all ~n)

let sinks engine ~n ~component =
  List.iter (fun p -> Sim.Engine.register engine ~component p (fun ~src:_ _ -> ())) (Sim.Pid.all ~n)

let leader_to_all engine ~n =
  let component = "e23.out" in
  sinks engine ~n ~component;
  List.iter
    (fun p ->
      every engine p ~phase:0 (fun () ->
          if Sim.Pid.equal p 0 then
            Sim.Engine.send_to_all_others engine ~component ~tag:"out" ~src:p Sim.Payload.Blank))
    (Sim.Pid.all ~n)

let all_to_leader engine ~n =
  let component = "e23.in" in
  sinks engine ~n ~component;
  List.iter
    (fun p ->
      every engine p ~phase:0 (fun () ->
          if not (Sim.Pid.equal p 0) then
            Sim.Engine.send engine ~component ~tag:"in" ~src:p ~dst:0 Sim.Payload.Blank))
    (Sim.Pid.all ~n)

let leader_s ?hooks engine = Fd.Leader_s.install ?hooks engine Fd.Leader_s.default_params

(* (name, builder) per step; a builder installs everything on a fresh
   engine.  Below the top, Ec_to_p's two timers are stood in for by
   synthetic ones, the first sending I-AM-ALIVE to the leader from +link
   on. *)
let steps top ~n =
  let noop phase e = noop_timers e ~n ~phase in
  let with_top_stand_in ~sending build e =
    build e;
    match top with
    | Nothing -> ()
    | Transformation ->
      if sending then all_to_leader e ~n else noop 0 e;
      noop period e
  in
  let transformation e =
    let hooks = Fd.Leader_s.make_hooks () in
    let ec = Ecfd.Ec.of_leader_s (leader_s ~hooks e) ~engine:e in
    ignore
      (Ecfd.Ec_to_p.install_piggybacked e ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params
        : Fd.Fd_handle.t)
  in
  [
    ( "engine",
      with_top_stand_in ~sending:false (fun e ->
          noop 0 e;
          noop period e) );
    ( "+link",
      with_top_stand_in ~sending:true (fun e ->
          leader_to_all e ~n;
          noop period e) );
    ("+detector", with_top_stand_in ~sending:true (fun e -> ignore (leader_s e : Fd.Fd_handle.t)));
    ( "+ec",
      with_top_stand_in ~sending:true (fun e ->
          ignore (Ecfd.Ec.of_leader_s (leader_s e) ~engine:e : Fd.Fd_handle.t)) );
  ]
  @ match top with Nothing -> [] | Transformation -> [ ("+transformation", transformation) ]

let expected top ~n =
  match top with Transformation -> (4 * n, 2 * (n - 1)) | Nothing -> (2 * n, n - 1)

(* Build one step, warm it up, then time chunks of [chunk_periods] periods
   until [budget_s] has passed and at least [min_chunks] ran. *)
let measure ~instance ~net ~n ~top ~budget_s ~min_chunks (name, build) =
  Span.with_ ~instance ("ladder." ^ name) (fun () ->
      let engine = Scenario.engine ~net ~n () in
      build engine;
      Sim.Engine.run_until engine warmup;
      let fires, sends = expected top ~n in
      let sends = if String.equal name "engine" then 0 else sends in
      let stats = Sim.Engine.stats engine in
      let snapshot () =
        let lc = Sim.Stats.lifecycle stats and total = Sim.Stats.total stats in
        (lc.Sim.Stats.events_executed, lc.Sim.Stats.timers_fired, total.Sim.Stats.sent,
         total.Sim.Stats.delivered)
      in
      let chunks = ref [] and consistent = ref true in
      let events = ref (-1) and deliveries = ref (-1) in
      let start = Span.now_ns () in
      while
        List.length !chunks < min_chunks
        || float_of_int (Span.now_ns () - start) *. 1e-9 < budget_s
      do
        let e0, f0, s0, d0 = snapshot () in
        let t0 = Span.now_ns () in
        Sim.Engine.run_until engine (Sim.Engine.now engine + (chunk_periods * period));
        let dt = Span.now_ns () - t0 in
        let e1, f1, s1, d1 = snapshot () in
        chunks := (float_of_int dt *. 1e-3 /. float_of_int chunk_periods) :: !chunks;
        let same_as r x = !r < 0 || !r * chunk_periods = x in
        consistent :=
          !consistent
          && f1 - f0 = fires * chunk_periods
          && s1 - s0 = sends * chunk_periods
          && (e1 - e0) mod chunk_periods = 0
          && same_as events (e1 - e0)
          && same_as deliveries (d1 - d0);
        events := (e1 - e0) / chunk_periods;
        deliveries := (d1 - d0) / chunk_periods
      done;
      {
        name;
        period_us = (Summary.of_samples ~at:0.5 !chunks).Summary.value;
        events_per_period = !events;
        deliveries_per_period = !deliveries;
        consistent = !consistent;
      })

(* The steps run forward and then backward, each pass with half the
   budget, and a step's [period_us] is the mean of its two passes: the
   host's speed drifts between steps measured seconds apart, and this
   order cancels a linear drift out of every marginal. *)
let run ~instance ~net ~n ~top ~budget_s ~min_chunks =
  let pass order =
    List.map
      (fun step ->
        let r = measure ~instance ~net ~n ~top ~budget_s:(budget_s /. 2.0) ~min_chunks step in
        Gc.full_major ();
        r)
      order
  in
  let forward = pass (steps top ~n) in
  let backward = List.rev (pass (List.rev (steps top ~n))) in
  List.map2
    (fun a b ->
      {
        a with
        period_us = (a.period_us +. b.period_us) /. 2.0;
        consistent =
          a.consistent && b.consistent
          && a.events_per_period = b.events_per_period
          && a.deliveries_per_period = b.deliveries_per_period;
      })
    forward backward
