(* The paper's evaluation, regenerated (see DESIGN.md §3 for the index).

   Every experiment [eN ppf] renders a table of paper-claim vs measured
   values into [ppf]; test/golden/EXPERIMENTS.txt pins the full harness
   output byte for byte. *)

let sweep_ns = [ 4; 8; 16; 32 ]
let seeds = [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Parallel grids                                                     *)
(* ------------------------------------------------------------------ *)

(* Every experiment enumerates its (subject, seed, n) grid as pure job
   closures and runs them through the domain pool: each job builds its own
   engine from explicit inputs and returns plain data; no job prints or
   touches state shared with another job.  [Exec.Pool.run] hands results
   back in grid order whatever the domain count, and all table rendering
   happens afterwards on the calling domain — so the harness output is
   byte-identical at ECFD_DOMAINS=1 and ECFD_DOMAINS=8. *)

let par_map xs f = Exec.Pool.run (List.map (fun x () -> f x) xs)

(* Regroup a flat grid-order result list into rows of [k]. *)
let rec chunk k = function
  | [] -> []
  | flat ->
    let rec take i acc rest =
      match (i, rest) with
      | 0, _ -> (List.rev acc, rest)
      | _, x :: rest -> take (i - 1) (x :: acc) rest
      | _, [] -> invalid_arg "Experiments.chunk: ragged grid"
    in
    let row, rest = take k [] flat in
    row :: chunk k rest

(* The full [xs × ys] grid as one job list; results come back as one list
   per [x] (in [ys] order), so call sites can render per-row aggregates. *)
let par_map2 xs ys f =
  chunk (List.length ys)
    (Exec.Pool.run (List.concat_map (fun x -> List.map (fun y () -> f x y) ys) xs))

let par_map3 xs ys zs f =
  let flat =
    Exec.Pool.run
      (List.concat_map
         (fun x -> List.concat_map (fun y -> List.map (fun z () -> f x y z) zs) ys)
         xs)
  in
  List.map (chunk (List.length zs)) (chunk (List.length ys * List.length zs) flat)

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1 + Definition 1: the class matrix                       *)
(* ------------------------------------------------------------------ *)

(* The subjects: each detector stack with the class the paper assigns it. *)
type subject = {
  label : string;
  claimed : Fd.Classes.t;
  build : Sim.Engine.t -> Sim.Fault.t -> Fd.Fd_handle.t;
}

let subjects =
  let scenario d = fun engine _schedule -> Scenario.install_detector engine d in
  [
    { label = "heartbeat <>P [6]"; claimed = Fd.Classes.P_eventual; build = scenario Scenario.Heartbeat_p };
    { label = "ring <>S [15]"; claimed = Fd.Classes.S_eventual; build = scenario Scenario.Ring_s };
    { label = "ring, no propagation (<>W)"; claimed = Fd.Classes.W_eventual; build = scenario Scenario.Ring_w };
    { label = "leader <>S [16]"; claimed = Fd.Classes.S_eventual; build = scenario Scenario.Leader_s };
    { label = "<>C from leader <>S (S3)"; claimed = Fd.Classes.Ec; build = scenario Scenario.Ec_from_leader };
    { label = "<>C from ring <>S (S3)"; claimed = Fd.Classes.Ec; build = scenario Scenario.Ec_from_ring };
    {
      label = "<>C from Omega (Chu) (S3)";
      claimed = Fd.Classes.Ec;
      build = scenario Scenario.Ec_from_omega_chu;
    };
    {
      label = "<>C from heartbeat <>P (S3)";
      claimed = Fd.Classes.Ec;
      build = scenario Scenario.Ec_from_heartbeat;
    };
    {
      label = "<>C from P oracle (S3)";
      claimed = Fd.Classes.Ec;
      build = (fun engine schedule -> Scenario.install_detector engine (Scenario.Ec_from_perfect schedule));
    };
    {
      label = "<>C -> <>P (Fig. 2)";
      claimed = Fd.Classes.P_eventual;
      build =
        (fun engine _ ->
          let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
          let ec = Ecfd.Ec.of_leader_s base ~engine in
          Ecfd.Ec_to_p.install engine ~underlying:ec Ecfd.Ec_to_p.default_params);
    };
  ]

let e1 ppf =
  Tables.heading ppf "E1"
    "Class matrix (Fig. 1 + Definition 1): which properties hold empirically";
  let n = 5 in
  let horizon = 9000 in
  let run_subject subject seed =
    let net = { (Scenario.chaotic_net ~seed ~gst:250 ()) with delta = 8 } in
    let engine = Scenario.engine ~net ~n () in
    let schedule = Sim.Fault.crash 2 ~at:400 in
    Sim.Fault.apply engine schedule;
    let handle = subject.build engine schedule in
    Sim.Engine.run_until engine horizon;
    Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component handle) ~n (Sim.Engine.trace engine)
  in
  let headers = [ "detector (claimed class)"; "SC"; "WC"; "<>SA"; "<>WA"; "leader"; "t!in!s" ] in
  (* One simulation per (subject, seed) pair, all six properties evaluated
     on it; the whole grid runs through the pool at once. *)
  let runs_by_subject = par_map2 subjects seeds run_subject in
  let rows =
    List.map2
      (fun subject runs ->
        let cell prop =
          let ok =
            List.for_all (fun run -> (Spec.Fd_props.check prop run).Spec.Fd_props.holds) runs
          in
          let claimed = List.mem prop (Fd.Classes.implied_properties subject.claimed) in
          match (ok, claimed) with
          | true, true -> "yes*"
          | true, false -> "yes"
          | false, false -> "-"
          | false, true -> "MISSING"
        in
        Printf.sprintf "%s: %s" subject.label (Fd.Classes.name subject.claimed)
        :: List.map cell Fd.Classes.all_properties)
      subjects runs_by_subject
  in
  Tables.table ppf ~headers ~rows;
  Tables.note ppf
    "SC/WC = strong/weak completeness, <>SA/<>WA = eventual strong/weak accuracy,";
  Tables.note ppf "leader = Property 1 (Omega), t!in!s = eventually trusted not suspected.";
  Tables.note ppf "'yes*' = holds and guaranteed by the claimed class; 'yes' = held on these";
  Tables.note ppf "benign runs though not guaranteed; '-' = does not hold (as expected);";
  Tables.note ppf "'MISSING' would be a reproduction failure.  %d seeds, n=%d, one crash, GST=250."
    (List.length seeds) n

(* ------------------------------------------------------------------ *)
(* E2 — Section 4: periodic message cost of <>P implementations       *)
(* ------------------------------------------------------------------ *)

let period_cost ~n ~periods ~component build =
  (* Run long enough to stabilise, then count [periods] periods' sends. *)
  let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 5 } ~n () in
  build engine;
  let period = 10 in
  Sim.Engine.run_until engine 2000;
  let snap = Sim.Stats.snapshot (Sim.Engine.stats engine) in
  Sim.Engine.run_until engine (2000 + (periods * period));
  let sent =
    List.fold_left
      (fun acc c -> acc + Sim.Stats.sent_since (Sim.Engine.stats engine) snap ~component:c)
      0 component
  in
  float_of_int sent /. float_of_int periods

let e2 ppf =
  Tables.heading ppf "E2"
    "Cost of <>P implementations (Section 4): messages sent per period, steady state";
  let heartbeat engine = ignore (Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params) in
  let ring engine = ignore (Fd.Ring_s.install engine Fd.Ring_s.default_params) in
  let standalone engine =
    let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    ignore (Ecfd.Ec_to_p.install engine ~underlying:ec Ecfd.Ec_to_p.default_params)
  in
  let piggyback engine =
    let hooks = Fd.Leader_s.make_hooks () in
    let base = Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    ignore (Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params)
  in
  let fd_components = [ Fd.Leader_s.component; Ecfd.Ec_to_p.component ] in
  let variants =
    [
      ([ Fd.Heartbeat_p.component ], heartbeat);
      ([ Fd.Ring_s.component ], ring);
      (fd_components, standalone);
      (fd_components, piggyback);
    ]
  in
  let measured =
    par_map2 sweep_ns variants (fun n (components, build) ->
        period_cost ~n ~periods:50 ~component:components build)
  in
  let rows =
    List.concat
      (List.map2
         (fun n cells ->
           match cells with
           | [ hb; rg; sa; pb ] ->
             [
               [ Tables.fi n; "Chandra-Toueg <>P [6]"; Printf.sprintf "n(n-1) = %d" (n * (n - 1));
                 Tables.ff hb ];
               [ ""; "ring <>S/<>P [15]"; Printf.sprintf "2n = %d" (2 * n); Tables.ff rg ];
               [ ""; "Fig. 2 stand-alone (+ leader <>S)"; Printf.sprintf "3(n-1) = %d" (3 * (n - 1));
                 Tables.ff sa ];
               [ ""; "Fig. 2 piggybacked (+ leader <>S)"; Printf.sprintf "2(n-1) = %d" (2 * (n - 1));
                 Tables.ff pb ];
             ]
           | _ -> assert false)
         sweep_ns measured)
  in
  Tables.table ppf ~headers:[ "n"; "implementation"; "paper"; "measured" ] ~rows;
  Tables.note ppf "The paper's claim: the piggybacked construction costs 2(n-1) per period,";
  Tables.note ppf "'comparing favorably' to n^2 [6] and 'slightly better' than 2n [15].";
  Tables.note ppf "(Crossover with the ring: 2(n-1) < 2n for every n.)"

(* ------------------------------------------------------------------ *)
(* E3 — Section 4: crash-detection latency                            *)
(* ------------------------------------------------------------------ *)

let e3 ppf =
  Tables.heading ppf "E3"
    "Crash-detection latency (Section 4): ring list propagation vs leader push";
  let crash_at = 2000 in
  let latency ~n ~seed build component =
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
    let victim = n / 2 in
    Sim.Fault.apply engine (Sim.Fault.crash victim ~at:crash_at);
    build engine;
    Sim.Engine.run_until engine (crash_at + 4000);
    let run = Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace engine) in
    Option.map (fun t -> t - crash_at) (Spec.Fd_props.detection_time run ~victim)
  in
  let ring engine = ignore (Fd.Ring_s.install engine Fd.Ring_s.default_params) in
  let transform engine =
    let hooks = Fd.Leader_s.make_hooks () in
    let base = Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    ignore
      (Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params)
  in
  let heartbeat engine = ignore (Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params) in
  let ns = [ 8; 16; 32 ] in
  let detectors =
    [
      (ring, Fd.Ring_s.component);
      (transform, Ecfd.Ec_to_p.component);
      (heartbeat, Fd.Heartbeat_p.component);
    ]
  in
  let grid =
    par_map3 ns detectors seeds (fun n (build, component) seed ->
        latency ~n ~seed build component)
  in
  let rows =
    List.map2
      (fun n per_detector ->
        Tables.fi n
        :: List.map
             (fun per_seed -> Tables.ff (Tables.mean (List.filter_map Fun.id per_seed)))
             per_detector)
      ns grid
  in
  Tables.table ppf
    ~headers:[ "n"; "ring <>S/<>P [15]"; "Fig. 2 transformation"; "heartbeat <>P [6]" ]
    ~rows;
  Tables.note ppf "Ticks from the crash until every correct process suspects it for good";
  Tables.note ppf "(mean over %d seeds; heartbeat/list periods 10, initial time-out 30)."
    (List.length seeds);
  Tables.note ppf "Paper's claim: the transformation avoids the ring's 'high latency in crash";
  Tables.note ppf "detection (due to the propagation of the list over the ring)' — the ring's";
  Tables.note ppf "latency grows with n while the leader-push stays flat, at a fraction of";
  Tables.note ppf "the heartbeat <>P's n^2 message price (see E2)."

(* ------------------------------------------------------------------ *)
(* E4 — Section 5.4: per-round phases and messages                    *)
(* ------------------------------------------------------------------ *)

let stable_round_run ~n ~protocol =
  Scenario.run_consensus ~net:{ Scenario.default_net with seed = 2 } ~n
    ~detector:(Scenario.Scripted_stable 0) ~protocol ()

(* Canonical-run trace export (the CI artifact).  The e4 cell EXPERIMENTS.md
   documents as the Perfetto example — n = 8, <>C consensus, stable scripted
   detector — rendered through both exporters.  The render runs as a pool
   job like any grid cell, and the exported bytes are a pure function of the
   trace, so test_exec checks them byte-identical across domain counts. *)
let e4_trace_exports () =
  match
    Exec.Pool.run
      [
        (fun () ->
          let r =
            stable_round_run ~n:8 ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params)
          in
          ( Sim.Trace_export.chrome_string r.Scenario.trace,
            Sim.Trace_export.jsonl_string r.Scenario.trace ));
      ]
  with
  | [ exports ] -> exports
  | _ -> assert false

(* ECFD_TRACE_EXPORT=1 writes the canonical exports next to the bench JSON.
   The note goes to stderr only: stdout must stay byte-identical whether or
   not the export runs. *)
let maybe_export_e4_traces () =
  if Sys.getenv_opt "ECFD_TRACE_EXPORT" = Some "1" then begin
    let chrome, jsonl = e4_trace_exports () in
    List.iter
      (fun (path, data) ->
        let oc = open_out_bin path in
        output_string oc data;
        close_out oc;
        Printf.eprintf "ecfd-bench: wrote %s\n%!" path)
      [ ("TRACE_e4.chrome.json", chrome); ("TRACE_e4.jsonl", jsonl) ]
  end

let e4 ppf =
  Tables.heading ppf "E4"
    "Consensus round cost (Section 5.4): phases and messages per stable round";
  let ec = Scenario.Ec Ecfd.Ec_consensus.default_params in
  let cases =
    [
      ("<>C consensus (this paper)", ec, fun n -> Printf.sprintf "4n ~ %d" (4 * (n - 1)));
      ("Chandra-Toueg <>S [6]", Scenario.Ct, fun n -> Printf.sprintf "3n ~ %d" (3 * (n - 1)));
      ("Mostefaoui-Raynal Omega [20]", Scenario.Mr, fun n -> Printf.sprintf "3n^2 ~ %d" (3 * n * (n - 1)));
      ( "Hurfin-Raynal-style <>S [12]",
        Scenario.Hr,
        fun n -> Printf.sprintf "n^2 ~ %d" ((n - 1) + (n * (n - 1))) );
    ]
  in
  let cells =
    par_map2 sweep_ns cases (fun n (_, protocol, _) ->
        let r = stable_round_run ~n ~protocol in
        ( r.Scenario.instance.Consensus.Instance.phases_per_round,
          Spec.Round_metrics.sends_in_round r.Scenario.trace
            ~component:(Scenario.protocol_component protocol) ~round:1,
          Spec.Consensus_props.decision_round r.Scenario.trace ))
  in
  let rows =
    List.concat
      (List.map2
         (fun n per_case ->
           List.map2
             (fun (label, _, paper) (phases, round1, decided) ->
               [
                 Tables.fi n;
                 label;
                 Tables.fi phases;
                 paper n;
                 Tables.fi round1;
                 (match decided with Some round -> Tables.fi round | None -> "-");
               ])
             cases per_case)
         sweep_ns cells)
  in
  Tables.table ppf
    ~headers:[ "n"; "protocol"; "phases"; "paper msgs/round"; "measured (round 1)"; "decided in" ]
    ~rows;
  Tables.note ppf "Stable detector from the start (leader p1), failure-free, so round 1 is the";
  Tables.note ppf "steady state.  The paper counts a process's message to itself; the simulator";
  Tables.note ppf "treats self-sends as local (4(n-1)/3(n-1)/3n(n-1) vs the paper's 4n/3n/3n^2).";
  Tables.note ppf "The trade-off of Section 5.4 spans all four: 5/4/3/2 communication phases";
  Tables.note ppf "against Theta(n)/Theta(n)/Theta(n^2)/Theta(n^2) messages per round.";
  maybe_export_e4_traces ()

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3: rounds after stabilisation                         *)
(* ------------------------------------------------------------------ *)

let e5 ppf =
  Tables.heading ppf "E5"
    "Rounds to decide once the detector is stable (Theorem 3 vs one-round <>C)";
  let ec = Scenario.Ec Ecfd.Ec_consensus.default_params in
  let decision_round ~n ~leader protocol =
    let r =
      Scenario.run_consensus ~net:{ Scenario.default_net with seed = 3 } ~horizon:20_000 ~n
        ~detector:(Scenario.Scripted_stable leader) ~protocol ()
    in
    match Spec.Consensus_props.decision_round r.Scenario.trace with
    | Some round -> Tables.fi round
    | None -> "-"
  in
  List.iter
    (fun n ->
      Format.fprintf ppf "  n = %d (stable leader at position i; CT's coordinator rotates):@." n;
      let leaders = List.init n Fun.id in
      let grid =
        par_map2 leaders [ Scenario.Ct; Scenario.Hr; ec; Scenario.Mr ]
          (fun leader protocol -> decision_round ~n ~leader protocol)
      in
      let rows =
        List.map2 (fun leader cells -> Tables.fi (leader + 1) :: cells) leaders grid
      in
      Tables.table ppf
        ~headers:[ "leader i"; "CT <>S [6]"; "HR <>S [12]"; "<>C (paper)"; "MR Omega [20]" ]
        ~rows)
    [ 4; 8; 16 ];
  Tables.note ppf "The detector is stable from the start: everyone trusts p_i and suspects";
  Tables.note ppf "everybody else.  The rotating coordinator needs i rounds to reach the one";
  Tables.note ppf "unsuspected process — Omega(n) in the worst case (Theorem 3) — while the";
  Tables.note ppf "leader-driven protocols decide in one round wherever the leader sits."

(* ------------------------------------------------------------------ *)
(* E6 — Section 5.4: NACKs vs the majority of positive replies        *)
(* ------------------------------------------------------------------ *)

let e6 ppf =
  Tables.heading ppf "E6"
    "Blocking on negative replies (Section 5.4): majority-of-ACKs vs first-majority";
  let n = 7 in
  let horizon = 8000 in
  let run_with_nackers ~nackers protocol_params protocol_of =
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 4 } ~n () in
    let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
    let nacker_view = Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
    let fd =
      Fd.Scripted.install engine
        ~initial:(fun p -> if p >= n - nackers then nacker_view else accurate p)
        ~steps:[] ()
    in
    let rb = Broadcast.Reliable_broadcast.create engine in
    let inst = protocol_of engine fd rb protocol_params in
    List.iter (fun p -> inst.Consensus.Instance.propose p (100 + p)) (Sim.Pid.all ~n);
    Sim.Engine.run_until engine horizon;
    match Spec.Consensus_props.decision_round (Sim.Engine.trace engine) with
    | Some round -> Printf.sprintf "round %d" round
    | None -> "blocked"
  in
  let ec params engine fd rb () = Ecfd.Ec_consensus.install engine ~fd ~rb params in
  let ct engine fd rb () = Consensus.Ct_consensus.install ~max_rounds:2000 engine ~fd ~rb () in
  let extended = { Ecfd.Ec_consensus.default_params with max_rounds = 2000 } in
  let strict =
    { extended with Ecfd.Ec_consensus.wait_mode = Ecfd.Ec_consensus.Strict_majority }
  in
  let nacker_counts = [ 0; 1; 2; 3 ] in
  let cells =
    par_map2 nacker_counts [ `Extended; `Strict; `Ct ] (fun nackers variant ->
        match variant with
        | `Extended -> run_with_nackers ~nackers () (fun e fd rb () -> ec extended e fd rb ())
        | `Strict -> run_with_nackers ~nackers () (fun e fd rb () -> ec strict e fd rb ())
        | `Ct -> run_with_nackers ~nackers () (fun e fd rb () -> ct e fd rb ()))
  in
  let rows =
    List.map2 (fun nackers cells -> Tables.fi nackers :: cells) nacker_counts cells
  in
  Tables.table ppf
    ~headers:[ "persistent nackers"; "<>C extended wait"; "<>C strict (ablation)"; "CT <>S [6]" ]
    ~rows;
  Tables.note ppf "n=7 (majority 4).  k processes trust the leader but also suspect it";
  Tables.note ppf "forever, NACKing every round.  The paper's extended wait gathers replies";
  Tables.note ppf "from every non-suspected process and decides on a majority of ACKs despite";
  Tables.note ppf "the NACKs; a first-majority rule (the ablation; CT's own Phase 4) sees a";
  Tables.note ppf "NACK among the first replies and can never decide while the leader stands";
  Tables.note ppf "(CT escapes only by rotating to another coordinator: one extra round)."

(* ------------------------------------------------------------------ *)
(* E7 — Section 5.4: merging Phases 0 and 1                           *)
(* ------------------------------------------------------------------ *)

let e7 ppf =
  Tables.heading ppf "E7" "The phase-merge trade-off (Section 5.4): fewer phases, more messages";
  let classic = Scenario.Ec Ecfd.Ec_consensus.default_params in
  let merged =
    Scenario.Ec { Ecfd.Ec_consensus.default_params with merge_phase01 = true }
  in
  let cells =
    par_map2 sweep_ns [ classic; merged ] (fun n protocol ->
        let r = stable_round_run ~n ~protocol in
        ( r.Scenario.instance.Consensus.Instance.phases_per_round,
          Spec.Round_metrics.sends_in_round r.Scenario.trace
            ~component:Ecfd.Ec_consensus.component ~round:1 ))
  in
  let rows =
    List.concat
      (List.map2
         (fun n per_variant ->
           match per_variant with
           | [ (cphases, cmsgs); (mphases, mmsgs) ] ->
             [
               [ Tables.fi n; "classic (Figs. 3-4)"; Tables.fi cphases;
                 Printf.sprintf "Theta(n) = %d" (4 * (n - 1)); Tables.fi cmsgs ];
               [ ""; "phases 0+1 merged"; Tables.fi mphases;
                 Printf.sprintf "Omega(n^2) = %d" ((n * (n - 1)) + (2 * (n - 1)));
                 Tables.fi mmsgs ];
             ]
           | _ -> assert false)
         sweep_ns cells)
  in
  Tables.table ppf ~headers:[ "n"; "variant"; "phases"; "paper msgs/round"; "measured" ] ~rows;
  Tables.note ppf "Merging Phase 0 into Phase 1 (estimate straight to the leader, null";
  Tables.note ppf "estimates to everybody else) saves one communication step but raises the";
  Tables.note ppf "message count from Theta(n) to Omega(n^2) — the trade-off of Section 5.4."

(* ------------------------------------------------------------------ *)
(* E8 — Section 3: what a <>C construction costs                      *)
(* ------------------------------------------------------------------ *)

let e8 ppf =
  Tables.heading ppf "E8"
    "Cost of obtaining <>C (Section 3): free constructions vs Omega reduction";
  let cells =
    par_map2 sweep_ns [ `Leader; `Ring; `Chu ] (fun n route ->
        match route with
        | `Leader ->
          period_cost ~n ~periods:50 ~component:[ Fd.Leader_s.component ] (fun engine ->
              let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
              ignore (Ecfd.Ec.of_leader_s base ~engine))
        | `Ring ->
          period_cost ~n ~periods:50 ~component:[ Fd.Ring_s.component ] (fun engine ->
              let base = Fd.Ring_s.install engine Fd.Ring_s.default_params in
              ignore (Ecfd.Ec.of_ring base ~engine))
        | `Chu ->
          period_cost ~n ~periods:50
            ~component:[ Fd.Ring_s.component; Fd.Omega_from_s.component ]
            (fun engine ->
              let base = Fd.Ring_s.install engine Fd.Ring_s.default_params in
              let omega =
                Fd.Omega_from_s.install engine ~underlying:base Fd.Omega_from_s.default_params
              in
              ignore (Ecfd.Ec.of_omega omega ~engine)))
  in
  let rows =
    List.concat
      (List.map2
         (fun n per_route ->
           match per_route with
           | [ leader_route; ring_route; chu_route_total ] ->
             [
               [ Tables.fi n; "leader <>S [16] + S3 construction";
                 Printf.sprintf "n-1 = %d" (n - 1); Tables.ff leader_route ];
               [ ""; "ring <>S [15] + S3 construction"; Printf.sprintf "2n = %d" (2 * n);
                 Tables.ff ring_route ];
               [ ""; "ring <>S + Chu Omega reduction [5,7]";
                 Printf.sprintf "2n + n(n-1) = %d" ((2 * n) + (n * (n - 1)));
                 Tables.ff chu_route_total ];
             ]
           | _ -> assert false)
         sweep_ns cells)
  in
  Tables.table ppf ~headers:[ "n"; "route to <>C"; "paper msgs/period"; "measured" ] ~rows;
  Tables.note ppf "The Section 3 constructions over suitable <>S detectors add zero messages";
  Tables.note ppf "(E1 checks they still land in <>C); the asynchronous Omega reductions of";
  Tables.note ppf "Chandra et al. and Chu 'are expensive ... every process sends messages";
  Tables.note ppf "periodically to all processes'."

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 1 at scale: the transformation across random runs     *)
(* ------------------------------------------------------------------ *)

let e9 ppf =
  Tables.heading ppf "E9" "Theorem 1 across random systems: transformation output is <>P";
  let trials = 50 in
  let results =
    par_map (List.init trials Fun.id) (fun i ->
        let seed = 1009 * (i + 1) in
        let rng = Sim.Rng.create ~seed in
        let n = 3 + Sim.Rng.int rng ~bound:7 in
        let gst = Sim.Rng.int rng ~bound:500 in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:600 in
        let net = { (Scenario.chaotic_net ~seed ~gst ()) with delta = 8 } in
        let engine = Scenario.engine ~net ~n () in
        Sim.Fault.apply engine crashes;
        let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
        let ec = Ecfd.Ec.of_leader_s base ~engine in
        let p = Ecfd.Ec_to_p.install engine ~underlying:ec Ecfd.Ec_to_p.default_params in
        Sim.Engine.run_until engine 15_000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n
            (Sim.Engine.trace engine)
        in
        let ok = Spec.Fd_props.satisfies_class Fd.Classes.P_eventual run in
        let since =
          match
            Spec.Eventually.all
              [
                (Spec.Fd_props.strong_completeness run).Spec.Fd_props.since;
                (Spec.Fd_props.eventual_strong_accuracy run).Spec.Fd_props.since;
              ]
          with
          | Some t -> t
          | None -> -1
        in
        (ok, since, gst, Sim.Fault.last_crash_time crashes))
  in
  let ok_count = List.length (List.filter (fun (ok, _, _, _) -> ok) results) in
  let lags =
    List.filter_map
      (fun (ok, since, gst, last_crash) ->
        if ok then Some (Stdlib.max 0 (since - Sim.Sim_time.max gst last_crash)) else None)
      results
  in
  Tables.table ppf
    ~headers:[ "random runs"; "<>P holds"; "mean settle lag after max(GST, last crash)" ]
    ~rows:[ [ Tables.fi trials; Tables.fi ok_count; Tables.ff (Tables.mean lags) ^ " ticks" ] ];
  Tables.note ppf "Each run: n in 3..9, GST in 0..500, random minority crash schedule,";
  Tables.note ppf "chaotic pre-GST delays.  'Settle lag' = how long after the system calms";
  Tables.note ppf "down the output satisfies both <>P properties for good."

(* ------------------------------------------------------------------ *)
(* E10 — Theorem 2 at scale: <>C consensus across random runs         *)
(* ------------------------------------------------------------------ *)

let e10 ppf =
  Tables.heading ppf "E10"
    "Theorem 2 across random systems: <>C consensus solves Uniform Consensus";
  let trials = 100 in
  let outcomes =
    par_map (List.init trials Fun.id) (fun i ->
        let seed = 7919 * (i + 1) in
        let rng = Sim.Rng.create ~seed in
        let n = 3 + Sim.Rng.int rng ~bound:7 in
        let gst = Sim.Rng.int rng ~bound:400 in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:400 in
        let net = { (Scenario.chaotic_net ~seed ~gst ()) with delta = 8 } in
        let r =
          Scenario.run_consensus ~net ~crashes ~horizon:20_000 ~n
            ~detector:Scenario.Ec_from_leader
            ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
        in
        let violations = Spec.Consensus_props.check_all r.Scenario.trace ~n in
        ( violations = [],
          Spec.Consensus_props.decision_round r.Scenario.trace,
          Spec.Consensus_props.last_decision_time r.Scenario.trace,
          gst ))
  in
  let ok = List.length (List.filter (fun (ok, _, _, _) -> ok) outcomes) in
  let rounds = List.filter_map (fun (_, r, _, _) -> r) outcomes in
  let lag =
    List.filter_map
      (fun (_, _, t, gst) -> Option.map (fun t -> Stdlib.max 0 (t - gst)) t)
      outcomes
  in
  Tables.table ppf
    ~headers:
      [ "random runs"; "all 4 properties"; "mean decision round"; "mean decision lag after GST" ]
    ~rows:
      [
        [
          Tables.fi trials;
          Tables.fi ok;
          Tables.ff (Tables.mean rounds);
          Tables.ff (Tables.mean lag) ^ " ticks";
        ];
      ];
  Tables.note ppf "Each run: n in 3..9, random minority crashes, random GST, chaotic pre-GST";
  Tables.note ppf "delays.  Termination, uniform agreement, uniform integrity and validity are";
  Tables.note ppf "checked on every run (f < n/2, as Theorem 2 requires)."

(* ------------------------------------------------------------------ *)
(* E11 — extension: stable leader election [2] vs order-based [16]    *)
(* ------------------------------------------------------------------ *)

let e11 ppf =
  Tables.heading ppf "E11"
    "Leadership stability (extension): stable election [2] vs order-based [16]";
  let n = 6 in
  (* Scenario A — the one stability is about: a low-id process is muffled
     (its outgoing messages all lost) for a window after things were calm,
     then comes back.  The order-based election hands leadership back to it;
     the stable election keeps the incumbent. *)
  let muffled_comeback ~seed detector_install component =
    let blackout_from = 500 and blackout_to = 900 in
    let base = Sim.Link.reliable ~min_delay:1 ~max_delay:8 () in
    let link =
      Sim.Link.route (fun ~src ~dst:_ ->
          if Sim.Pid.equal src 0 then
            {
              Sim.Link.fate =
                (fun ~rng ~now ~src ~dst ->
                  if now >= blackout_from && now <= blackout_to then Sim.Link.drop
                  else base.Sim.Link.fate ~rng ~now ~src ~dst);
            }
          else base)
    in
    let engine = Sim.Engine.create ~seed ~n ~link () in
    detector_install engine;
    Sim.Engine.run_until engine 6000;
    let run = Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace engine) in
    let observer = n - 1 in
    let changes_after t0 =
      List.length
        (List.filter
           (fun (at, _, v) ->
             ignore (v : Fd.Fd_view.t);
             at > t0)
           (let tl = Spec.Fd_props.timeline run observer in
            let rec switches prev acc = function
              | [] -> acc
              | (at, (v : Fd.Fd_view.t)) :: rest ->
                if Option.equal Sim.Pid.equal v.Fd.Fd_view.trusted prev then
                  switches prev acc rest
                else switches v.Fd.Fd_view.trusted ((at, prev, v) :: acc) rest
            in
            switches None [] tl))
    in
    ( Spec.Fd_props.eventual_leader run,
      changes_after blackout_to,
      Spec.Fd_props.demotions_of_live_leaders run observer )
  in
  let leader_install engine = ignore (Fd.Leader_s.install engine Fd.Leader_s.default_params) in
  let stable_install engine = ignore (Fd.Stable_omega.install engine Fd.Stable_omega.default_params) in
  let rows_a =
    let grid =
      par_map2
        [ (leader_install, Fd.Leader_s.component); (stable_install, Fd.Stable_omega.component) ]
        seeds
        (fun (install, component) seed -> muffled_comeback ~seed install component)
    in
    let collect results =
      let final_leaders =
        List.sort_uniq (Option.compare Sim.Pid.compare) (List.map (fun (l, _, _) -> l) results)
      in
      let changes = Tables.mean (List.map (fun (_, c, _) -> c) results) in
      let demotions = Tables.mean (List.map (fun (_, _, d) -> d) results) in
      ( String.concat "/"
          (List.map
             (function Some l -> Sim.Pid.to_string l | None -> "-")
             final_leaders),
        changes,
        demotions )
    in
    match List.map collect grid with
    | [ (pl, pc, pd); (sl, sc, sd) ] ->
      [
        [ "A: p1 muffled 500-900,"; "order-based [16]"; pl; Tables.ff pc; Tables.ff pd ];
        [ "   then returns"; "stable [2]"; sl; Tables.ff sc; Tables.ff sd ];
      ]
    | _ -> assert false
  in
  (* Scenario B — real crash of the leader: both should switch exactly once
     (counted at the observer after the crash instant). *)
  let failover_grid =
    par_map2 [ Scenario.Leader_s; Scenario.Stable_omega ] seeds (fun detector seed ->
        let net = { Scenario.default_net with seed } in
        let _, run, _ =
          Scenario.fd_run ~net ~crashes:(Sim.Fault.crash 0 ~at:1000) ~horizon:6000 ~n
            ~detector ()
        in
        ( Spec.Fd_props.leader_changes run (n - 1),
          Spec.Fd_props.demotions_of_live_leaders run (n - 1) ))
  in
  let crash_failover results =
    (Tables.mean (List.map fst results), Tables.mean (List.map snd results))
  in
  let (pc, pd), (sc, sd) =
    match List.map crash_failover failover_grid with
    | [ p; s ] -> (p, s)
    | _ -> assert false
  in
  let rows_b =
    [
      [ "B: calm net, leader"; "order-based [16]"; "p2"; Tables.ff pc; Tables.ff pd ];
      [ "   crashes at t=1000"; "stable [2]"; "p2"; Tables.ff sc; Tables.ff sd ];
    ]
  in
  Tables.table ppf
    ~headers:
      [ "scenario"; "election"; "final leader"; "changes (post-event)"; "live demotions" ]
    ~rows:(rows_a @ rows_b);
  Tables.note ppf "n=%d, mean over %d seeds, observed at the last process.  The <>C paper"
    n (List.length seeds);
  Tables.note ppf "points to Aguilera et al. [2] for stability: once elected, a leader should";
  Tables.note ppf "stay in charge while it is alive and timely.  In scenario A the order-based";
  Tables.note ppf "election of [16] hands leadership back to the returning p1 (a demotion of";
  Tables.note ppf "the perfectly healthy incumbent); the accusation-epoch election keeps the";
  Tables.note ppf "incumbent and changes leaders (essentially) only on real crashes (B).";
  Tables.note ppf "Both cost n-1 messages per period and plug into the same Section 3";
  Tables.note ppf "construction to yield <>C; fewer spurious coordinator changes means fewer";
  Tables.note ppf "wasted consensus rounds (Section 2.2's 'unique leader for long enough')."

(* ------------------------------------------------------------------ *)
(* E12 — extension: Omega where <>P is impossible ([3], Section 1.1)  *)
(* ------------------------------------------------------------------ *)

let e12 ppf =
  Tables.heading ppf "E12"
    "Omega under weak synchrony (extension; [3]): one timely source is enough";
  let n = 5 in
  let source = 2 in
  let horizon = 30_000 in
  let fabric =
    let timely = Sim.Link.reliable ~min_delay:1 ~max_delay:8 () in
    let silent = Sim.Link.growing_blackouts () in
    Sim.Link.route (fun ~src ~dst:_ ->
        if Sim.Pid.equal src source then timely else silent)
  in
  let run_detector install component seed =
    let engine = Sim.Engine.create ~seed ~n ~link:fabric () in
    install engine;
    Sim.Engine.run_until engine horizon;
    Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace engine)
  in
  let row label runs =
    let late_changes =
      Tables.mean
        (List.map (fun run -> Spec.Fd_props.leader_changes_after run (n - 1) ~after:(horizon / 2)) runs)
    in
    let leaders =
      List.sort_uniq (Option.compare Sim.Pid.compare) (List.map Spec.Fd_props.eventual_leader runs)
    in
    let late_false =
      Tables.mean
        (List.map
           (fun run -> Spec.Fd_props.false_suspicion_events_after run ~after:(horizon / 2))
           runs)
    in
    [
      label;
      String.concat "/"
        (List.map (function Some l -> Sim.Pid.to_string l | None -> "-") leaders);
      Tables.ff late_changes;
      Tables.ff late_false;
    ]
  in
  let detectors =
    [
      ( "counter-based Omega [3]",
        (fun e -> ignore (Fd.Omega_source.install e Fd.Omega_source.default_params)),
        Fd.Omega_source.component );
      ( "order-based leader <>S [16]",
        (fun e -> ignore (Fd.Leader_s.install e Fd.Leader_s.default_params)),
        Fd.Leader_s.component );
      ( "heartbeat <>P [6]",
        (fun e -> ignore (Fd.Heartbeat_p.install e Fd.Heartbeat_p.default_params)),
        Fd.Heartbeat_p.component );
    ]
  in
  let grid =
    par_map2 detectors seeds (fun (_, install, component) seed ->
        run_detector install component seed)
  in
  let rows = List.map2 (fun (label, _, _) runs -> row label runs) detectors grid in
  Tables.table ppf
    ~headers:
      [ "detector"; "final leader"; "late leader changes"; "late false suspicions" ]
    ~rows;
  Tables.note ppf "System: only p3's (pid 2) output links are timely; every other link";
  Tables.note ppf "suffers ever-growing silence windows (fair but never timely), n=%d," n;
  Tables.note ppf "%d seeds, horizon %d, 'late' = after t=%d."
    (List.length seeds) horizon (horizon / 2);
  Tables.note ppf "The counter-based election settles on the source and never moves again";
  Tables.note ppf "(0 late changes; its Omega-grade suspicions are not accuracy-relevant).";
  Tables.note ppf "The order-based election hands leadership back to p1 after every silence";
  Tables.note ppf "window, forever.  The heartbeat <>P keeps freshly (and wrongly)";
  Tables.note ppf "suspecting correct processes deep into the run: no time-out discipline";
  Tables.note ppf "achieves <>P accuracy here.  Omega — hence <>C's leader half — is thus";
  Tables.note ppf "implementable where <>P is not (Aguilera et al. [3], cited in S1.1)."

(* ------------------------------------------------------------------ *)
(* E13 — ablation: decision latency vs number of crashes              *)
(* ------------------------------------------------------------------ *)

let e13 ppf =
  Tables.heading ppf "E13"
    "Robustness sweep (ablation): decision latency and rounds vs crash count";
  let n = 9 in
  let ec = Scenario.Ec Ecfd.Ec_consensus.default_params in
  let protocols =
    [ ("<>C", ec); ("CT", Scenario.Ct); ("MR", Scenario.Mr); ("HR", Scenario.Hr) ]
  in
  let fs = [ 0; 1; 2; 3; 4 ] in
  let grid =
    par_map3 fs protocols seeds (fun f (_, protocol) seed ->
        (* Crash the first f processes at t=0, before they can even
           propose: they are the initial leader and the first rotating
           coordinators, so every protocol is hit where it hurts. *)
        let crashes = Sim.Fault.crashes (List.init f (fun i -> (i, 0))) in
        let r =
          Scenario.run_consensus
            ~net:{ Scenario.default_net with seed }
            ~crashes ~horizon:20_000 ~n ~detector:Scenario.Ec_from_leader ~protocol ()
        in
        match
          ( Spec.Consensus_props.last_decision_time r.Scenario.trace,
            Spec.Consensus_props.decision_round r.Scenario.trace )
        with
        | Some t, Some round when Spec.Consensus_props.check_all r.Scenario.trace ~n = [] ->
          Some (t, round)
        | _ -> None)
  in
  let cell per_seed =
    match List.filter_map Fun.id per_seed with
    | [] -> "failed"
    | results ->
      Printf.sprintf "%s / %s"
        (Tables.ff (Tables.mean (List.map fst results)))
        (Tables.ff (Tables.mean (List.map snd results)))
  in
  let rows =
    List.map2 (fun f per_protocol -> Tables.fi f :: List.map cell per_protocol) fs grid
  in
  Tables.table ppf
    ~headers:("crashes f" :: List.map fst protocols)
    ~rows;
  Tables.note ppf "Cells: mean time-to-last-decision (ticks) / mean decision round, %d seeds,"
    (List.length seeds);
  Tables.note ppf "n=%d (tolerates f <= 4): p1..pf crash at t=0 — the initial leader and the" n;
  Tables.note ppf "first rotating coordinators.  Detector: ec-from-leader.  All runs satisfied";
  Tables.note ppf "Uniform Consensus; the sweep shows how each protocol absorbs the loss:";
  Tables.note ppf "everyone waits for the detector to re-elect (the time component), and the";
  Tables.note ppf "rotating-coordinator protocols additionally burn a round per dead";
  Tables.note ppf "coordinator they stumble over (the round component grows with f)."

(* ------------------------------------------------------------------ *)
(* E14 — Section 4: "eventually only these links carry messages"      *)
(* ------------------------------------------------------------------ *)

let e14 ppf =
  Tables.heading ppf "E14"
    "Link quiescence (Section 4): steady state uses only the leader's star";
  let window = 1000 in
  let measure ~n build components =
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 7 } ~n () in
    build engine;
    Sim.Engine.run_until engine (3000 + window);
    Spec.Link_metrics.active_links (Sim.Engine.trace engine) ~components ~from_t:3000
      ~to_t:(3000 + window)
  in
  let cells =
    par_map2 sweep_ns [ `Transformation; `Ring; `Heartbeat ] (fun n impl ->
        match impl with
        | `Transformation ->
          measure ~n
            (fun engine ->
              let hooks = Fd.Leader_s.make_hooks () in
              let base = Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params in
              let ec = Ecfd.Ec.of_leader_s base ~engine in
              ignore
                (Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec
                   Ecfd.Ec_to_p.default_params))
            [ Fd.Leader_s.component; Ecfd.Ec_to_p.component ]
        | `Ring ->
          measure ~n
            (fun engine -> ignore (Fd.Ring_s.install engine Fd.Ring_s.default_params))
            [ Fd.Ring_s.component ]
        | `Heartbeat ->
          measure ~n
            (fun engine -> ignore (Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params))
            [ Fd.Heartbeat_p.component ])
  in
  let rows =
    List.concat
      (List.map2
         (fun n per_impl ->
           match per_impl with
           | [ transformation_links; ring_links; heartbeat_links ] ->
             let star = Spec.Link_metrics.star_of ~leader:0 ~n in
             [
               [ Tables.fi n; "Fig. 2 (piggybacked) + leader <>S";
                 Printf.sprintf "2(n-1) = %d" (2 * (n - 1));
                 Tables.fi (List.length transformation_links);
                 (if List.equal (fun (a, b) (c, d) -> Sim.Pid.equal a c && Sim.Pid.equal b d) transformation_links star then "= leader star" else "NOT the star") ];
               [ ""; "ring <>S [15]"; Printf.sprintf "2n = %d" (2 * n);
                 Tables.fi (List.length ring_links); "ring edges" ];
               [ ""; "heartbeat <>P [6]"; Printf.sprintf "n(n-1) = %d" (n * (n - 1));
                 Tables.fi (List.length heartbeat_links); "complete graph" ];
             ]
           | _ -> assert false)
         sweep_ns cells)
  in
  Tables.table ppf
    ~headers:[ "n"; "implementation"; "paper active links"; "measured"; "shape" ]
    ~rows;
  Tables.note ppf "Distinct directed links carrying at least one message during a 1000-tick";
  Tables.note ppf "steady-state window (t in [3000, 4000], leader p1, failure-free).";
  Tables.note ppf "Section 4's claim — 'eventually only these links carry messages', i.e. the";
  Tables.note ppf "n-1 links into the leader and the n-1 out of it — holds exactly: the";
  Tables.note ppf "transformation's active set IS the leader's star, against the ring's 2n";
  Tables.note ppf "cycle edges and the heartbeat detector's complete graph."

(* ------------------------------------------------------------------ *)
(* E15 — Section 5.4's closing point, generalised: noise tolerance    *)
(* ------------------------------------------------------------------ *)

let e15 ppf =
  Tables.heading ppf "E15"
    "Suspicion-noise sweep: majority-of-ACKs vs first-majority under random NACKs";
  let n = 9 in
  let majority = (n / 2) + 1 in
  let horizon = 8000 in
  let trials = 20 in
  (* Each non-leader process independently suspects the (otherwise stable,
     accurate) leader with probability q, permanently: the fraction of
     NACKers per run is random.  The paper: "even if the detector is not
     stable, Consensus can be reached if the appropriate conditions are
     met" — the extended wait turns 'fewer than a majority of NACKers' into
     a round-1 decision; the strict rule usually blocks on the first NACK. *)
  let run_noise ~q ~seed params =
    let rng = Sim.Rng.create ~seed in
    let nackers =
      List.filter (fun p -> not (Sim.Pid.equal p 0) && Sim.Rng.bool rng ~p:q) (Sim.Pid.all ~n)
    in
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
    let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
    let nacker_view = Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
    let fd =
      Fd.Scripted.install engine
        ~initial:(fun p -> if List.mem p nackers then nacker_view else accurate p)
        ~steps:[] ()
    in
    let rb = Broadcast.Reliable_broadcast.create engine in
    let inst = Ecfd.Ec_consensus.install engine ~fd ~rb params in
    List.iter (fun p -> inst.Consensus.Instance.propose p (100 + p)) (Sim.Pid.all ~n);
    Sim.Engine.run_until engine horizon;
    ( List.length nackers,
      Spec.Consensus_props.decision_round (Sim.Engine.trace engine) )
  in
  let extended = { Ecfd.Ec_consensus.default_params with max_rounds = 2000 } in
  let strict =
    { extended with Ecfd.Ec_consensus.wait_mode = Ecfd.Ec_consensus.Strict_majority }
  in
  let pct k = Printf.sprintf "%d%%" (100 * k / trials) in
  let qs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ] in
  let grid =
    par_map3 qs [ extended; strict ]
      (List.init trials (fun i -> i + 1))
      (fun q params seed -> run_noise ~q ~seed params)
  in
  let rows =
    List.map2
      (fun q per_params ->
        match per_params with
        | [ ext; str ] ->
          let decided rs = List.length (List.filter (fun (_, r) -> r <> None) rs) in
          let decidable =
            List.length (List.filter (fun (k, _) -> n - 1 - k + 1 >= majority) ext)
          in
          [
            Printf.sprintf "%.1f" q;
            pct decidable;
            pct (decided ext);
            pct (decided str);
          ]
        | _ -> assert false)
      qs grid
  in
  Tables.table ppf
    ~headers:
      [ "P(wrongly suspect leader)"; "ACK-majority exists"; "<>C extended decides";
        "<>C strict decides" ]
    ~rows;
  Tables.note ppf "n=%d (majority %d), %d runs per row, stable accurate leader p1; each other"
    n majority trials;
  Tables.note ppf "process independently NACKs it forever with probability q.  The extended";
  Tables.note ppf "wait decides in exactly the runs where a majority of ACKs exists at all";
  Tables.note ppf "(the information-theoretic best); the strict first-majority rule collapses";
  Tables.note ppf "as soon as any NACKer exists, because its NACK beats the ACKs to the";
  Tables.note ppf "coordinator every round.  This quantifies Section 5.4's closing claim."

(* ------------------------------------------------------------------ *)
(* E16 — extension: the <>C stack over fair-lossy links               *)
(* ------------------------------------------------------------------ *)

let e16 ppf =
  Tables.heading ppf "E16"
    "Message loss (extension): the <>C stack raw vs over stubborn channels";
  let n = 5 in
  let horizon = 40_000 in
  let run ~drop ~seed ~stubborn =
    let link =
      Sim.Link.fair_lossy ~drop_probability:drop
        ~underlying:(Sim.Link.reliable ~min_delay:1 ~max_delay:5 ())
    in
    let engine = Sim.Engine.create ~seed ~n ~link () in
    let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    let rb, transport =
      if stubborn then begin
        let st_rb = Broadcast.Stubborn.create ~component:"stubborn.rb" engine in
        let st_cons = Broadcast.Stubborn.create ~component:"stubborn.cons" engine in
        (Broadcast.Reliable_broadcast.create ~transport:(`Stubborn st_rb) engine,
         `Stubborn st_cons)
      end
      else (Broadcast.Reliable_broadcast.create engine, `Engine)
    in
    let inst =
      Ecfd.Ec_consensus.install ~transport engine ~fd:ec ~rb
        { Ecfd.Ec_consensus.default_params with max_rounds = 5000 }
    in
    List.iter (fun p -> inst.Consensus.Instance.propose p (100 + p)) (Sim.Pid.all ~n);
    Sim.Engine.run_until engine horizon;
    let trace = Sim.Engine.trace engine in
    let ok = Spec.Consensus_props.check_all trace ~n = [] in
    (ok, Spec.Consensus_props.last_decision_time trace)
  in
  let cell results =
    let ok = List.length (List.filter fst results) in
    match List.filter_map snd results with
    | [] -> Printf.sprintf "%d/%d ok, no decisions" ok (List.length seeds)
    | times ->
      Printf.sprintf "%d/%d ok, ~%s ticks" ok (List.length seeds) (Tables.ff (Tables.mean times))
  in
  let drops = [ 0.0; 0.2; 0.4; 0.6 ] in
  let grid =
    par_map3 drops [ false; true ] seeds (fun drop stubborn seed -> run ~drop ~seed ~stubborn)
  in
  let rows =
    List.map2
      (fun drop per_stubborn ->
        match per_stubborn with
        | [ raw; stubborn ] ->
          [ Printf.sprintf "%.0f%%" (100.0 *. drop); cell raw; cell stubborn ]
        | _ -> assert false)
      drops grid
  in
  Tables.table ppf
    ~headers:[ "loss rate"; "raw one-shot messages"; "stubborn channels" ]
    ~rows;
  Tables.note ppf "n=%d, %d seeds per cell, horizon %d.  The raw stack tolerates surprising"
    n (List.length seeds) horizon;
  Tables.note ppf "loss (a round only needs majority paths, failed rounds retry, and the";
  Tables.note ppf "detector's traffic is periodic anyway), but it degrades with luck; the";
  Tables.note ppf "retransmitting transport keeps every run deciding quickly.  Fig. 2 needed";
  Tables.note ppf "no retransmission because its traffic is periodic by construction — this";
  Tables.note ppf "extension supplies the analogous guarantee to the one-shot consensus";
  Tables.note ppf "messages (cf. quiescent reliable communication, Aguilera et al. [1])."

(* ------------------------------------------------------------------ *)
(* E17 — application layer: replicated-log commit latency             *)
(* ------------------------------------------------------------------ *)

let e17 ppf =
  Tables.heading ppf "E17"
    "Replicated log over repeated <>C consensus: commit latency and slot efficiency";
  let commands = 20 in
  let measure ~n ~seed =
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
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
    let order = Consensus.Total_order.create ~max_slots:48 engine ~make_instance () in
    let submit_time = Hashtbl.create 32 in
    let delivery = Hashtbl.create 32 in
    (* Record the instant each message is delivered everywhere. *)
    List.iter
      (fun p ->
        Consensus.Total_order.subscribe order p (fun m ->
            let key = m.Consensus.Total_order.body in
            let seen = Option.value ~default:0 (Hashtbl.find_opt delivery key) in
            Hashtbl.replace delivery key (seen + 1);
            if seen + 1 = n then
              Hashtbl.replace delivery key (-Sim.Engine.now engine)))
      (Sim.Pid.all ~n);
    for i = 0 to commands - 1 do
      let src = i mod n in
      let at = 40 * i in
      Sim.Engine.at engine at (fun () ->
          Hashtbl.replace submit_time (900 + i) at;
          Consensus.Total_order.broadcast order ~src ~body:(900 + i))
    done;
    Sim.Engine.run_until engine 30_000;
    let latencies =
      (* Sorted: the float mean below folds left-to-right, so bucket order
         would otherwise leak into the last rounding bit. *)
      Hashtbl.fold
        (fun key state acc ->
          if state < 0 then
            match Hashtbl.find_opt submit_time key with
            | Some t0 -> (-state - t0) :: acc
            | None -> acc
          else acc)
        delivery []
      |> List.sort Int.compare
    in
    let slots =
      List.fold_left
        (fun acc p -> Stdlib.max acc (Consensus.Total_order.slots_used order p))
        0 (Sim.Pid.all ~n)
    in
    (List.length latencies, Tables.mean latencies, slots)
  in
  let log_ns = [ 3; 5; 7 ] in
  let grid = par_map2 log_ns seeds (fun n seed -> measure ~n ~seed) in
  let rows =
    List.map2
      (fun n results ->
        let committed = Tables.mean (List.map (fun (c, _, _) -> c) results) in
        let latency =
          List.fold_left (fun acc (_, l, _) -> acc +. l) 0.0 results
          /. float_of_int (List.length results)
        in
        let slots = Tables.mean (List.map (fun (_, _, s) -> s) results) in
        [
          Tables.fi n;
          Printf.sprintf "%.1f / %d" committed commands;
          Printf.sprintf "%.1f ticks" latency;
          Printf.sprintf "%.1f (for %d commands)" slots commands;
        ])
      log_ns grid
  in
  Tables.table ppf
    ~headers:[ "n"; "committed everywhere"; "mean commit latency"; "slots consumed" ]
    ~rows;
  Tables.note ppf "%d commands submitted 40 ticks apart at rotating replicas, %d seeds."
    commands (List.length seeds);
  Tables.note ppf "Commit latency = submission until delivery at ALL replicas.  One consensus";
  Tables.note ppf "instance per slot; a slot can be 'wasted' when a command wins a slot while";
  Tables.note ppf "also pending elsewhere (slots > commands measures that overhead).  This is";
  Tables.note ppf "the application-layer face of the paper's one-round stable-case claim:";
  Tables.note ppf "latency stays a small constant (a few message delays) at every n."

(* ------------------------------------------------------------------ *)
(* E18 — substrate: engine lifecycle accounting under a full FD stack *)
(* ------------------------------------------------------------------ *)

let e18 ppf =
  Tables.heading ppf "E18"
    "Engine resource accounting: timer-table residency is O(in-flight), not O(run length)";
  let measure ~n ~horizon =
    let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 23 } ~n () in
    let _ = Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params in
    Sim.Engine.run_until engine horizon;
    let lc = Sim.Stats.lifecycle (Sim.Engine.stats engine) in
    ( lc.Sim.Stats.events_executed,
      lc.Sim.Stats.timers_set,
      lc.Sim.Stats.timers_reclaimed,
      Sim.Engine.timer_residency engine,
      lc.Sim.Stats.timer_residency_high_water,
      lc.Sim.Stats.queue_high_water )
  in
  let ns = [ 4; 8; 16 ] and horizons = [ 2_000; 20_000 ] in
  let cells = par_map2 ns horizons (fun n horizon -> measure ~n ~horizon) in
  let rows =
    List.concat
      (List.map2
         (fun n per_horizon ->
           List.map2
             (fun horizon (events, set, reclaimed, residency, capacity, hw) ->
               [
                 Tables.fi n;
                 Tables.fi horizon;
                 Tables.fi events;
                 Tables.fi set;
                 Tables.fi reclaimed;
                 Tables.fi residency;
                 Tables.fi capacity;
                 Tables.fi hw;
               ])
             horizons per_horizon)
         ns cells)
  in
  Tables.table ppf
    ~headers:
      [ "n"; "horizon"; "events"; "timers set"; "reclaimed"; "residency"; "capacity"; "queue hw" ]
    ~rows;
  Tables.note ppf "Residency and capacity depend on n (in-flight timers), not on the horizon:";
  Tables.note ppf "a 10x longer run sets 10x more timers but occupies the same few slots.";
  Tables.note ppf "The pre-registry engine kept one table entry per cancellation forever."

let e19 ppf =
  Tables.heading ppf "E19"
    "Seed replay: same seed, flipped component-registration order, identical outputs";
  (* Two independent broadcasters over a draw-free synchronous link: flipping
     the order they are installed in permutes every same-instant event (and
     with it every hash table's insertion history) without changing what
     either component does.  With bucket order kept out of them (check rule
     A4), the observable outputs — the sorted Stats.snapshot and the
     Round_metrics tables — must be bit-identical. *)
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
  in
  let run order =
    let engine = Sim.Engine.create ~seed:11 ~n:4 ~link:(Sim.Link.synchronous ~delay:2) () in
    List.iter (fun (name, period) -> install engine ~name ~period) order;
    Sim.Engine.run_until engine 2_000;
    let trace = Sim.Engine.trace engine in
    ( Sim.Stats.snapshot (Sim.Engine.stats engine),
      Spec.Round_metrics.sends_by_round trace ~component:"alpha",
      (Sim.Stats.total (Sim.Engine.stats engine)).Sim.Stats.sent )
  in
  let (snap_ab, rounds_ab, sent_ab), (snap_ba, rounds_ba, sent_ba) =
    match par_map [ [ ("alpha", 5); ("beta", 7) ]; [ ("beta", 7); ("alpha", 5) ] ] run with
    | [ ab; ba ] -> (ab, ba)
    | _ -> assert false
  in
  Tables.table ppf
    ~headers:[ "registration order"; "snapshot entries"; "messages sent" ]
    ~rows:
      [
        [ "alpha, beta"; Tables.fi (List.length snap_ab); Tables.fi sent_ab ];
        [ "beta, alpha"; Tables.fi (List.length snap_ba); Tables.fi sent_ba ];
      ];
  Tables.note ppf "snapshots identical: %b; sends-by-round identical: %b"
    (snap_ab = snap_ba) (rounds_ab = rounds_ba);
  Tables.note ppf "Pre-R2, Stats.snapshot surfaced Hashtbl bucket order and the two runs";
  Tables.note ppf
    "diffed; ecfd check rule A4 (dune build @lint) now rejects such escapes statically."

let all =
  [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17; e18; e19 ]
