type net = {
  seed : int;
  gst : int;
  delta : int;
  min_delay : int;
  pre_gst_max : int;
}

let default_net = { seed = 1; gst = 0; delta = 8; min_delay = 1; pre_gst_max = 160 }

let chaotic_net ?(seed = 1) ~gst () =
  { seed; gst; delta = 8; min_delay = 1; pre_gst_max = 160 }

let engine ?(net = default_net) ~n () =
  let link =
    Sim.Link.partially_synchronous ~min_delay:net.min_delay ~pre_gst_max:net.pre_gst_max
      ~gst:net.gst ~delta:net.delta ()
  in
  Sim.Engine.create ~seed:net.seed ~n ~link ()

type detector =
  | Heartbeat_p
  | Ring_s
  | Ring_w
  | Leader_s
  | Stable_omega
  | Ec_from_leader
  | Ec_from_stable
  | Ec_from_ring
  | Ec_from_omega_chu
  | Ec_from_heartbeat
  | Ec_from_perfect of Sim.Fault.t
  | Scripted_stable of Sim.Pid.t

let detector_name = function
  | Heartbeat_p -> "heartbeat-p"
  | Ring_s -> "ring-s"
  | Ring_w -> "ring-w"
  | Leader_s -> "leader-s"
  | Stable_omega -> "stable-omega"
  | Ec_from_leader -> "ec-from-leader"
  | Ec_from_stable -> "ec-from-stable"
  | Ec_from_ring -> "ec-from-ring"
  | Ec_from_omega_chu -> "ec-from-omega-chu"
  | Ec_from_heartbeat -> "ec-from-heartbeat"
  | Ec_from_perfect _ -> "ec-from-perfect"
  | Scripted_stable p -> "scripted-stable-" ^ Sim.Pid.to_string p

let install_detector engine detector =
  match detector with
  | Heartbeat_p -> Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params
  | Ring_s -> Fd.Ring_s.install engine Fd.Ring_s.default_params
  | Ring_w -> Fd.Ring_s.install engine { Fd.Ring_s.default_params with propagate = false }
  | Leader_s -> Fd.Leader_s.install engine Fd.Leader_s.default_params
  | Stable_omega -> Fd.Stable_omega.install engine Fd.Stable_omega.default_params
  | Ec_from_stable ->
    let base = Fd.Stable_omega.install engine Fd.Stable_omega.default_params in
    Ecfd.Ec.of_leader_s base ~engine
  | Ec_from_leader ->
    let base = Fd.Leader_s.install engine Fd.Leader_s.default_params in
    Ecfd.Ec.of_leader_s base ~engine
  | Ec_from_ring ->
    let base = Fd.Ring_s.install engine Fd.Ring_s.default_params in
    Ecfd.Ec.of_ring base ~engine
  | Ec_from_omega_chu ->
    let base = Fd.Ring_s.install engine Fd.Ring_s.default_params in
    let omega = Fd.Omega_from_s.install engine ~underlying:base Fd.Omega_from_s.default_params in
    Ecfd.Ec.of_omega omega ~engine
  | Ec_from_heartbeat ->
    let base = Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params in
    Ecfd.Ec.of_perfect base ~engine
  | Ec_from_perfect schedule ->
    let base = Fd.Oracle_p.install engine ~schedule Fd.Oracle_p.default_params in
    Ecfd.Ec.of_perfect base ~engine
  | Scripted_stable leader ->
    let n = Sim.Engine.n engine in
    Fd.Scripted.install engine ~initial:(Fd.Scripted.stable ~leader ~n) ~steps:[] ()

type protocol =
  | Ct
  | Mr
  | Hr
  | Ec of Ecfd.Ec_consensus.params

let protocol_name = function
  | Ct -> "ct"
  | Mr -> "mr"
  | Hr -> "hr"
  | Ec params ->
    let base = if params.Ecfd.Ec_consensus.merge_phase01 then "ec-merged" else "ec" in
    (match params.Ecfd.Ec_consensus.wait_mode with
    | Ecfd.Ec_consensus.Extended -> base
    | Ecfd.Ec_consensus.Strict_majority -> base ^ "-strict")

let protocol_component = function
  | Ec _ -> Ecfd.Ec_consensus.component
  | Ct -> Consensus.Ct_consensus.component
  | Mr -> Consensus.Mr_consensus.component
  | Hr -> Consensus.Hr_consensus.component

type consensus_run = {
  engine : Sim.Engine.t;
  fd : Fd.Fd_handle.t;
  instance : Consensus.Instance.t;
  trace : Sim.Trace.t;
}

let run_consensus ?(net = default_net) ?(crashes = Sim.Fault.none) ?proposals ?propose_at
    ?(horizon = 5000) ~n ~detector ~protocol () =
  let eng = engine ~net ~n () in
  Sim.Fault.apply eng crashes;
  let fd = install_detector eng detector in
  let rb = Broadcast.Reliable_broadcast.create eng in
  let instance =
    match protocol with
    | Ct -> Consensus.Ct_consensus.install eng ~fd ~rb ()
    | Mr -> Consensus.Mr_consensus.install eng ~fd ~rb ()
    | Hr -> Consensus.Hr_consensus.install eng ~fd ~rb ()
    | Ec params -> Ecfd.Ec_consensus.install eng ~fd ~rb params
  in
  let value_of = match proposals with Some f -> f | None -> fun p -> 100 + p in
  let time_of = match propose_at with Some f -> f | None -> fun _ -> 0 in
  List.iter
    (fun p ->
      Sim.Engine.at eng (time_of p) (fun () ->
          if Sim.Engine.is_alive eng p then instance.Consensus.Instance.propose p (value_of p)))
    (Sim.Pid.all ~n);
  Sim.Engine.run_until eng horizon;
  { engine = eng; fd; instance; trace = Sim.Engine.trace eng }

let fd_run ?(net = default_net) ?(crashes = Sim.Fault.none) ?(horizon = 5000) ~n ~detector () =
  let eng = engine ~net ~n () in
  Sim.Fault.apply eng crashes;
  let fd = install_detector eng detector in
  Sim.Engine.run_until eng horizon;
  let run =
    Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component fd) ~n (Sim.Engine.trace eng)
  in
  (fd, run, Sim.Engine.stats eng)
