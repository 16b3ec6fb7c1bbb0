type params = {
  period : int;
  initial_timeout : int;
  timeout_increment : int;
}

let default_params = { period = 10; initial_timeout = 30; timeout_increment = 20 }

let component = "fd.leader-s"

type Sim.Payload.t += Leader_alive of Sim.Payload.t option

type hooks = {
  mutable annotate : Sim.Pid.t -> Sim.Payload.t option;
  mutable on_annotation : recipient:Sim.Pid.t -> src:Sim.Pid.t -> Sim.Payload.t -> unit;
}

let make_hooks () =
  { annotate = (fun _ -> None); on_annotation = (fun ~recipient:_ ~src:_ _ -> ()) }

type process_state = {
  mutable candidate : Sim.Pid.t;
  mutable candidate_since : Sim.Sim_time.t;  (** When we (re)adopted it. *)
  mutable last_heard : Sim.Sim_time.t;  (** Last heartbeat from the candidate. *)
  mutable timeout : int array;
      (** Per peer: adaptive time-out.  Empty until the first increment,
          and read as [initial_timeout] while it is. *)
  mutable epoch_span : Sim.Engine.span option;  (** Open while trusting the current candidate. *)
}

let install ?(component = component) ?hooks engine params =
  if params.period <= 0 || params.initial_timeout <= 0 then
    invalid_arg "Leader_s.install: period and initial_timeout must be positive";
  let hooks = match hooks with Some h -> h | None -> make_hooks () in
  let n = Sim.Engine.n engine in
  let handle = Fd_handle.make engine ~component in
  let m_adoptions =
    Obs.Registry.counter (Sim.Engine.obs engine) ~name:"fd.leader_s.adoptions"
  in
  let states =
    Array.init n (fun _ ->
        {
          candidate = 0;
          candidate_since = Sim.Sim_time.zero;
          last_heard = Sim.Sim_time.zero;
          timeout = [||];
          epoch_span = None;
        })
  in
  let timeout_of st q =
    if Array.length st.timeout = 0 then params.initial_timeout else st.timeout.(q)
  in
  let everybody = Sim.Pid.set_of_list (Sim.Pid.all ~n) in
  let publish p =
    let st = states.(p) in
    let suspected = Sim.Pid.Set.remove st.candidate (Sim.Pid.Set.remove p everybody) in
    Fd_handle.set handle p (Fd_view.make ~trusted:st.candidate ~suspected ())
  in
  let adopt p q =
    let st = states.(p) in
    Obs.Registry.incr m_adoptions;
    if not (Sim.Pid.equal st.candidate q) then begin
      (* A candidate change ends the old trust epoch and opens a new one. *)
      (match st.epoch_span with
      | Some s -> Sim.Engine.end_span engine s
      | None -> ());
      st.epoch_span <- Some (Sim.Engine.begin_span engine p ~component ~name:"candidate-epoch")
    end;
    st.candidate <- q;
    st.candidate_since <- Sim.Engine.now engine;
    st.last_heard <- Sim.Engine.now engine;
    publish p
  in
  let check p () =
    let st = states.(p) in
    if not (Sim.Pid.equal st.candidate p) then begin
      let now = Sim.Engine.now engine in
      let start = Sim.Sim_time.max st.candidate_since st.last_heard in
      if now - start > timeout_of st st.candidate then begin
        (* The candidate looks dead: discard it and move to the next process
           in the total order.  A process never discards itself, so the walk
           stops at p: reaching p means "I am the leader".  (Invariant:
           candidate <= p, because adoption on message only moves down.) *)
        adopt p (Int.min (st.candidate + 1) p)
      end
    end
  in
  let on_message p ~src payload =
    match payload with
    | Leader_alive annotation ->
      Option.iter (fun body -> hooks.on_annotation ~recipient:p ~src body) annotation;
      let st = states.(p) in
      if Sim.Pid.equal src st.candidate then st.last_heard <- Sim.Engine.now engine
      else if Sim.Pid.compare src st.candidate < 0 then begin
        (* A smaller process is alive after all: re-adopt it with a larger
           time-out so repeated mistakes die out (eventual weak accuracy). *)
        if Array.length st.timeout = 0 then st.timeout <- Array.make n params.initial_timeout;
        st.timeout.(src) <- st.timeout.(src) + params.timeout_increment;
        adopt p src
      end
      (* Heartbeats from processes above the candidate are ignored: the
         order-based rule only ever trusts the smallest live-looking one. *)
    | _ -> ()
  in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component p (on_message p);
      publish p;
      let beat () =
        if Sim.Pid.equal states.(p).candidate p then
          Sim.Engine.send_to_all_others engine ~component ~tag:"leader-alive" ~src:p
            (Leader_alive (hooks.annotate p))
      in
      ignore (Sim.Engine.every engine p ~phase:0 ~period:params.period beat : unit -> unit);
      ignore (Sim.Engine.every engine p ~period:params.period (check p) : unit -> unit))
    (Sim.Pid.all ~n);
  handle
