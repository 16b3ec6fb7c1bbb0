let component = "consensus.hr"

(* Votes carry Value.null as ⊥. *)
type Sim.Payload.t +=
  | Current of { round : int; est : Value.t }
  | Vote of { round : int; aux : Value.t }
  | Decide of { round : int; est : Value.t }

type phase =
  | Idle
  | Wait_current  (** Step 1: coordinator value or suspicion. *)
  | Wait_votes  (** Step 2: quorum of votes. *)
  | Advancing  (** Between rounds (next entry runs one engine event later). *)
  | Halted

type round_buffers = {
  mutable current : Value.t option;  (** The coordinator's value, if seen. *)
  mutable votes : Value.t list;  (** Reverse arrival order. *)
}

type pstate = {
  mutable round : int;  (** 0 until the first round is entered. *)
  mutable est : Value.t;
  mutable phase : phase;
  mutable decided : Instance.decision option;
  buffers : (int, round_buffers) Hashtbl.t;
}

let buffers_of st r = Instance.entry st.buffers r (fun () -> { current = None; votes = [] })

let install ?(component = component) ?(max_rounds = 100_000) engine ~fd ~rb () =
  let n = Sim.Engine.n engine in
  (* n - f for the fixed fault bound f = ⌈n/2⌉-1: a majority. *)
  let quorum = (n / 2) + 1 in
  let m_rounds = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"consensus.hr.rounds" in
  let book = Instance.book engine ~component ~who:"Hr_consensus" in
  let states =
    Array.init n (fun _ ->
        { round = 0; est = Value.null; phase = Idle; decided = None; buffers = Hashtbl.create 16 })
  in
  let coordinator r = (r - 1) mod n in
  let decide p ~round ~value =
    let st = states.(p) in
    if st.phase <> Halted then begin
      st.phase <- Halted;
      st.decided <- Some (Instance.decide book p ~round value)
    end
  in
  let advancing p = states.(p).phase = Advancing in
  let rec advance_round p =
    states.(p).phase <- Advancing;
    Instance.defer book p ~advancing next_round
  and next_round p = enter_round p (states.(p).round + 1)
  and enter_round p r =
    let st = states.(p) in
    if not (Instance.enter book ~counter:m_rounds ~max_rounds p r) then st.phase <- Halted
    else begin
      st.round <- r;
      st.phase <- Wait_current;
      if Sim.Pid.equal (coordinator r) p then begin
        (* Step 1: the coordinator announces its estimate (everybody,
           itself included via the local copy). *)
        (buffers_of st r).current <- Some st.est;
        Sim.Engine.send_to_all_others engine ~component
          ~tag:(Printf.sprintf "current.r%d" r)
          ~src:p
          (Current { round = r; est = st.est })
      end;
      step p
    end
  and cast_vote p aux =
    let st = states.(p) in
    let b = buffers_of st st.round in
    st.phase <- Wait_votes;
    b.votes <- aux :: b.votes;
    Sim.Engine.send_to_all_others engine ~component
      ~tag:(Printf.sprintf "vote.r%d" st.round)
      ~src:p
      (Vote { round = st.round; aux });
    step p
  and step p =
    let st = states.(p) in
    match st.phase with
    | Idle | Halted | Advancing -> ()
    | Wait_current -> begin
      let b = buffers_of st st.round in
      match b.current with
      | Some v -> cast_vote p v
      | None ->
        if Sim.Pid.Set.mem (coordinator st.round) (Fd.Fd_handle.suspected fd p) then
          cast_vote p Value.null
    end
    | Wait_votes ->
      let b = buffers_of st st.round in
      if List.length b.votes >= quorum then begin
        let votes = Instance.first_quorum quorum b.votes in
        let non_null = List.filter (fun v -> not (Value.is_null v)) votes in
        begin
          match non_null with
          | [] -> ()
          | v :: _ ->
            (* Only the coordinator's value circulates in a round, so all
               non-⊥ votes agree; adopt, and decide on an all-v quorum. *)
            st.est <- v;
            if List.length non_null = quorum then
              Broadcast.Reliable_broadcast.rbroadcast rb ~src:p ~tag:"decide"
                (Decide { round = st.round; est = v })
        end;
        advance_round p
      end
  in
  let on_message p ~src:_ payload =
    let st = states.(p) in
    match payload with
    | Current { round; est } ->
      let b = buffers_of st round in
      if Option.is_none b.current then b.current <- Some est;
      if st.phase = Wait_current && round = st.round then step p
    | Vote { round; aux } ->
      let b = buffers_of st round in
      b.votes <- aux :: b.votes;
      if st.phase = Wait_votes && round = st.round then step p
    | _ -> ()
  in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component p (on_message p);
      Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin:_ payload ->
          match payload with
          | Decide { round; est } -> decide p ~round ~value:est
          | _ -> ()))
    (Sim.Pid.all ~n);
  Fd.Fd_handle.subscribe fd (fun p _view ->
      if Sim.Engine.is_alive engine p && states.(p).phase = Wait_current then step p);
  let propose p v =
    Instance.propose book p v;
    let st = states.(p) in
    if st.phase = Idle then begin
      st.est <- v;
      enter_round p 1
    end
  in
  { Instance.phases_per_round = 2; propose; decision = (fun p -> states.(p).decided) }
