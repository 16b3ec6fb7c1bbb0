let component = "consensus.ct"

type Sim.Payload.t +=
  | Estimate of { round : int; est : Value.t; ts : int }
  | Propose of { round : int; est : Value.t }
  | Ack of { round : int }
  | Nack of { round : int }
  | Decide of { round : int; est : Value.t }

type phase =
  | Idle  (** Before propose. *)
  | Coord_wait_estimates  (** Phase 2: gathering a majority of estimates. *)
  | Wait_proposal  (** Phase 3: waiting for the coordinator's proposal. *)
  | Coord_wait_replies  (** Phase 4: gathering a majority of ACK/NACK. *)
  | Advancing  (** Between rounds (next entry runs one engine event later). *)
  | Halted

type replies = { mutable acks : int; mutable nacks : int }

type pstate = {
  mutable round : int;  (** 0 until the first round is entered. *)
  mutable est : Value.t;
  mutable ts : int;
  mutable phase : phase;
  mutable decided : Instance.decision option;
  estimates : (int, (Value.t * int) list ref) Hashtbl.t;
  proposals : (int, Value.t) Hashtbl.t;
  replies : (int, replies) Hashtbl.t;
}

let estimates_of st r = Instance.entry st.estimates r (fun () -> ref [])
let replies_of st r = Instance.entry st.replies r (fun () -> { acks = 0; nacks = 0 })

let install ?(component = component) ?(max_rounds = 100_000) engine ~fd ~rb () =
  let n = Sim.Engine.n engine in
  let majority = (n / 2) + 1 in
  let m_rounds = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"consensus.ct.rounds" in
  let book = Instance.book engine ~component ~who:"Ct_consensus" in
  let states =
    Array.init n (fun _ ->
        {
          round = 0;
          est = Value.null;
          ts = 0;
          phase = Idle;
          decided = None;
          estimates = Hashtbl.create 16;
          proposals = Hashtbl.create 16;
          replies = Hashtbl.create 16;
        })
  in
  let coordinator r = (r - 1) mod n in
  let best_estimate received =
    (* An estimate with the largest timestamp (Phase 2). *)
    match received with
    | [] -> invalid_arg "Ct_consensus: no estimate to choose from"
    | (v0, ts0) :: rest ->
      fst (List.fold_left (fun (v, ts) (v', ts') -> if ts' > ts then (v', ts') else (v, ts))
             (v0, ts0) rest)
  in
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
      let c = coordinator r in
      if Sim.Pid.equal c p then begin
        (* Phase 1, self: the coordinator's own estimate joins the pool
           directly (a self-send in the paper's formulation). *)
        let pool = estimates_of st st.round in
        pool := (st.est, st.ts) :: !pool;
        st.phase <- Coord_wait_estimates
      end
      else begin
        Sim.Engine.send engine ~component
          ~tag:(Printf.sprintf "estimate.r%d" st.round)
          ~src:p ~dst:c
          (Estimate { round = st.round; est = st.est; ts = st.ts });
        st.phase <- Wait_proposal
      end;
      step p
    end
  and step p =
    let st = states.(p) in
    match st.phase with
    | Idle | Halted | Advancing -> ()
    | Coord_wait_estimates ->
      let pool = !(estimates_of st st.round) in
      if List.length pool >= majority then begin
        let v = best_estimate pool in
        st.est <- v;
        Sim.Engine.send_to_all_others engine ~component
          ~tag:(Printf.sprintf "propose.r%d" st.round)
          ~src:p
          (Propose { round = st.round; est = v });
        (* The coordinator is also a participant: it adopts its own proposal
           and ACKs it (locally). *)
        st.ts <- st.round;
        let c = replies_of st st.round in
        c.acks <- c.acks + 1;
        st.phase <- Coord_wait_replies;
        step p
      end
    | Wait_proposal -> begin
      let c = coordinator st.round in
      match Hashtbl.find_opt st.proposals st.round with
      | Some v ->
        st.est <- v;
        st.ts <- st.round;
        Sim.Engine.send engine ~component
          ~tag:(Printf.sprintf "ack.r%d" st.round)
          ~src:p ~dst:c (Ack { round = st.round });
        advance_round p
      | None ->
        if Sim.Pid.Set.mem c (Fd.Fd_handle.suspected fd p) then begin
          Sim.Engine.send engine ~component
            ~tag:(Printf.sprintf "nack.r%d" st.round)
            ~src:p ~dst:c (Nack { round = st.round });
          advance_round p
        end
    end
    | Coord_wait_replies ->
      let c = replies_of st st.round in
      if c.acks + c.nacks >= majority then begin
        (* Chandra–Toueg: look only at the first majority of replies; one
           NACK among them kills the round (contrast with ◇C, exp. E6). *)
        if c.nacks = 0 then
          Broadcast.Reliable_broadcast.rbroadcast rb ~src:p ~tag:"decide"
            (Decide { round = st.round; est = st.est });
        advance_round p
      end
  in
  let on_message p ~src:_ payload =
    let st = states.(p) in
    match payload with
    | Estimate { round; est; ts } ->
      let pool = estimates_of st round in
      pool := (est, ts) :: !pool;
      if st.phase = Coord_wait_estimates && round = st.round then step p
    | Propose { round; est } ->
      if not (Hashtbl.mem st.proposals round) then Hashtbl.replace st.proposals round est;
      if st.phase = Wait_proposal && round = st.round then step p
    | Ack { round } ->
      let c = replies_of st round in
      c.acks <- c.acks + 1;
      if st.phase = Coord_wait_replies && round = st.round then step p
    | Nack { round } ->
      let c = replies_of st round in
      c.nacks <- c.nacks + 1;
      if st.phase = Coord_wait_replies && round = st.round then step p
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
      if Sim.Engine.is_alive engine p && states.(p).phase = Wait_proposal then step p);
  let propose p v =
    Instance.propose book p v;
    let st = states.(p) in
    (* The decision may already have been R-delivered (a late proposer). *)
    if st.phase = Idle then begin
      st.est <- v;
      advance_round p
    end
  in
  { Instance.phases_per_round = 4; propose; decision = (fun p -> states.(p).decided) }
