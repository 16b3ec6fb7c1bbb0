let component = "consensus.mr"

(* PH1/PH2 carry Value.null as the ⊥ vote. *)
type Sim.Payload.t +=
  | Est of { round : int; est : Value.t }
  | Ph1 of { round : int; aux : Value.t }
  | Ph2 of { round : int; aux : Value.t }
  | Decide of { round : int; est : Value.t }

type phase =
  | Idle
  | P0  (** Waiting for the leader's estimate of the current round. *)
  | P1  (** Waiting for a quorum of first votes. *)
  | P2  (** Waiting for a quorum of second votes. *)
  | Advancing  (** Between rounds (next entry runs one engine event later). *)
  | Halted

type round_buffers = {
  ests : (Sim.Pid.t, Value.t) Hashtbl.t;
  mutable ph1 : Value.t list;  (** Reverse arrival order. *)
  mutable ph2 : Value.t list;  (** Reverse arrival order. *)
}

type pstate = {
  mutable round : int;  (** 0 until the first round is entered. *)
  mutable est : Value.t;
  mutable phase : phase;
  mutable decided : Instance.decision option;
  mutable max_seen : int;  (** Highest round mentioned by any message. *)
  buffers : (int, round_buffers) Hashtbl.t;
}

let buffers_of st r =
  Instance.entry st.buffers r (fun () -> { ests = Hashtbl.create 8; ph1 = []; ph2 = [] })

let install ?(component = component) ?f engine ~fd ~rb () =
  let n = Sim.Engine.n engine in
  let f = match f with Some f -> f | None -> (n - 1) / 2 in
  if f < 0 || 2 * f >= n then invalid_arg "Mr_consensus.install: need 0 <= f < n/2";
  let quorum = n - f in
  let book = Instance.book engine ~component ~who:"Mr_consensus" in
  let states =
    Array.init n (fun _ ->
        {
          round = 0;
          est = Value.null;
          phase = Idle;
          decided = None;
          max_seen = 0;
          buffers = Hashtbl.create 16;
        })
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
    st.round <- r;
    st.phase <- P0;
    let b = buffers_of st r in
    Hashtbl.replace b.ests p st.est;
    Sim.Engine.send_to_all_others engine ~component
      ~tag:(Printf.sprintf "est.r%d" r)
      ~src:p
      (Est { round = r; est = st.est });
    step p
  and step p =
    let st = states.(p) in
    match st.phase with
    | Idle | Halted -> ()
    | (P0 | P1 | P2 | Advancing) when st.max_seen > st.round ->
      (* Catch up: someone is already in a higher round; join it — even
         between rounds.  (This is also how a late-elected leader reaches
         the frontier.) *)
      enter_round p st.max_seen
    | Advancing -> ()
    | P0 -> begin
      let b = buffers_of st st.round in
      match Fd.Fd_handle.trusted fd p with
      | None -> ()
      | Some leader -> begin
        match Hashtbl.find_opt b.ests leader with
        | None -> ()
        | Some v ->
          st.phase <- P1;
          b.ph1 <- v :: b.ph1;
          Sim.Engine.send_to_all_others engine ~component
            ~tag:(Printf.sprintf "ph1.r%d" st.round)
            ~src:p
            (Ph1 { round = st.round; aux = v });
          step p
      end
    end
    | P1 ->
      let b = buffers_of st st.round in
      if List.length b.ph1 >= quorum then begin
        (* The first [quorum] votes in arrival order — the paper's point is
           that the decision looks at these and nothing else. *)
        let votes = Instance.first_quorum quorum b.ph1 in
        let aux2 =
          match votes with
          | [] -> Value.null
          | v :: rest -> if List.for_all (Value.equal v) rest then v else Value.null
        in
        (* Early adoption: anyone who votes v in Phase 2 must already hold
           v as its estimate, so jumping out of the round is harmless. *)
        if not (Value.is_null aux2) then st.est <- aux2;
        st.phase <- P2;
        b.ph2 <- aux2 :: b.ph2;
        Sim.Engine.send_to_all_others engine ~component
          ~tag:(Printf.sprintf "ph2.r%d" st.round)
          ~src:p
          (Ph2 { round = st.round; aux = aux2 });
        step p
      end
    | P2 ->
      let b = buffers_of st st.round in
      if List.length b.ph2 >= quorum then begin
        let votes = Instance.first_quorum quorum b.ph2 in
        let non_null = List.filter (fun v -> not (Value.is_null v)) votes in
        begin
          match non_null with
          | [] -> ()
          | v :: rest ->
            st.est <- v;
            if List.length non_null = quorum && List.for_all (Value.equal v) rest then begin
              (* Every one of the first n-f votes says v: decide.  A single
                 ⊥ among them blocks this branch — the E6 behaviour. *)
              Broadcast.Reliable_broadcast.rbroadcast rb ~src:p ~tag:"decide"
                (Decide { round = st.round; est = v })
            end
        end;
        advance_round p
      end
  in
  let saw_round p r =
    let st = states.(p) in
    if r > st.max_seen then st.max_seen <- r
  in
  let on_message p ~src payload =
    let st = states.(p) in
    match payload with
    | Est { round; est } ->
      saw_round p round;
      Hashtbl.replace (buffers_of st round).ests src est;
      if st.phase <> Idle && st.phase <> Halted then step p
    | Ph1 { round; aux } ->
      saw_round p round;
      let b = buffers_of st round in
      b.ph1 <- aux :: b.ph1;
      if st.phase <> Idle && st.phase <> Halted then step p
    | Ph2 { round; aux } ->
      saw_round p round;
      let b = buffers_of st round in
      b.ph2 <- aux :: b.ph2;
      if st.phase <> Idle && st.phase <> Halted then step p
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
      if Sim.Engine.is_alive engine p && states.(p).phase = P0 then step p);
  let propose p v =
    Instance.propose book p v;
    let st = states.(p) in
    (* The decision may already have been R-delivered (a late proposer);
       nothing left to do then. *)
    if st.phase = Idle then begin
      st.est <- v;
      enter_round p (Stdlib.max 1 st.max_seen)
    end
  in
  { Instance.phases_per_round = 3; propose; decision = (fun p -> states.(p).decided) }
