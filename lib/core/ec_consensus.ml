module Value = Consensus.Value
module Instance = Consensus.Instance

type wait_mode =
  | Extended
  | Strict_majority

type params = {
  wait_mode : wait_mode;
  merge_phase01 : bool;
  max_rounds : int;
}

let default_params = { wait_mode = Extended; merge_phase01 = false; max_rounds = 100_000 }

let component = "consensus.ec"

type Sim.Payload.t +=
  | Coordinator of { round : int }
  | Estimate of { round : int; est : Value.t; ts : int }
  | Null_estimate of { round : int }
  | Proposition of { round : int; est : Value.t }
  | Null_proposition of { round : int }
  | Ack of { round : int }
  | Nack of { round : int }
  | Decide of { round : int; est : Value.t }

type phase =
  | Idle
  | Wait_coordinator  (** Phase 0. *)
  | Wait_proposition  (** Phase 3 (Phase 1's send happens on entry). *)
  | Advancing  (** Between rounds: the entry runs one engine event later. *)
  | Halted

type announcement = { a_from : Sim.Pid.t; a_round : int; mutable handled : bool }

(* The coordinator-side state of one process for one round. *)
type service = {
  mutable active : bool;
  mutable responders : Sim.Pid.Set.t;  (** Senders of estimates or null estimates (+ self). *)
  mutable nonnull : (Sim.Pid.t * Value.t * int) list;  (** Senders of real estimates. *)
  mutable acks : Sim.Pid.Set.t;
  mutable nacks : Sim.Pid.Set.t;
  mutable proposition : Value.t option option;
      (** [None]: Phase 2 not completed; [Some None]: null proposition;
          [Some (Some v)]: proposed v. *)
  mutable decided_sent : bool;  (** The proof's [decidable_p] flag. *)
}

type pstate = {
  mutable round : int;  (** 0 until the first round is entered. *)
  mutable est : Value.t;
  mutable ts : int;
  mutable phase : phase;
  mutable coord : Sim.Pid.t option;  (** My coordinator for the current round. *)
  mutable decided : Instance.decision option;
  mutable rev_announcements : announcement list;
  services : (int, service) Hashtbl.t;
  props : (int, (Sim.Pid.t * Value.t option) list ref) Hashtbl.t;  (** Arrival order, reversed. *)
}

let service_of st r =
  Instance.entry st.services r (fun () ->
      {
        active = false;
        responders = Sim.Pid.Set.empty;
        nonnull = [];
        acks = Sim.Pid.Set.empty;
        nacks = Sim.Pid.Set.empty;
        proposition = None;
        decided_sent = false;
      })

let props_of st r = Instance.entry st.props r (fun () -> ref [])

let install ?(component = component) ?(transport = `Engine) engine ~fd ~rb params =
  let n = Sim.Engine.n engine in
  let majority = (n / 2) + 1 in
  (* All protocol traffic flows through [send_one], so the algorithm runs
     unchanged over plain (reliable) links or over retransmitting stubborn
     channels on fair-lossy ones. *)
  let send_one =
    match transport with
    | `Engine -> fun ~src ~dst ~tag payload -> Sim.Engine.send engine ~component ~tag ~src ~dst payload
    | `Stubborn stubborn ->
      fun ~src ~dst ~tag payload ->
        if Sim.Pid.equal src dst then Sim.Engine.send engine ~component ~tag ~src ~dst payload
        else Broadcast.Stubborn.send stubborn ~src ~dst ~tag payload
  in
  let send_all_others ~src ~tag payload =
    List.iter (fun dst -> send_one ~src ~dst ~tag payload) (Sim.Pid.others ~n src)
  in
  let m_rounds = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"consensus.ec.rounds" in
  let book = Instance.book engine ~component ~who:"Ec_consensus" in
  let states =
    Array.init n (fun _ ->
        {
          round = 0;
          est = Value.null;
          ts = 0;
          phase = Idle;
          coord = None;
          decided = None;
          rev_announcements = [];
          services = Hashtbl.create 16;
          props = Hashtbl.create 16;
        })
  in
  let suspects p q = Sim.Pid.Set.mem q (Fd.Fd_handle.suspected fd p) in
  let decide p ~round ~value =
    let st = states.(p) in
    if st.phase <> Halted then begin
      st.phase <- Halted;
      st.decided <- Some (Instance.decide book p ~round value)
    end
  in

  (* --- Coordinator service (round-indexed, runs alongside participation) --- *)
  let heard_from_every_non_suspected p members =
    List.for_all
      (fun q -> Sim.Pid.equal q p || suspects p q || Sim.Pid.Set.mem q members)
      (Sim.Pid.all ~n)
  in
  let ready_phase2 p sv =
    Sim.Pid.Set.cardinal sv.responders >= majority
    && (match params.wait_mode with
       | Strict_majority -> true
       | Extended -> heard_from_every_non_suspected p sv.responders)
  in
  let ready_phase4 p sv =
    let replies = Sim.Pid.Set.union sv.acks sv.nacks in
    Sim.Pid.Set.cardinal replies >= majority
    && (match params.wait_mode with
       | Strict_majority -> true
       | Extended -> heard_from_every_non_suspected p replies)
  in
  let best_estimate nonnull =
    match nonnull with
    | [] -> invalid_arg "Ec_consensus: empty estimate pool"
    | (_, v0, ts0) :: rest ->
      fst
        (List.fold_left
           (fun (v, ts) (_, v', ts') -> if ts' > ts then (v', ts') else (v, ts))
           (v0, ts0) rest)
  in
  (* Forward declaration: firing a proposition can advance the local
     participant, which needs [step]. *)
  let step_ref = ref (fun (_ : Sim.Pid.t) -> ()) in
  let buffer_prop p ~from r value =
    let st = states.(p) in
    let l = props_of st r in
    l := (from, value) :: !l;
    if st.phase = Wait_proposition && r = st.round then !step_ref p
  in
  let service_step p r =
    let st = states.(p) in
    if st.phase <> Halted then begin
      let sv = service_of st r in
      if sv.active then begin
        if Option.is_none sv.proposition && ready_phase2 p sv then begin
          if List.length sv.nonnull >= majority then begin
            let v = best_estimate sv.nonnull in
            sv.proposition <- Some (Some v);
            send_all_others
              ~tag:(Printf.sprintf "proposition.r%d" r)
              ~src:p
              (Proposition { round = r; est = v });
            buffer_prop p ~from:p r (Some v)
          end
          else begin
            sv.proposition <- Some None;
            if params.merge_phase01 then
              (* Only the processes that chose us are waiting on us; the
                 others hear from their own coordinators.  Late estimates
                 are answered from [proposition] on arrival. *)
              List.iter
                (fun (q, _, _) ->
                  if not (Sim.Pid.equal q p) then
                    send_one
                      ~tag:(Printf.sprintf "null-proposition.r%d" r)
                      ~src:p ~dst:q
                      (Null_proposition { round = r }))
                sv.nonnull
            else
              send_all_others
                ~tag:(Printf.sprintf "null-proposition.r%d" r)
                ~src:p
                (Null_proposition { round = r });
            buffer_prop p ~from:p r None
          end
        end;
        match sv.proposition with
        | Some (Some v) when (not sv.decided_sent) && ready_phase4 p sv ->
          sv.decided_sent <- true;
          if Sim.Pid.Set.cardinal sv.acks >= majority then
            Broadcast.Reliable_broadcast.rbroadcast rb ~src:p ~tag:"decide"
              (Decide { round = r; est = v })
        | Some (Some _) | Some None | None -> ()
      end
    end
  in
  let activate_service p r =
    let st = states.(p) in
    let sv = service_of st r in
    if not sv.active then begin
      sv.active <- true;
      sv.responders <- Sim.Pid.Set.add p sv.responders;
      service_step p r
    end
  in

  (* --- Participant side --- *)
  let advancing p = states.(p).phase = Advancing in
  let rec advance_round p =
    states.(p).phase <- Advancing;
    Instance.defer book p ~advancing next_round
  and next_round p = enter_round p (states.(p).round + 1)
  and enter_round p r =
    let st = states.(p) in
    if not (Instance.enter book ~counter:m_rounds ~max_rounds:params.max_rounds p r) then
      st.phase <- Halted
    else begin
      st.round <- r;
      st.coord <- None;
      st.phase <- Wait_coordinator;
      sweep_announcements p;
      step p
    end
  and become_coordinator p =
    (* Phase 0, own-coordinator branch: announce, then participate like
       everybody else.  The coordinator's own estimate joins its pool
       synchronously — were it a self-send, the Phase 2 wait could complete
       before it arrives (when the majority is small) and propose null for
       no reason. *)
    let st = states.(p) in
    let r = st.round in
    st.coord <- Some p;
    send_all_others
      ~tag:(Printf.sprintf "coordinator.r%d" r)
      ~src:p
      (Coordinator { round = r });
    let sv = service_of st r in
    if Option.is_none sv.proposition then begin
      sv.responders <- Sim.Pid.Set.add p sv.responders;
      sv.nonnull <- (p, st.est, st.ts) :: sv.nonnull
    end;
    activate_service p r;
    st.phase <- Wait_proposition;
    step p
  and adopt_coordinator p c =
    let st = states.(p) in
    st.coord <- Some c;
    send_one
      ~tag:(Printf.sprintf "estimate.r%d" st.round)
      ~src:p ~dst:c
      (Estimate { round = st.round; est = st.est; ts = st.ts });
    st.phase <- Wait_proposition;
    step p
  and merged_entry p =
    (* The Section 5.4 variant: no announcements; the estimate goes to the
       leader, null estimates to everybody else. *)
    let st = states.(p) in
    match Fd.Fd_handle.trusted fd p with
    | None -> ()
    | Some leader ->
      st.coord <- Some leader;
      send_one
        ~tag:(Printf.sprintf "estimate.r%d" st.round)
        ~src:p ~dst:leader
        (Estimate { round = st.round; est = st.est; ts = st.ts });
      List.iter
        (fun q ->
          if not (Sim.Pid.equal q leader) then
            send_one
              ~tag:(Printf.sprintf "null-estimate.r%d" st.round)
              ~src:p ~dst:q
              (Null_estimate { round = st.round }))
        (Sim.Pid.others ~n p);
      st.phase <- Wait_proposition;
      step p
  and sweep_announcements p =
    (* Handle buffered coordinator announcements: adopt one for the current
       round if still in Phase 0, jump on a newer one, answer the rest with
       null estimates (Task 1 of Fig. 4).  Announcements for future rounds
       stay buffered. *)
    let st = states.(p) in
    if not params.merge_phase01 then begin
      let handle_one a =
        if (not a.handled) && st.phase <> Halted && st.phase <> Idle then begin
          if a.a_round > st.round then begin
            if st.phase = Wait_coordinator then begin
              (* Footnote 2: advance to the announced round. *)
              a.handled <- true;
              st.round <- a.a_round;
              st.coord <- None;
              adopt_coordinator p a.a_from
            end
          end
          else if a.a_round = st.round && st.phase = Wait_coordinator && Option.is_none st.coord then begin
            a.handled <- true;
            adopt_coordinator p a.a_from
          end
          else if Option.equal Sim.Pid.equal (Some a.a_from) st.coord && a.a_round = st.round
          then a.handled <- true
          else begin
            a.handled <- true;
            send_one
              ~tag:(Printf.sprintf "null-estimate.r%d" a.a_round)
              ~src:p ~dst:a.a_from
              (Null_estimate { round = a.a_round })
          end
        end
      in
      (* A jump inside the sweep can make previously future announcements
         current; iterate to a fixpoint.  Handled announcements are dropped
         after each pass, so a sweep walks only those still buffered, not
         every announcement ever received. *)
      let rec loop () =
        List.iter handle_one (List.rev st.rev_announcements);
        let pending = List.filter (fun a -> not a.handled) st.rev_announcements in
        let progressed = List.compare_lengths pending st.rev_announcements <> 0 in
        st.rev_announcements <- pending;
        if progressed then loop ()
      in
      loop ()
    end
  and step p =
    let st = states.(p) in
    match st.phase with
    | Idle | Halted | Advancing -> ()
    | Wait_coordinator ->
      if params.merge_phase01 then merged_entry p
      else if Option.equal Sim.Pid.equal (Fd.Fd_handle.trusted fd p) (Some p) then
        become_coordinator p
      else sweep_announcements p
    | Wait_proposition -> begin
      let buffered = List.rev !(props_of st st.round) in
      let nonnull =
        List.find_opt (fun (_, value) -> Option.is_some value) buffered
      in
      match nonnull with
      | Some (from, Some v) ->
        (* Adopt and ACK a non-null proposition from any coordinator,
           including our own service's. *)
        st.est <- v;
        (* Stamped with the round, which counts from 1: an adopted value
           must outrank every initial estimate, whose ts is 0. *)
        st.ts <- st.round;
        send_one
          ~tag:(Printf.sprintf "ack.r%d" st.round)
          ~src:p ~dst:from (Ack { round = st.round });
        advance_round p
      | Some (_, None) | None -> begin
        let null_from_own =
          match st.coord with
          | None -> false
          | Some c -> List.exists (fun (from, value) -> Sim.Pid.equal from c && Option.is_none value) buffered
        in
        if null_from_own then advance_round p
        else
          match st.coord with
          | Some c when suspects p c && not (Sim.Pid.equal c p) ->
            send_one
              ~tag:(Printf.sprintf "nack.r%d" st.round)
              ~src:p ~dst:c (Nack { round = st.round });
            advance_round p
          | Some _ | None -> ()
      end
    end
  in
  step_ref := step;

  (* --- Message handling --- *)
  let on_message p ~src payload =
    let st = states.(p) in
    if st.phase <> Halted then begin
      match payload with
      | Coordinator { round } ->
        st.rev_announcements <- { a_from = src; a_round = round; handled = false }
                                :: st.rev_announcements;
        sweep_announcements p
      | Estimate { round; est; ts } -> begin
        let sv = service_of st round in
        match sv.proposition with
        | None ->
          sv.responders <- Sim.Pid.Set.add src sv.responders;
          sv.nonnull <- (src, est, ts) :: sv.nonnull;
          if not params.merge_phase01 then service_step p round
          else begin
            (* Merged mode: receiving a real estimate is what makes us a
               coordinator for the round. *)
            activate_service p round;
            service_step p round
          end
        | Some answer ->
          (* Late estimate (Phase 2 already over).  A non-null proposition
             was broadcast to everybody, so the sender will see it anyway;
             only a null proposition needs a direct answer — it may have
             been sent to the estimators of record only (merged mode), and
             re-sending it is harmless — so the sender's Phase 3 cannot
             block on us. *)
          if Option.is_none answer && not (Sim.Pid.equal src p) then
            send_one
              ~tag:(Printf.sprintf "null-proposition.r%d" round)
              ~src:p ~dst:src
              (Null_proposition { round })
      end
      | Null_estimate { round } ->
        let sv = service_of st round in
        if Option.is_none sv.proposition then begin
          sv.responders <- Sim.Pid.Set.add src sv.responders;
          service_step p round
        end
      | Proposition { round; est } ->
        if round > st.round then buffer_prop p ~from:src round (Some est)
        else if round = st.round && (st.phase = Wait_proposition || st.phase = Wait_coordinator)
        then buffer_prop p ~from:src round (Some est)
        else if not (Sim.Pid.equal src p) then
          (* Task 2 of Fig. 4: NACK late non-null propositions. *)
          send_one
            ~tag:(Printf.sprintf "nack.r%d" round)
            ~src:p ~dst:src (Nack { round })
      | Null_proposition { round } -> buffer_prop p ~from:src round None
      | Ack { round } ->
        let sv = service_of st round in
        sv.acks <- Sim.Pid.Set.add src sv.acks;
        service_step p round
      | Nack { round } ->
        let sv = service_of st round in
        sv.nacks <- Sim.Pid.Set.add src sv.nacks;
        service_step p round
      | _ -> ()
    end
  in
  List.iter
    (fun p ->
      (* Self-sends always flow through the engine under our component;
         peer messages additionally come in through the stubborn channel
         when that transport is selected. *)
      Sim.Engine.register engine ~component p (on_message p);
      (match transport with
      | `Engine -> ()
      | `Stubborn stubborn -> Broadcast.Stubborn.register stubborn p (on_message p));
      Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin:_ payload ->
          match payload with
          | Decide { round; est } -> decide p ~round ~value:est
          | _ -> ()))
    (Sim.Pid.all ~n);
  Fd.Fd_handle.subscribe fd (fun p _view ->
      if Sim.Engine.is_alive engine p && states.(p).phase <> Idle then begin
        step p;
        (* The extended waits of Phases 2 and 4 also move when a suspicion
           arrives: re-examine every service round still in flight. *)
        let st = states.(p) in
        if st.phase <> Halted then begin
          let rounds = Hashtbl.fold (fun r _ acc -> r :: acc) st.services [] in
          List.iter (fun r -> service_step p r) (List.sort Int.compare rounds)
        end
      end);
  let propose p v =
    Instance.propose book p v;
    let st = states.(p) in
    (* The decision may already have been R-delivered (a late proposer). *)
    if st.phase = Idle then begin
      st.est <- v;
      enter_round p 1
    end
  in
  {
    Instance.phases_per_round = (if params.merge_phase01 then 4 else 5);
    propose;
    decision = (fun p -> states.(p).decided);
  }
