type growth =
  | Additive of int
  | Doubling

type params = {
  list_period : int;
  alive_period : int;
  initial_timeout : int;
  growth : growth;
}

let default_params =
  { list_period = 10; alive_period = 10; initial_timeout = 30; growth = Additive 20 }

let component = "ec-to-p"

type Sim.Payload.t +=
  | I_am_alive
  | Suspect_list of Sim.Pid.Set.t

type process_state = {
  mutable local_suspects : Sim.Pid.Set.t;  (** Built by Tasks 3/4 while leader. *)
  (* Per peer: last I-AM-ALIVE and adaptive time-out.  Both are empty
     until the process first leads or first receives I-AM-ALIVE
     ([ensure_tables]): in a stable run only the leader pays for them. *)
  mutable last_alive : Sim.Sim_time.t array;
  mutable timeout : int array;
  mutable was_leader : bool;
  mutable epoch_span : Sim.Engine.span option;  (** Open while this process leads. *)
}

(* Shared by the stand-alone and piggybacked variants; they differ only in
   how Task 1 ships the list and how Task 5 receives it. *)
let install_gen ~component ~task1 ~wire_task5 engine ~underlying params =
  if params.alive_period <= 0 || params.initial_timeout <= 0 then
    invalid_arg "Ec_to_p.install: periods and initial_timeout must be positive";
  let n = Sim.Engine.n engine in
  let handle = Fd.Fd_handle.make engine ~component in
  let m_epochs = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"ec_to_p.leader_epochs" in
  let m_suspicions = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"ec_to_p.suspicions" in
  let states =
    Array.init n (fun _ ->
        {
          local_suspects = Sim.Pid.Set.empty;
          last_alive = [||];
          timeout = [||];
          was_leader = false;
          epoch_span = None;
        })
  in
  let ensure_tables st =
    if Array.length st.timeout = 0 then begin
      st.last_alive <- Array.make n Sim.Sim_time.zero;
      st.timeout <- Array.make n params.initial_timeout
    end
  in
  let is_leader p = Option.equal Sim.Pid.equal (Fd.Fd_handle.trusted underlying p) (Some p) in
  let grow st q =
    match params.growth with
    | Additive k -> st.timeout.(q) <- st.timeout.(q) + k
    | Doubling -> st.timeout.(q) <- 2 * st.timeout.(q)
  in
  let publish_own p =
    (* A leader adopts its own list (and never suspects itself). *)
    Fd.Fd_handle.set handle p (Fd.Fd_view.make ~suspected:states.(p).local_suspects ())
  in
  (* Task 2: I-AM-ALIVE to my trusted process. *)
  let task2 p () =
    match Fd.Fd_handle.trusted underlying p with
    | Some leader when not (Sim.Pid.equal leader p) ->
      Sim.Engine.send engine ~component ~tag:"i-am-alive" ~src:p ~dst:leader I_am_alive
    | Some _ | None -> ()
  in
  (* Task 3: while leader, suspect overdue processes.  On the transition
     into leadership, restart every peer's grace period: we received no
     I-AM-ALIVE while we were not the leader, so older deadlines are
     meaningless. *)
  let task3 p () =
    let st = states.(p) in
    let leading = is_leader p in
    if leading && not st.was_leader then begin
      (* Transition into leadership: restart every peer's grace period, and
         export our own local list — the exported view may still be a list
         adopted from the previous leader. *)
      ensure_tables st;
      Array.fill st.last_alive 0 n (Sim.Engine.now engine);
      Obs.Registry.incr m_epochs;
      st.epoch_span <- Some (Sim.Engine.begin_span engine p ~component ~name:"leader-epoch");
      publish_own p
    end;
    if (not leading) && st.was_leader then begin
      match st.epoch_span with
      | Some s ->
        Sim.Engine.end_span engine s;
        st.epoch_span <- None
      | None -> ()
    end;
    st.was_leader <- leading;
    if leading then begin
      let now = Sim.Engine.now engine in
      let changed = ref false in
      for q = 0 to n - 1 do
        if
          (not (Sim.Pid.equal q p))
          && (not (Sim.Pid.Set.mem q st.local_suspects))
          && now - st.last_alive.(q) > st.timeout.(q)
        then begin
          st.local_suspects <- Sim.Pid.Set.add q st.local_suspects;
          Obs.Registry.incr m_suspicions;
          changed := true
        end
      done;
      if !changed then publish_own p
    end
  in
  (* Task 4: an I-AM-ALIVE from a suspected process rescinds the suspicion
     and grows its time-out. *)
  let task4 p ~src =
    let st = states.(p) in
    ensure_tables st;
    st.last_alive.(src) <- Sim.Engine.now engine;
    if Sim.Pid.Set.mem src st.local_suspects then begin
      st.local_suspects <- Sim.Pid.Set.remove src st.local_suspects;
      grow st src;
      if is_leader p then publish_own p
    end
  in
  (* Task 5: adopt the list sent by my trusted process. *)
  let task5 p ~src list =
    match Fd.Fd_handle.trusted underlying p with
    | Some leader when Sim.Pid.equal leader src && not (Sim.Pid.equal p src) ->
      Fd.Fd_handle.set handle p (Fd.Fd_view.make ~suspected:(Sim.Pid.Set.remove p list) ())
    | Some _ | None -> ()
  in
  let on_message p ~src payload =
    match payload with
    | I_am_alive -> task4 p ~src
    | Suspect_list list -> task5 p ~src list
    | _ -> ()
  in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component p (on_message p);
      ignore
        (Sim.Engine.every engine p ~phase:0 ~period:params.alive_period (task2 p) : unit -> unit);
      ignore (Sim.Engine.every engine p ~period:params.alive_period (task3 p) : unit -> unit);
      task1 ~states ~publish_own p)
    (Sim.Pid.all ~n);
  wire_task5 ~task5;
  handle

let install ?(component = component) engine ~underlying params =
  let is_leader p = Option.equal Sim.Pid.equal (Fd.Fd_handle.trusted underlying p) (Some p) in
  let task1 ~states ~publish_own:_ p =
    let send_list () =
      if is_leader p then
        Sim.Engine.send_to_all_others engine ~component ~tag:"suspect-list" ~src:p
          (Suspect_list states.(p).local_suspects)
    in
    ignore (Sim.Engine.every engine p ~phase:0 ~period:params.list_period send_list : unit -> unit)
  in
  install_gen ~component ~task1 ~wire_task5:(fun ~task5:_ -> ()) engine ~underlying params

let install_piggybacked ?(component = component) engine ~hooks ~underlying params =
  let states_ref = ref [||] in
  let task1 ~states ~publish_own:_ _p = states_ref := states in
  let handle =
    install_gen ~component ~task1
      ~wire_task5:(fun ~task5 ->
        hooks.Fd.Leader_s.on_annotation <-
          (fun ~recipient ~src payload ->
            match payload with
            | Suspect_list list -> task5 recipient ~src list
            | _ -> ()))
      engine ~underlying params
  in
  hooks.Fd.Leader_s.annotate <-
    (fun p ->
      match !states_ref with
      | [||] -> None
      | states -> Some (Suspect_list states.(p).local_suspects));
  handle

let links ?(seed_delay = 1) ~n:_ ~leader ~gst ~delta ~drop_probability () =
  let into_leader =
    Sim.Link.partially_synchronous ~min_delay:seed_delay ~gst ~delta ()
  in
  let base = Sim.Link.reliable ~min_delay:seed_delay ~max_delay:(Stdlib.max seed_delay delta) () in
  let out_of_leader = Sim.Link.fair_lossy ~drop_probability ~underlying:base in
  Sim.Link.route
    ~describe:
      (Printf.sprintf "fig2[leader=%s gst=%d delta=%d p=%.2f]" (Sim.Pid.to_string leader) gst
         delta drop_probability)
    (fun ~src ~dst ->
      if Sim.Pid.equal dst leader then into_leader
      else if Sim.Pid.equal src leader then out_of_leader
      else base)
