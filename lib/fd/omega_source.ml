type params = {
  period : int;
  initial_timeout : int;
  timeout_increment : int;
}

let default_params = { period = 10; initial_timeout = 30; timeout_increment = 20 }

let component = "fd.omega-source"

type Sim.Payload.t += Alive of int array  (** The sender's counter vector. *)

type process_state = {
  counter : int array;  (** Accusation counters, merged pointwise-max. *)
  last_heard : Sim.Sim_time.t array;
  timeout : int array;
  mutable accused : Sim.Pid.Set.t;
}

let install ?(component = component) engine params =
  if params.period <= 0 || params.initial_timeout <= 0 then
    invalid_arg "Omega_source.install: period and initial_timeout must be positive";
  let n = Sim.Engine.n engine in
  let handle = Fd_handle.make engine ~component in
  let states =
    Array.init n (fun _ ->
        {
          counter = Array.make n 0;
          last_heard = Array.make n Sim.Sim_time.zero;
          timeout = Array.make n params.initial_timeout;
          accused = Sim.Pid.Set.empty;
        })
  in
  let everybody = Sim.Pid.set_of_list (Sim.Pid.all ~n) in
  let leader_of st =
    let best = ref 0 in
    for q = 1 to n - 1 do
      if st.counter.(q) < st.counter.(!best) then best := q
    done;
    !best
  in
  let publish p =
    let st = states.(p) in
    let leader = leader_of st in
    let suspected = Sim.Pid.Set.remove leader (Sim.Pid.Set.remove p everybody) in
    Fd_handle.set handle p (Fd_view.make ~trusted:leader ~suspected ())
  in
  let beat p () =
    Sim.Engine.send_to_all_others engine ~component ~tag:"alive" ~src:p
      (Alive (Array.copy states.(p).counter))
  in
  let check p () =
    let st = states.(p) in
    let now = Sim.Engine.now engine in
    let changed = ref false in
    for q = 0 to n - 1 do
      if (not (Sim.Pid.equal q p)) && now - st.last_heard.(q) > st.timeout.(q) then begin
        (* q is late (again): one more accusation, then restart its grace
           period so a dead process is accused about once per time-out,
           not once per tick. *)
        st.counter.(q) <- st.counter.(q) + 1;
        st.accused <- Sim.Pid.Set.add q st.accused;
        st.last_heard.(q) <- now;
        changed := true
      end
    done;
    if !changed then publish p
  in
  let on_message p ~src payload =
    match payload with
    | Alive theirs ->
      let st = states.(p) in
      st.last_heard.(src) <- Sim.Engine.now engine;
      if Sim.Pid.Set.mem src st.accused then begin
        st.accused <- Sim.Pid.Set.remove src st.accused;
        st.timeout.(src) <- st.timeout.(src) + params.timeout_increment
      end;
      let changed = ref false in
      for q = 0 to n - 1 do
        if theirs.(q) > st.counter.(q) then begin
          st.counter.(q) <- theirs.(q);
          changed := true
        end
      done;
      if !changed then publish p
    | _ -> ()
  in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component p (on_message p);
      publish p;
      ignore (Sim.Engine.every engine p ~phase:0 ~period:params.period (beat p) : unit -> unit);
      ignore (Sim.Engine.every engine p ~period:params.period (check p) : unit -> unit))
    (Sim.Pid.all ~n);
  handle
