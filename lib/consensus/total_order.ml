type message = {
  origin : Sim.Pid.t;
  seq : int;
  body : int;
}

let pp_message ppf m =
  Format.fprintf ppf "%a#%d=%d" Sim.Pid.pp m.origin m.seq m.body

(* Message identity, used as the consensus value for a slot: ids grow with
   the sequence number first, so older messages are smaller and the
   propose-the-minimum rule is fair (no origin can starve another). *)
let id_of ~n m = (m.seq * n) + m.origin

type Sim.Payload.t += Data of message

type process_state = {
  mutable pending : Sim.Pid.Set.t;  (** Ids R-delivered but not TO-delivered. *)
  bodies : (int, message) Hashtbl.t;  (** id -> message, once R-delivered. *)
  mutable delivered_ids : Sim.Pid.Set.t;
  mutable rev_log : message list;
  mutable next_slot : int;  (** First slot not yet consumed. *)
  proposed : bool array;  (** Per slot: did we propose already? *)
  mutable next_seq : int;
  mutable rev_subscribers : (message -> unit) list;
}

type t = {
  engine : Sim.Engine.t;
  n : int;
  max_slots : int;
  instances : Instance.t array;
  states : process_state array;
  mutable rb : Broadcast.Reliable_broadcast.t option;
      (** The dissemination channel; set once in [create]. *)
}

let default_component = "total-order"

let deliver t p m =
  let st = t.states.(p) in
  st.rev_log <- m :: st.rev_log;
  List.iter (fun f -> f m) (List.rev st.rev_subscribers)

(* Consume decided slots in order.  A decided id waits for its payload
   (reliable broadcast guarantees it arrives at every correct process);
   duplicate decisions — a message winning a slot after it was already
   delivered — are skipped. *)
let rec consume_slots t p =
  let st = t.states.(p) in
  if st.next_slot < t.max_slots then begin
    match t.instances.(st.next_slot).Instance.decision p with
    | None -> ()
    | Some d -> (
      let id = d.Instance.value in
      if Sim.Pid.Set.mem id st.delivered_ids then begin
        st.next_slot <- st.next_slot + 1;
        consume_slots t p
      end
      else
        match Hashtbl.find_opt st.bodies id with
        | None -> ()  (* hold back until the payload arrives *)
        | Some m ->
          st.delivered_ids <- Sim.Pid.Set.add id st.delivered_ids;
          st.pending <- Sim.Pid.Set.remove id st.pending;
          st.next_slot <- st.next_slot + 1;
          deliver t p m;
          consume_slots t p)
  end

(* Propose the oldest pending message to the first locally-undecided slot
   (one proposal per slot per process; losers stay pending). *)
let maybe_propose t p =
  let st = t.states.(p) in
  let rec first_undecided k =
    if k >= t.max_slots then None
    else if t.instances.(k).Instance.decision p = None then Some k
    else first_undecided (k + 1)
  in
  match first_undecided st.next_slot with
  | None -> ()
  | Some k ->
    if not st.proposed.(k) then begin
      let candidates = Sim.Pid.Set.diff st.pending st.delivered_ids in
      match Sim.Pid.Set.min_elt_opt candidates with
      | None -> ()
      | Some id ->
        st.proposed.(k) <- true;
        t.instances.(k).Instance.propose p id
    end

let tick t p () =
  consume_slots t p;
  maybe_propose t p

let create ?(component = default_component) ?(max_slots = 64) ?(poll_period = 2) engine
    ~make_instance () =
  if max_slots <= 0 || poll_period <= 0 then
    invalid_arg "Total_order.create: max_slots and poll_period must be positive";
  let n = Sim.Engine.n engine in
  let instances = Array.init max_slots (fun slot -> make_instance ~slot) in
  let states =
    Array.init n (fun _ ->
        {
          pending = Sim.Pid.Set.empty;
          bodies = Hashtbl.create 32;
          delivered_ids = Sim.Pid.Set.empty;
          rev_log = [];
          next_slot = 0;
          proposed = Array.make max_slots false;
          next_seq = 0;
          rev_subscribers = [];
        })
  in
  let t = { engine; n; max_slots; instances; states; rb = None } in
  (* Dissemination channel: reliable broadcast of the message payloads. *)
  let rb = Broadcast.Reliable_broadcast.create ~component:(component ^ ".data") engine in
  t.rb <- Some rb;
  List.iter
    (fun p ->
      Broadcast.Reliable_broadcast.subscribe rb p (fun ~origin:_ payload ->
          match payload with
          | Data m ->
            let st = states.(p) in
            let id = id_of ~n m in
            Hashtbl.replace st.bodies id m;
            if not (Sim.Pid.Set.mem id st.delivered_ids) then
              st.pending <- Sim.Pid.Set.add id st.pending;
            tick t p ()
          | _ -> ());
      ignore (Sim.Engine.every engine p ~phase:poll_period ~period:poll_period (tick t p)
               : unit -> unit))
    (Sim.Pid.all ~n);
  t

let broadcast t ~src ~body =
  if body < 0 then invalid_arg "Total_order.broadcast: body must be non-negative";
  match t.rb with
  | None -> assert false
  | Some _ when not (Sim.Engine.is_alive t.engine src) -> ()
  | Some rb ->
    let st = t.states.(src) in
    let m = { origin = src; seq = st.next_seq; body } in
    st.next_seq <- st.next_seq + 1;
    Broadcast.Reliable_broadcast.rbroadcast rb ~src ~tag:"to-data" (Data m)

let subscribe t p f = t.states.(p).rev_subscribers <- f :: t.states.(p).rev_subscribers

let delivered t p = List.rev t.states.(p).rev_log

let slots_used t p = t.states.(p).next_slot
