type Sim.Payload.t += Rb of { origin : Sim.Pid.t; seq : int; tag : string; body : Sim.Payload.t }

type transport =
  [ `Engine  (** Plain engine sends: assumes reliable links. *)
  | `Stubborn of Stubborn.t  (** Retransmitting channels: survives fair-lossy links. *)
  ]

(* [seen.(origin)] has byte [seq] set once this process has received
   [origin]'s broadcast [seq]: sequence numbers are dense per origin, so a
   row per origin replaces a table of (origin, seq) pairs.  Rows are
   created and grown on demand. *)
type process_state = {
  mutable next_seq : int;
  mutable seen : Bytes.t array;
  mutable subscribers : (origin:Sim.Pid.t -> Sim.Payload.t -> unit) list;  (* call order *)
  mutable delivered : int;
}

type t = {
  engine : Sim.Engine.t;
  component : string;
  send_one : src:Sim.Pid.t -> dst:Sim.Pid.t -> tag:string -> Sim.Payload.t -> unit;
  states : process_state array;
  instance_spans : (int, Sim.Engine.span * Sim.Pid.Set.t ref) Hashtbl.t;
      (** Per in-flight broadcast, by {!instance_key}: its span and the alive
          processes that have not yet R-delivered it.  Observer state only —
          it feeds the trace, never the protocol. *)
  m_broadcasts : Obs.Registry.counter;
}

let default_component = "rb"

(* One int per broadcast instance: [origin] is below [n]. *)
let instance_key t ~origin ~seq = (seq * Array.length t.states) + origin

(* Mark [origin]'s broadcast [seq] as received at [st]; false if it
   already was. *)
let first_receipt st ~origin ~seq =
  if origin >= Array.length st.seen then begin
    let capacity = Stdlib.max 8 (Stdlib.max (origin + 1) (2 * Array.length st.seen)) in
    let rows = Array.make capacity Bytes.empty in
    Array.blit st.seen 0 rows 0 (Array.length st.seen);
    st.seen <- rows
  end;
  let row = st.seen.(origin) in
  let row =
    if seq < Bytes.length row then row
    else begin
      let capacity = Stdlib.max 8 (Stdlib.max (seq + 1) (2 * Bytes.length row)) in
      let row' = Bytes.make capacity '\000' in
      Bytes.blit row 0 row' 0 (Bytes.length row);
      st.seen.(origin) <- row';
      row'
    end
  in
  if Bytes.get row seq <> '\000' then false
  else begin
    Bytes.set row seq '\001';
    true
  end

let deliver t p ~origin ~seq body =
  let st = t.states.(p) in
  st.delivered <- st.delivered + 1;
  let key = instance_key t ~origin ~seq in
  (match Hashtbl.find_opt t.instance_spans key with
  | Some (span, pending) ->
    pending := Sim.Pid.Set.remove p !pending;
    if Sim.Pid.Set.is_empty !pending then begin
      Sim.Engine.end_span t.engine span;
      Hashtbl.remove t.instance_spans key
    end
  | None -> ());
  List.iter (fun f -> f ~origin body) st.subscribers

let create ?(component = default_component) ?(transport = `Engine) engine =
  let n = Sim.Engine.n engine in
  let send_one =
    match transport with
    | `Engine ->
      fun ~src ~dst ~tag payload -> Sim.Engine.send engine ~component ~tag ~src ~dst payload
    | `Stubborn stubborn -> fun ~src ~dst ~tag payload -> Stubborn.send stubborn ~src ~dst ~tag payload
  in
  let t =
    {
      engine;
      component;
      send_one;
      states =
        Array.init n (fun _ ->
            { next_seq = 0; seen = [||]; subscribers = []; delivered = 0 });
      instance_spans = Hashtbl.create 16;
      m_broadcasts = Obs.Registry.counter (Sim.Engine.obs engine) ~name:"rb.broadcasts";
    }
  in
  let on_message p ~src:_ payload =
    match payload with
    | Rb { origin; seq; tag; body } ->
      if first_receipt t.states.(p) ~origin ~seq then begin
        (* Relay before delivering: even if the local subscriber's reaction
           is to stop participating, the message is already on its way to
           everybody (this is what makes the broadcast reliable).  The
           payload is immutable, so the relay re-sends the one received. *)
        for dst = 0 to n - 1 do
          if not (Sim.Pid.equal dst p) then t.send_one ~src:p ~dst ~tag payload
        done;
        deliver t p ~origin ~seq body
      end
    | _ -> ()
  in
  (match transport with
  | `Engine ->
    List.iter (fun p -> Sim.Engine.register engine ~component p (on_message p)) (Sim.Pid.all ~n)
  | `Stubborn stubborn ->
    List.iter (fun p -> Stubborn.register stubborn p (on_message p)) (Sim.Pid.all ~n));
  t

let subscribe t p f =
  let st = t.states.(p) in
  st.subscribers <- st.subscribers @ [ f ]

let rbroadcast t ~src ~tag body =
  let st = t.states.(src) in
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  Obs.Registry.incr t.m_broadcasts;
  (* The instance span runs from the broadcast to the last R-delivery among
     the processes alive right now; a crash mid-broadcast leaves it open. *)
  let span = Sim.Engine.begin_span t.engine src ~component:t.component ~name:"rb-instance" in
  let pending = ref (Sim.Pid.set_of_list (Sim.Engine.alive_processes t.engine)) in
  Hashtbl.replace t.instance_spans (instance_key t ~origin:src ~seq) (span, pending);
  (* The self-copy goes through the local delivery path (a self-send), so
     the originator R-delivers its own message like everybody else. *)
  t.send_one ~src ~dst:src ~tag (Rb { origin = src; seq; tag; body })

let delivered_count t p = t.states.(p).delivered
