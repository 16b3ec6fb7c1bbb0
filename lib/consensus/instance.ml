type decision = {
  value : Value.t;
  round : int;
  at : Sim.Sim_time.t;
}

type t = {
  phases_per_round : int;
  propose : Sim.Pid.t -> Value.t -> unit;
  decision : Sim.Pid.t -> decision option;
}

type book = {
  engine : Sim.Engine.t;
  component : string;
  who : string;
  proposed : bool array;
  spans : Sim.Engine.span option array;  (** Open while a process is in a round. *)
}

let book engine ~component ~who =
  let n = Sim.Engine.n engine in
  { engine; component; who; proposed = Array.make n false; spans = Array.make n None }

let propose b p v =
  if not (Value.valid_proposal v) then invalid_arg (b.who ^ ".propose: invalid value");
  if b.proposed.(p) then invalid_arg (b.who ^ ".propose: already proposed");
  b.proposed.(p) <- true;
  Sim.Trace.record (Sim.Engine.trace b.engine)
    (Sim.Trace.Propose { at = Sim.Engine.now b.engine; pid = p; value = v })

let close_span b p =
  match b.spans.(p) with
  | Some s ->
    Sim.Engine.end_span b.engine s;
    b.spans.(p) <- None
  | None -> ()

let decide b p ~round value =
  let at = Sim.Engine.now b.engine in
  close_span b p;
  Sim.Trace.record (Sim.Engine.trace b.engine) (Sim.Trace.Decide { at; pid = p; value; round });
  { value; round; at }

let defer b p ~advancing enter =
  (* The next round starts one engine event later: a synchronous chain of
     self-completing rounds (e.g. tiny systems, where every wait is
     satisfied locally) would otherwise burn through the round space
     within a single instant, outrunning its own decision's reliable
     broadcast. *)
  ignore
    (Sim.Engine.set_timer b.engine p ~delay:0 (fun () -> if advancing p then enter p)
      : Sim.Engine.timer)

let enter b ~counter ~max_rounds p r =
  close_span b p;
  (* Safety valve: a detector violating its class could make a process
     burn through rounds forever within one simulated instant. *)
  r <= max_rounds
  && begin
       Obs.Registry.incr counter;
       b.spans.(p) <- Some (Sim.Engine.begin_span b.engine p ~component:b.component ~name:"round");
       true
     end

let entry table r fresh =
  match Hashtbl.find_opt table r with
  | Some x -> x
  | None ->
    let x = fresh () in
    Hashtbl.add table r x;
    x

let first_quorum quorum rev_arrivals =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take quorum (List.rev rev_arrivals)
