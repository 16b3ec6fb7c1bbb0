type violation =
  | No_decision of Sim.Pid.t
  | Multiple_decisions of Sim.Pid.t
  | Disagreement of { p : Sim.Pid.t; v : int; q : Sim.Pid.t; w : int }
  | Invalid_value of { p : Sim.Pid.t; v : int }

let pp_violation ppf = function
  | No_decision p -> Format.fprintf ppf "correct process %a never decided" Sim.Pid.pp p
  | Multiple_decisions p -> Format.fprintf ppf "%a decided more than once" Sim.Pid.pp p
  | Disagreement { p; v; q; w } ->
    Format.fprintf ppf "%a decided %d but %a decided %d" Sim.Pid.pp p v Sim.Pid.pp q w
  | Invalid_value { p; v } ->
    Format.fprintf ppf "%a decided %d, which was never proposed" Sim.Pid.pp p v

(* The events the four properties read, gathered in one pass over the
   trace; each list is in trace order. *)
type events = {
  crashes : Sim.Pid.t list;
  decisions : (Sim.Pid.t * int) list;
  proposed : int list;
}

let gather trace =
  let crashes = ref [] and decisions = ref [] and proposed = ref [] in
  Sim.Trace.iter_kinds trace [ Crash; Decide; Propose ] (fun e ->
      match e.Sim.Trace.body with
      | Crash { pid; _ } -> crashes := pid :: !crashes
      | Decide { pid; value; _ } -> decisions := (pid, value) :: !decisions
      | Propose { value; _ } -> proposed := value :: !proposed
      | _ -> ());
  { crashes = List.rev !crashes; decisions = List.rev !decisions; proposed = List.rev !proposed }

let termination_of ev ~n =
  let crashed = Sim.Pid.set_of_list ev.crashes in
  let deciders = Sim.Pid.set_of_list (List.map fst ev.decisions) in
  List.filter_map
    (fun p ->
      if Sim.Pid.Set.mem p crashed || Sim.Pid.Set.mem p deciders then None
      else Some (No_decision p))
    (Sim.Pid.all ~n)

let uniform_integrity_of ev =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (p, _) ->
      Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
    ev.decisions;
  Hashtbl.fold (fun p c acc -> if c > 1 then p :: acc else acc) counts []
  |> List.sort Sim.Pid.compare
  |> List.map (fun p -> Multiple_decisions p)

let uniform_agreement_of ev =
  match ev.decisions with
  | [] -> []
  | (p, v) :: rest ->
    List.filter_map (fun (q, w) -> if w <> v then Some (Disagreement { p; v; q; w }) else None) rest

let validity_of ev =
  List.filter_map
    (fun (p, v) -> if List.mem v ev.proposed then None else Some (Invalid_value { p; v }))
    ev.decisions

let safety_of ev = uniform_integrity_of ev @ uniform_agreement_of ev @ validity_of ev

let termination trace ~n = termination_of (gather trace) ~n
let uniform_integrity trace = uniform_integrity_of (gather trace)
let uniform_agreement trace = uniform_agreement_of (gather trace)
let validity trace = validity_of (gather trace)
let check_safety trace = safety_of (gather trace)

let check_all trace ~n =
  let ev = gather trace in
  termination_of ev ~n @ safety_of ev

let decision_round trace =
  List.fold_left
    (fun acc (_, _, round, _) ->
      Some (match acc with None -> round | Some r -> Stdlib.max r round))
    None (Sim.Trace.decisions trace)

let first_decision_time trace =
  List.fold_left
    (fun acc (_, _, _, at) -> Some (match acc with None -> at | Some t -> Sim.Sim_time.min t at))
    None (Sim.Trace.decisions trace)

let last_decision_time trace =
  List.fold_left
    (fun acc (_, _, _, at) -> Some (match acc with None -> at | Some t -> Sim.Sim_time.max t at))
    None (Sim.Trace.decisions trace)
