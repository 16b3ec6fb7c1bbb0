type report = {
  holds : bool;
  since : Sim.Sim_time.t option;
}

(* What the checkers read of a trace, gathered in one pass: every pid's
   view timeline for the component and every crashed pid's earliest
   crash.  [covered] is the trace length the index was built at; a trace
   that grew since (a run made before the engine ran on) is indexed
   again. *)
type index = {
  mutable covered : int;
  mutable views : (Sim.Pid.t, Fd.Fd_view.t Eventually.timeline) Hashtbl.t;
  mutable first_crash : Sim.Sim_time.t Sim.Pid.Map.t;
}

type run = {
  trace : Sim.Trace.t;
  component : string;
  n : int;
  index : index;
}

let make_run ~component ~n trace =
  let index = { covered = -1; views = Hashtbl.create 0; first_crash = Sim.Pid.Map.empty } in
  { trace; component; n; index }

let build run =
  let views = Hashtbl.create 64 in
  let first_crash = ref Sim.Pid.Map.empty in
  Sim.Trace.iter_kinds run.trace [ Sim.Trace.Kind.Fd_view; Sim.Trace.Kind.Crash ]
    (fun (e : Sim.Trace.event) ->
      match e.body with
      | Sim.Trace.Fd_view { at; pid; component; suspected; trusted }
        when String.equal component run.component ->
        let rev = Option.value (Hashtbl.find_opt views pid) ~default:[] in
        Hashtbl.replace views pid ((at, { Fd.Fd_view.suspected; trusted }) :: rev)
      | Sim.Trace.Crash { at; pid } ->
        first_crash :=
          Sim.Pid.Map.update pid
            (function Some t -> Some (Sim.Sim_time.min t at) | None -> Some at)
            !first_crash
      | _ -> ());
  Hashtbl.filter_map_inplace (fun _ rev -> Some (List.rev rev)) views;
  let ix = run.index in
  ix.views <- views;
  ix.first_crash <- !first_crash;
  ix.covered <- Sim.Trace.length run.trace

let index run =
  if run.index.covered <> Sim.Trace.length run.trace then build run;
  run.index

let timeline run p = Option.value (Hashtbl.find_opt (index run).views p) ~default:[]

let correct_processes run =
  let first_crash = (index run).first_crash in
  List.filter (fun p -> not (Sim.Pid.Map.mem p first_crash)) (Sim.Pid.all ~n:run.n)

let crashed_processes run = List.map fst (Sim.Pid.Map.bindings (index run).first_crash)

let report_of_since since = { holds = Option.is_some since; since }

(* "For every correct observer p, [pred] stabilizes on p's views". *)
let every_observer run pred =
  Eventually.all
    (List.map
       (fun p -> Eventually.stabilization pred (timeline run p))
       (correct_processes run))

(* [every_observer] of [holds targets suspected], one set operation per
   view against all the targets together; vacuously true from the start
   when [targets] is empty. *)
let against_all run ~targets holds =
  if Sim.Pid.Set.is_empty targets then Some Sim.Sim_time.zero
  else every_observer run (fun (v : Fd.Fd_view.t) -> holds targets v.Fd.Fd_view.suspected)

let suspected_in q (v : Fd.Fd_view.t) = Sim.Pid.Set.mem q v.Fd.Fd_view.suspected

(* Every crashed process is suspected. *)
let strong_completeness run =
  let crashed = Sim.Pid.set_of_list (crashed_processes run) in
  report_of_since (against_all run ~targets:crashed Sim.Pid.Set.subset)

let weak_completeness run =
  let observers = correct_processes run in
  let per_victim q =
    Eventually.any
      (List.map (fun p -> Eventually.stabilization (suspected_in q) (timeline run p)) observers)
  in
  report_of_since (Eventually.all (List.map per_victim (crashed_processes run)))

(* No correct process is suspected. *)
let eventual_strong_accuracy run =
  let correct = Sim.Pid.set_of_list (correct_processes run) in
  report_of_since (against_all run ~targets:correct Sim.Pid.Set.disjoint)

(* Some correct process that every correct observer eventually stops
   suspecting for good.  One pass per observer: [suspected.(l)] says
   whether its latest view suspects candidate [l], and [start.(l)] when
   its current run of views not suspecting [l] began (the first view's
   instant if none ever did), which is [Eventually.stabilization] for
   [l] on that observer.  Only the members that differ between
   consecutive views are visited ([Pid.Set.iter_diff]), so a pass costs
   the observer's view changes, not one walk per candidate. *)
let eventual_weak_accuracy run =
  let correct = correct_processes run in
  let n = run.n in
  (* [since.(l)]: [Eventually.all] over the observers walked so far. *)
  let since = Array.make n (Some Sim.Sim_time.zero) in
  let suspected = Array.make n false and start = Array.make n Sim.Sim_time.zero in
  let observe p =
    match timeline run p with
    | [] -> List.iter (fun l -> since.(l) <- None) correct
    | (at0, _) :: _ as views ->
      Array.fill suspected 0 n false;
      Array.fill start 0 n at0;
      ignore
        (List.fold_left
           (fun prev (at, (v : Fd.Fd_view.t)) ->
             let cur = v.Fd.Fd_view.suspected in
             Sim.Pid.Set.iter_diff (fun q -> if q < n then suspected.(q) <- true) cur prev;
             Sim.Pid.Set.iter_diff
               (fun q ->
                 if q < n then begin
                   suspected.(q) <- false;
                   start.(q) <- at
                 end)
               prev cur;
             cur)
           Sim.Pid.Set.empty views
          : Sim.Pid.Set.t);
      List.iter
        (fun l ->
          since.(l) <-
            (match since.(l) with
            | Some s when not suspected.(l) -> Some (Sim.Sim_time.max s start.(l))
            | Some _ | None -> None))
        correct
  in
  List.iter observe correct;
  report_of_since (Eventually.any (List.map (fun l -> since.(l)) correct))

(* The correct process every correct observer trusts for good, with the
   instant from which all of them do: each observer's final trusted
   process and the start of its final run of views trusting it, agreed
   on by all of them.  [None] if there is no correct process, an
   observer has no view, or the final views differ. *)
let final_leader run =
  let correct = correct_processes run in
  let rec final_run cur start = function
    | [] -> (cur, start)
    | (at, (v : Fd.Fd_view.t)) :: rest ->
      let t = v.Fd.Fd_view.trusted in
      if Option.equal Sim.Pid.equal t cur then final_run cur start rest else final_run t at rest
  in
  let final p =
    match timeline run p with
    | [] -> None
    | (at, (v : Fd.Fd_view.t)) :: rest -> (
      match final_run v.Fd.Fd_view.trusted at rest with
      | Some l, start -> Some (l, start)
      | None, _ -> None)
  in
  let agree acc final =
    match (acc, final) with
    | Some (l, since), Some (l', start) when Sim.Pid.equal l l' ->
      Some (l, Sim.Sim_time.max since start)
    | _ -> None
  in
  match List.map final correct with
  | Some (l, _) :: _ as finals when List.exists (Sim.Pid.equal l) correct ->
    List.fold_left agree (Some (l, Sim.Sim_time.zero)) finals
  | _ -> None

let leadership run = report_of_since (Option.map snd (final_leader run))

let trusted_not_suspected run =
  let coherent (v : Fd.Fd_view.t) =
    match v.Fd.Fd_view.trusted with
    | None -> false
    | Some l -> not (Sim.Pid.Set.mem l v.Fd.Fd_view.suspected)
  in
  report_of_since (every_observer run coherent)

let check property run =
  match (property : Fd.Classes.property) with
  | Strong_completeness -> strong_completeness run
  | Weak_completeness -> weak_completeness run
  | Eventual_strong_accuracy -> eventual_strong_accuracy run
  | Eventual_weak_accuracy -> eventual_weak_accuracy run
  | Eventual_leadership -> leadership run
  | Trusted_not_suspected -> trusted_not_suspected run

let satisfies_class cls run =
  List.for_all (fun p -> (check p run).holds) (Fd.Classes.properties cls)

let class_matrix run = List.map (fun p -> (p, check p run)) Fd.Classes.all_properties

let eventual_leader run = Option.map fst (final_leader run)

let detection_time run ~victim = every_observer run (suspected_in victim)

let trusted_transitions run p =
  (* [(time, previous trusted, new trusted)] for every switch. *)
  let rec walk prev acc = function
    | [] -> List.rev acc
    | (at, (v : Fd.Fd_view.t)) :: rest ->
      let cur = v.Fd.Fd_view.trusted in
      if Option.equal Sim.Pid.equal cur prev then walk prev acc rest
      else walk cur ((at, prev, cur) :: acc) rest
  in
  match timeline run p with
  | [] -> []
  | (at0, v0) :: rest -> walk v0.Fd.Fd_view.trusted [ (at0, None, v0.Fd.Fd_view.trusted) ] rest

let leader_changes run p = Stdlib.max 0 (List.length (trusted_transitions run p) - 1)

let leader_changes_after run p ~after =
  List.length (List.filter (fun (at, _, _) -> at > after) (trusted_transitions run p))

let false_suspicion_events_after run ~after =
  (* Transitions, at correct observers, where a correct process becomes
     newly suspected strictly after [after]. *)
  let correct = correct_processes run in
  let correct_set = Sim.Pid.set_of_list correct in
  let count_observer p =
    let rec walk prev acc = function
      | [] -> acc
      | (at, (v : Fd.Fd_view.t)) :: rest ->
        let fresh = Sim.Pid.Set.diff v.Fd.Fd_view.suspected prev in
        let wrong = Sim.Pid.Set.cardinal (Sim.Pid.Set.inter fresh correct_set) in
        walk v.Fd.Fd_view.suspected (if at > after then acc + wrong else acc) rest
    in
    walk Sim.Pid.Set.empty 0 (timeline run p)
  in
  List.fold_left (fun acc p -> acc + count_observer p) 0 correct

let demotions_of_live_leaders run p =
  let first_crash = (index run).first_crash in
  let alive_at q at =
    match Sim.Pid.Map.find_opt q first_crash with Some t -> at < t | None -> true
  in
  List.length
    (List.filter
       (fun (at, prev, _) ->
         match prev with Some q -> alive_at q at | None -> false)
       (trusted_transitions run p))
