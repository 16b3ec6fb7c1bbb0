(* Adversarial runs: the safety of consensus (uniform agreement, uniform
   integrity, validity) must not depend on the failure detector at all —
   Lemma 2's argument never uses completeness or accuracy.  We feed the
   protocols detectors that emit completely arbitrary views (random
   suspicions, random trusted processes, flipping at random instants) and
   check that safety survives; with a stabilising tail appended, liveness
   must come back too. *)

let tc name f = Alcotest.test_case name `Quick f

(* Random view-flip schedule: [steps] arbitrary (time, pid, view) updates
   drawn from the seed, over [0, chaos_until]. *)
let random_steps rng ~n ~steps ~chaos_until =
  List.init steps (fun _ ->
      let pid = Sim.Rng.int rng ~bound:n in
      let at = Sim.Rng.int rng ~bound:chaos_until in
      let suspected =
        List.filter (fun q -> q <> pid && Sim.Rng.bool rng ~p:0.4) (Sim.Pid.all ~n)
      in
      let trusted = if Sim.Rng.bool rng ~p:0.8 then Some (Sim.Rng.int rng ~bound:n) else None in
      {
        Fd.Scripted.at;
        pid;
        view = Fd.Fd_view.make ?trusted ~suspected:(Sim.Pid.set_of_list suspected) ();
      })
  |> List.sort (fun a b -> compare a.Fd.Scripted.at b.Fd.Scripted.at)

let stabilising_steps ~n ~at ~crashes =
  let crashed = Sim.Fault.faulty crashes in
  let leader =
    List.find (fun p -> not (Sim.Pid.Set.mem p crashed)) (Sim.Pid.all ~n)
  in
  List.map
    (fun p -> { Fd.Scripted.at; pid = p; view = Fd.Fd_view.make ~trusted:leader ~suspected:crashed () })
    (Sim.Pid.all ~n)

let build_run ?(max_rounds = 500) ~protocol ~n ~seed ~stabilise () =
  let rng = Sim.Rng.create ~seed in
  let crashes = Sim.Fault.random_minority rng ~n ~latest:500 in
  let chaos_until = 1500 in
  let steps =
    random_steps rng ~n ~steps:(10 + Sim.Rng.int rng ~bound:30) ~chaos_until
    @ (if stabilise then stabilising_steps ~n ~at:(chaos_until + 100) ~crashes else [])
  in
  let engine = Scenario.engine ~net:{ Scenario.default_net with seed } ~n () in
  Sim.Fault.apply engine crashes;
  let fd = Fd.Scripted.install engine ~initial:(fun _ -> Fd.Fd_view.empty) ~steps () in
  let rb = Broadcast.Reliable_broadcast.create engine in
  let instance =
    match protocol with
    | `Ec ->
      Ecfd.Ec_consensus.install engine ~fd ~rb
        { Ecfd.Ec_consensus.default_params with max_rounds }
    | `Ec_merged ->
      Ecfd.Ec_consensus.install engine ~fd ~rb
        { Ecfd.Ec_consensus.default_params with merge_phase01 = true; max_rounds }
    | `Ct -> Consensus.Ct_consensus.install ~max_rounds engine ~fd ~rb ()
    | `Mr -> Consensus.Mr_consensus.install engine ~fd ~rb ()
    | `Hr -> Consensus.Hr_consensus.install ~max_rounds engine ~fd ~rb ()
  in
  List.iter
    (fun p ->
      Sim.Engine.at engine 0 (fun () ->
          if Sim.Engine.is_alive engine p then instance.Consensus.Instance.propose p (50 + p)))
    (Sim.Pid.all ~n);
  Sim.Engine.run_until engine 12_000;
  (engine, crashes)

let proto_name = function
  | `Ec -> "ec"
  | `Ec_merged -> "ec-merged"
  | `Ct -> "ct"
  | `Mr -> "mr"
  | `Hr -> "hr"

let safety_law protocol =
  Test_util.qcheck ~count:30
    ~name:(Printf.sprintf "%s: safety under arbitrary detector garbage" (proto_name protocol))
    QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let engine, _ = build_run ~protocol ~n ~seed ~stabilise:false () in
      Test_util.bool_law
        (Printf.sprintf "n=%d seed=%d violations=%s" n seed
           (String.concat "; "
              (List.map
                 (Format.asprintf "%a" Spec.Consensus_props.pp_violation)
                 (Spec.Consensus_props.check_safety (Sim.Engine.trace engine)))))
        (Spec.Consensus_props.check_safety (Sim.Engine.trace engine) = []))

let liveness_law protocol =
  Test_util.qcheck ~count:20
    ~name:
      (Printf.sprintf "%s: chaos then stabilisation still terminates" (proto_name protocol))
    QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 1_000_000))
    (fun (n, seed) ->
      (* A generous round valve: chaos can legitimately burn many rounds,
         and liveness must not be cut short by the safety valve.  (The
         merged variant is excluded: a detector whose trusted process is
         also suspected livelocks it by design — that is exactly why
         Definition 1 has the coherence clause.) *)
      let engine, _ = build_run ~max_rounds:20_000 ~protocol ~n ~seed ~stabilise:true () in
      Test_util.bool_law
        (Printf.sprintf "n=%d seed=%d violations=%s" n seed
           (String.concat "; "
              (List.map
                 (Format.asprintf "%a" Spec.Consensus_props.pp_violation)
                 (Spec.Consensus_props.check_all (Sim.Engine.trace engine) ~n))))
        (Spec.Consensus_props.check_all (Sim.Engine.trace engine) ~n = []))

(* Lemma 1, empirically: in any round of the ◇C algorithm, at most one
   coordinator broadcasts a non-null proposition — each process sends its
   (non-null) estimate to exactly one coordinator, so only one can gather a
   majority.  We count distinct proposition senders per round straight off
   the trace. *)
let proposers_per_round trace =
  let table = Hashtbl.create 32 in
  Sim.Trace.iter trace (fun e ->
      match e.Sim.Trace.body with
      | Sim.Trace.Send { src; component; tag; _ }
        when String.equal component Ecfd.Ec_consensus.component -> (
        match Spec.Round_metrics.round_of_tag tag with
        | Some round when String.length tag >= 12 && String.sub tag 0 12 = "proposition." ->
          let senders = Option.value ~default:[] (Hashtbl.find_opt table round) in
          if not (List.mem src senders) then Hashtbl.replace table round (src :: senders)
        | _ -> ())
      | _ -> ());
  Hashtbl.fold (fun round senders acc -> (round, List.length senders) :: acc) table []

let lemma1_law =
  Test_util.qcheck ~count:30 ~name:"Lemma 1: one non-null proposer per round, even in chaos"
    QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let engine, _ = build_run ~protocol:`Ec ~n ~seed ~stabilise:true () in
      let per_round = proposers_per_round (Sim.Engine.trace engine) in
      Test_util.bool_law
        (Printf.sprintf "n=%d seed=%d offending rounds: %s" n seed
           (String.concat ", "
              (List.filter_map
                 (fun (r, k) -> if k > 1 then Some (Printf.sprintf "r%d:%d" r k) else None)
                 per_round)))
        (List.for_all (fun (_, k) -> k <= 1) per_round))

(* Rounds count from 1, and one number names a round in the payload, the
   [.rN] tag and the [Decide].  The trace holds every protocol to that:
   - every round-tagged send has N >= 1;
   - a process sends its round-N locking message (the vote a decision
     counts) only after a round-N message of the round's opening phase,
     where its protocol has one: a Chandra–Toueg coordinator ACKs its own
     proposal locally, and a Hurfin–Raynal voter opens a round silently;
   - every [Decide] of round r comes after a round-r locking send.
   The payload's timestamp is not in the trace, so this is what a trace
   can check of the stamp invariant: the ts a lock stores is its round. *)
let locking_tag = function `Ec | `Ec_merged | `Ct -> "ack" | `Mr -> "ph2" | `Hr -> "vote"

let opening_tags = function
  | `Ec | `Ec_merged -> [ "coordinator"; "estimate"; "null-estimate" ]
  | `Ct -> [ "estimate" ]
  | `Mr -> [ "est" ]
  | `Hr -> []

let component_of = function
  | `Ec | `Ec_merged -> Ecfd.Ec_consensus.component
  | `Ct -> Consensus.Ct_consensus.component
  | `Mr -> Consensus.Mr_consensus.component
  | `Hr -> Consensus.Hr_consensus.component

let round_tag_faults protocol trace =
  let component = component_of protocol in
  let opened = Hashtbl.create 64 and locked = Hashtbl.create 16 in
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun s -> faults := s :: !faults) fmt in
  Sim.Trace.iter trace (fun e ->
      match e.Sim.Trace.body with
      | Sim.Trace.Send { src; component = c; tag; _ } when String.equal c component -> (
        match Spec.Round_metrics.round_of_tag tag with
        | None -> ()
        | Some r ->
          let base = Spec.Round_metrics.base_of_tag tag in
          if r < 1 then fault "%s sent by p%d" tag (src + 1);
          if List.mem base (opening_tags protocol) then Hashtbl.replace opened (src, r) ();
          if String.equal base (locking_tag protocol) then begin
            Hashtbl.replace locked r ();
            if opening_tags protocol <> [] && not (Hashtbl.mem opened (src, r)) then
              fault "p%d sent %s before opening round %d" (src + 1) tag r
          end)
      | Sim.Trace.Decide { pid; round; _ } ->
        if not (Hashtbl.mem locked round) then
          fault "p%d decided in round %d before any %s.r%d" (pid + 1) round
            (locking_tag protocol) round
      | _ -> ());
  List.rev !faults

let round_tag_law protocol =
  Test_util.qcheck ~count:20
    ~name:
      (Printf.sprintf "%s: round tags count from 1, and a decision follows its round's lock"
         (proto_name protocol))
    QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let engine, _ = build_run ~protocol ~n ~seed ~stabilise:true () in
      let faults = round_tag_faults protocol (Sim.Engine.trace engine) in
      Test_util.bool_law
        (Printf.sprintf "n=%d seed=%d: %s" n seed (String.concat "; " faults))
        (faults = []))

let adversarial_tests =
  [
    lemma1_law;
    round_tag_law `Ec;
    round_tag_law `Ec_merged;
    round_tag_law `Ct;
    round_tag_law `Mr;
    round_tag_law `Hr;
    safety_law `Ec;
    safety_law `Ec_merged;
    safety_law `Ct;
    safety_law `Mr;
    safety_law `Hr;
    liveness_law `Ec;
    liveness_law `Ct;
    liveness_law `Mr;
    liveness_law `Hr;
    tc "ec: leader flip in the middle of every phase" (fun () ->
        (* Deterministic needle: the detector changes its mind every few
           ticks during the first rounds — exactly when coordinators are
           announcing, proposing and collecting. *)
        let n = 5 in
        let flips =
          List.concat_map
            (fun k ->
              let leader = k mod n in
              List.map
                (fun p ->
                  {
                    Fd.Scripted.at = 3 * k;
                    pid = p;
                    view = Fd.Scripted.stable ~leader ~n p;
                  })
                (Sim.Pid.all ~n))
            (List.init 60 (fun k -> k))
        in
        let final = stabilising_steps ~n ~at:200 ~crashes:Sim.Fault.none in
        let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 77 } ~n () in
        let fd =
          Fd.Scripted.install engine ~initial:(fun _ -> Fd.Fd_view.empty) ~steps:(flips @ final) ()
        in
        let rb = Broadcast.Reliable_broadcast.create engine in
        let instance =
          Ecfd.Ec_consensus.install engine ~fd ~rb
            { Ecfd.Ec_consensus.default_params with max_rounds = 500 }
        in
        List.iter (fun p -> instance.Consensus.Instance.propose p (70 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 10_000;
        Test_util.check_no_violations "leader flip storm" (Sim.Engine.trace engine) ~n);
    tc "ct: coordinator suspected by exactly half the processes" (fun () ->
        (* Split suspicion: the coordinator gathers a mix of ACKs and NACKs
           every round until the detector clears up. *)
        let n = 6 in
        let split p =
          if p < n / 2 then Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 0; 1 ]) ()
          else Fd.Fd_view.empty
        in
        let final = stabilising_steps ~n ~at:400 ~crashes:Sim.Fault.none in
        let engine = Scenario.engine ~net:{ Scenario.default_net with seed = 78 } ~n () in
        let fd = Fd.Scripted.install engine ~initial:split ~steps:final () in
        let rb = Broadcast.Reliable_broadcast.create engine in
        let instance = Consensus.Ct_consensus.install ~max_rounds:500 engine ~fd ~rb () in
        List.iter (fun p -> instance.Consensus.Instance.propose p (80 + p)) (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 10_000;
        Test_util.check_no_violations "split suspicion" (Sim.Engine.trace engine) ~n);
  ]

let suites = [ ("consensus.adversarial", adversarial_tests) ]
