(* Unit tests of the property checkers, on hand-built traces: the checkers
   are the judges of everything else, so they get direct scrutiny. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Eventually                                                         *)
(* ------------------------------------------------------------------ *)

let eventually_tests =
  [
    tc "stabilization on a piecewise signal" (fun () ->
        let tl = [ (0, false); (5, true); (9, false); (12, true); (20, true) ] in
        Alcotest.(check (option int)) "stabilizes at 12" (Some 12)
          (Spec.Eventually.stabilization Fun.id tl));
    tc "false at the end means no stabilization" (fun () ->
        let tl = [ (0, true); (10, false) ] in
        Alcotest.(check (option int)) "none" None (Spec.Eventually.stabilization Fun.id tl));
    tc "true throughout stabilizes at the first instant" (fun () ->
        let tl = [ (0, true); (3, true) ] in
        Alcotest.(check (option int)) "0" (Some 0) (Spec.Eventually.stabilization Fun.id tl));
    tc "empty timeline never stabilizes" (fun () ->
        Alcotest.(check (option int)) "none" None (Spec.Eventually.stabilization Fun.id []));
    tc "all / any combinators" (fun () ->
        Alcotest.(check (option int)) "all picks the max" (Some 9)
          (Spec.Eventually.all [ Some 3; Some 9; Some 1 ]);
        Alcotest.(check (option int)) "all with a failure" None
          (Spec.Eventually.all [ Some 3; None ]);
        Alcotest.(check (option int)) "all of nothing is vacuous" (Some 0)
          (Spec.Eventually.all []);
        Alcotest.(check (option int)) "any picks the min" (Some 1)
          (Spec.Eventually.any [ Some 3; None; Some 1 ]);
        Alcotest.(check (option int)) "any of nothing fails" None (Spec.Eventually.any []));
  ]

(* ------------------------------------------------------------------ *)
(* Fd_props on synthetic traces                                       *)
(* ------------------------------------------------------------------ *)

let comp = "fd.test"

let view ~at ~pid ?trusted suspected =
  Sim.Trace.Fd_view
    { at; pid; component = comp; suspected = Sim.Pid.set_of_list suspected; trusted }

let trace_of events =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.record t) events;
  t

(* Scenario: n = 3; p3 crashes at t=10.  p1 and p2 eventually suspect it
   and trust each... p1. *)
let good_trace =
  trace_of
    [
      view ~at:0 ~pid:0 ~trusted:0 [];
      view ~at:0 ~pid:1 ~trusted:0 [];
      view ~at:0 ~pid:2 ~trusted:0 [];
      Sim.Trace.Crash { at = 10; pid = 2 };
      view ~at:12 ~pid:0 ~trusted:0 [ 2 ];
      view ~at:15 ~pid:1 ~trusted:0 [ 2 ];
    ]

let good_run = Spec.Fd_props.make_run ~component:comp ~n:3 good_trace

let fd_props_tests =
  [
    tc "correct/crashed partition" (fun () ->
        Alcotest.(check (list int)) "correct" [ 0; 1 ] (Spec.Fd_props.correct_processes good_run);
        Alcotest.(check (list int)) "crashed" [ 2 ] (Spec.Fd_props.crashed_processes good_run));
    tc "strong completeness holds with its stabilization time" (fun () ->
        let r = Spec.Fd_props.strong_completeness good_run in
        Alcotest.(check bool) "holds" true r.holds;
        Alcotest.(check (option int)) "since the later suspector" (Some 15) r.since);
    tc "accuracy holds (nobody suspects a correct process)" (fun () ->
        Alcotest.(check bool) "strong accuracy" true
          (Spec.Fd_props.eventual_strong_accuracy good_run).holds);
    tc "leadership holds on a common trusted process" (fun () ->
        Alcotest.(check bool) "holds" true (Spec.Fd_props.leadership good_run).holds;
        Alcotest.(check (option int)) "leader" (Some 0) (Spec.Fd_props.eventual_leader good_run));
    tc "the full class <>C is recognized" (fun () ->
        Alcotest.(check bool) "ec" true (Spec.Fd_props.satisfies_class Fd.Classes.Ec good_run));
    tc "strong completeness fails if one observer never suspects" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              view ~at:0 ~pid:2 ~trusted:0 [];
              Sim.Trace.Crash { at = 10; pid = 2 };
              view ~at:12 ~pid:0 ~trusted:0 [ 2 ];
              (* p2 (observer pid 1) never suspects. *)
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:3 t in
        Alcotest.(check bool) "strong fails" false (Spec.Fd_props.strong_completeness run).holds;
        Alcotest.(check bool) "weak holds" true (Spec.Fd_props.weak_completeness run).holds);
    tc "suspicion withdrawn at the end violates completeness" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              Sim.Trace.Crash { at = 10; pid = 1 };
              view ~at:12 ~pid:0 ~trusted:0 [ 1 ];
              view ~at:30 ~pid:0 ~trusted:0 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "not permanent" false
          (Spec.Fd_props.strong_completeness run).holds);
    tc "accuracy fails on a permanent false suspicion" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [ 1 ];
              view ~at:0 ~pid:1 ~trusted:0 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "strong accuracy fails" false
          (Spec.Fd_props.eventual_strong_accuracy run).holds;
        (* ... but weak accuracy holds via p1, never suspected. *)
        Alcotest.(check bool) "weak accuracy holds" true
          (Spec.Fd_props.eventual_weak_accuracy run).holds);
    tc "leadership fails on split trust" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "no common leader" false (Spec.Fd_props.leadership run).holds);
    tc "leadership fails when the common leader is crashed" (fun () ->
        let t =
          trace_of
            [
              Sim.Trace.Crash { at = 5; pid = 1 };
              view ~at:0 ~pid:0 ~trusted:1 [];
              view ~at:0 ~pid:2 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:3 t in
        Alcotest.(check bool) "dead leader" false (Spec.Fd_props.leadership run).holds);
    tc "trusted-not-suspected detects violations" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:1 [ 1 ];
              view ~at:0 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "violated" false (Spec.Fd_props.trusted_not_suspected run).holds);
    tc "detection_time is the last suspector's instant" (fun () ->
        Alcotest.(check (option int)) "15" (Some 15)
          (Spec.Fd_props.detection_time good_run ~victim:2));
    tc "timeline reads one pid's views of the component, pids >= n included" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:3 ~trusted:0 [];
              Sim.Trace.Fd_view
                { at = 1; pid = 3; component = "other"; suspected = Sim.Pid.Set.empty; trusted = None };
              view ~at:2 ~pid:3 [ 1 ];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check (list int)) "instants" [ 0; 2 ] (List.map fst (Spec.Fd_props.timeline run 3));
        Alcotest.(check int) "silent pid" 0 (List.length (Spec.Fd_props.timeline run 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Fd_props against a naive reference                                 *)
(* ------------------------------------------------------------------ *)

(* The checkers in their most literal form: every (observer, target) pair
   stabilized on its own, over a fresh full-trace scan of the observer's
   views.  Slow but plainly right; the indexed Fd_props must agree. *)
module Naive = struct
  module E = Spec.Eventually

  let crashes (r : Spec.Fd_props.run) = Sim.Trace.crashes r.trace
  let crashed r = List.sort_uniq Int.compare (List.map fst (crashes r))

  let correct (r : Spec.Fd_props.run) =
    List.filter (fun p -> not (List.mem_assoc p (crashes r))) (Sim.Pid.all ~n:r.n)

  let tl (r : Spec.Fd_props.run) p = E.of_views ~component:r.component r.trace ~pid:p
  let suspects q (v : Fd.Fd_view.t) = Sim.Pid.Set.mem q v.suspected
  let trusts l (v : Fd.Fd_view.t) = v.trusted = Some l
  let every_observer r pred = E.all (List.map (fun p -> E.stabilization pred (tl r p)) (correct r))

  let pairs r ~targets pred =
    E.all
      (List.concat_map
         (fun p -> List.map (fun q -> E.stabilization (pred q) (tl r p)) targets)
         (correct r))

  let since r : Fd.Classes.property -> _ = function
    | Strong_completeness -> pairs r ~targets:(crashed r) suspects
    | Weak_completeness ->
      E.all
        (List.map
           (fun q -> E.any (List.map (fun p -> E.stabilization (suspects q) (tl r p)) (correct r)))
           (crashed r))
    | Eventual_strong_accuracy -> pairs r ~targets:(correct r) (fun q v -> not (suspects q v))
    | Eventual_weak_accuracy ->
      E.any (List.map (fun l -> every_observer r (fun v -> not (suspects l v))) (correct r))
    | Eventual_leadership -> E.any (List.map (fun l -> every_observer r (trusts l)) (correct r))
    | Trusted_not_suspected ->
      every_observer r (fun v ->
          match v.trusted with Some l -> not (suspects l v) | None -> false)

  let eventual_leader r =
    List.find_opt
      (fun l -> List.for_all (fun p -> E.holds_eventually (trusts l) (tl r p)) (correct r))
      (correct r)

  (* [(instant, previously trusted)] for the first view and every switch. *)
  let switches r p =
    let rec walk prev = function
      | [] -> []
      | (at, (v : Fd.Fd_view.t)) :: rest ->
        if prev = Some v.trusted then walk prev rest
        else (at, Option.join prev) :: walk (Some v.trusted) rest
    in
    walk None (tl r p)

  let demotions r p =
    let crashes = crashes r in
    List.length
      (List.filter
         (fun (at, prev) ->
           match prev with
           | Some q -> not (List.exists (fun (c, t) -> c = q && t <= at) crashes)
           | None -> false)
         (switches r p))

  let false_suspicions r ~after =
    let correct = correct r in
    let fresh_wrong p =
      let rec walk prev = function
        | [] -> 0
        | (at, (v : Fd.Fd_view.t)) :: rest ->
          let fresh = Sim.Pid.Set.elements (Sim.Pid.Set.diff v.suspected prev) in
          let wrong = List.length (List.filter (fun q -> List.mem q correct) fresh) in
          (if at > after then wrong else 0) + walk v.suspected rest
      in
      walk Sim.Pid.Set.empty (tl r p)
    in
    List.fold_left (fun acc p -> acc + fresh_wrong p) 0 correct
end

(* Every answer of both implementations that differs, as a readable line. *)
let fd_props_mismatches (run : Spec.Fd_props.run) =
  let module F = Spec.Fd_props in
  let opt = function None -> "-" | Some t -> string_of_int t in
  let pids = List.init (run.n + 2) Fun.id in
  let afters = [ -1; 5; 20 ] in
  let rows =
    List.map
      (fun prop ->
        let since = Naive.since run prop in
        ( "check " ^ Fd.Classes.property_name prop,
          Printf.sprintf "%b@%s" (Option.is_some since) (opt since),
          let r = F.check prop run in
          Printf.sprintf "%b@%s" r.holds (opt r.since) ))
      Fd.Classes.all_properties
    @ [ ("eventual_leader", opt (Naive.eventual_leader run), opt (F.eventual_leader run)) ]
    @ List.concat_map
        (fun p ->
          let switches = Naive.switches run p in
          let changes_after after = List.length (List.filter (fun (at, _) -> at > after) switches) in
          [
            ( Printf.sprintf "detection_time %d" p,
              opt (Naive.pairs run ~targets:[ p ] Naive.suspects),
              opt (F.detection_time run ~victim:p) );
            ( Printf.sprintf "leader_changes %d" p,
              string_of_int (Stdlib.max 0 (List.length switches - 1)),
              string_of_int (F.leader_changes run p) );
            ( Printf.sprintf "demotions_of_live_leaders %d" p,
              string_of_int (Naive.demotions run p),
              string_of_int (F.demotions_of_live_leaders run p) );
          ]
          @ List.map
              (fun after ->
                ( Printf.sprintf "leader_changes_after %d %d" p after,
                  string_of_int (changes_after after),
                  string_of_int (F.leader_changes_after run p ~after) ))
              afters)
        pids
    @ List.map
        (fun after ->
          ( Printf.sprintf "false_suspicion_events_after %d" after,
            string_of_int (Naive.false_suspicions run ~after),
            string_of_int (F.false_suspicion_events_after run ~after) ))
        afters
  in
  List.filter_map
    (fun (what, naive, indexed) ->
      if String.equal naive indexed then None
      else Some (Printf.sprintf "%s: naive %s, indexed %s" what naive indexed))
    rows

(* A hand-built trace over pids [0 .. n+1]: views of [comp] interleaved
   with views of another component, bursts of views at one instant, some
   pids that never output, and a crash pattern picked by [crash_mode]
   (0: none; 1: all of [0 .. n-1] but one; 2: random pids, [>= n]
   included, some crashing twice as only a hand-built trace can). *)
let random_events ~n ~crash_mode rng =
  let pids = List.init (n + 2) Fun.id in
  let some_of () = List.filter (fun _ -> Sim.Rng.bool rng ~p:0.4) pids in
  let speakers = match some_of () with [] -> [ 0 ] | ps -> ps in
  let now = ref 0 in
  let views =
    List.init (Sim.Rng.int rng ~bound:50) (fun _ ->
        now := !now + Sim.Rng.choose rng [ 0; 0; 1; 4 ];
        Sim.Trace.Fd_view
          {
            at = !now;
            pid = Sim.Rng.choose rng speakers;
            component = Sim.Rng.choose rng [ comp; comp; "fd.other" ];
            suspected = Sim.Pid.set_of_list (some_of ());
            trusted = (if Sim.Rng.bool rng ~p:0.2 then None else Some (Sim.Rng.choose rng pids));
          })
  in
  let victims =
    match crash_mode with
    | 0 -> []
    | 1 ->
      let survivor = Sim.Rng.int rng ~bound:n in
      List.filter (fun p -> p <> survivor) (Sim.Pid.all ~n)
    | _ -> some_of () @ some_of ()
  in
  let crashes =
    List.sort compare
      (List.map (fun pid -> (Sim.Rng.int rng ~bound:(!now + 2), pid)) victims)
  in
  (* Merge the crashes into the views by instant, as an engine records them. *)
  let rec merge views crashes =
    match (views, crashes) with
    | v :: vs, (at, pid) :: cs ->
      if at <= Sim.Trace.time_of v then Sim.Trace.Crash { at; pid } :: merge views cs
      else v :: merge vs crashes
    | vs, cs -> vs @ List.map (fun (at, pid) -> Sim.Trace.Crash { at; pid }) cs
  in
  merge views crashes

let transformation_run ~net ~n ~crashes ~horizon =
  let e = Scenario.engine ~net ~n () in
  Sim.Fault.apply e crashes;
  let ec = Ecfd.Ec.of_leader_s (Fd.Leader_s.install e Fd.Leader_s.default_params) ~engine:e in
  let p = Ecfd.Ec_to_p.install e ~underlying:ec Ecfd.Ec_to_p.default_params in
  Sim.Engine.run_until e horizon;
  Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace e)

let check_agrees what run =
  match fd_props_mismatches run with
  | [] -> ()
  | lines -> Alcotest.failf "%s:\n%s" what (String.concat "\n" lines)

(* Generated runs with a minority of crashes, over the detectors and
   horizons that make each property both hold and fail. *)
let crash_run_gen =
  let open QCheck2.Gen in
  let* horizon = oneofl [ 60; 150; 700; 2500 ] in
  let* n, crashes = Test_util.Gen.n_and_minority_crashes ~latest:horizon in
  let* net = oneof [ Test_util.Gen.net; Test_util.Gen.chaotic_net ] in
  let+ detector =
    oneofl Scenario.[ Heartbeat_p; Ring_s; Ring_w; Leader_s; Ec_from_leader; Ec_from_ring ]
  in
  (n, crashes, net, detector, horizon)

let print_crash_run (n, crashes, (net : Scenario.net), detector, horizon) =
  Printf.sprintf "n=%d crashes=[%s] net seed=%d gst=%d detector=%s horizon=%d" n
    (String.concat "; " (List.map (fun (p, at) -> Printf.sprintf "%d@%d" p at) crashes))
    net.seed net.gst (Scenario.detector_name detector) horizon

(* Eventual weak accuracy, leadership and the eventual leader as
   Fd_props computed them before their one-pass rewrite: every correct
   observer's timeline stabilized once per correct candidate leader. *)
module Per_candidate = struct
  module E = Spec.Eventually
  module F = Spec.Fd_props

  let for_some_leader run pred =
    let correct = F.correct_processes run in
    E.any
      (List.map
         (fun l ->
           E.all (List.map (fun p -> E.stabilization (pred l) (F.timeline run p)) correct))
         correct)

  let trusts l (v : Fd.Fd_view.t) = Option.equal Sim.Pid.equal v.trusted (Some l)

  let eventual_weak_accuracy run =
    for_some_leader run (fun l (v : Fd.Fd_view.t) -> not (Sim.Pid.Set.mem l v.suspected))

  let leadership run = for_some_leader run trusts

  let eventual_leader run =
    let correct = F.correct_processes run in
    List.find_opt
      (fun l -> List.for_all (fun p -> E.holds_eventually (trusts l) (F.timeline run p)) correct)
      correct
end

let fd_props_equivalence_tests =
  [
    tc "indexed Fd_props = naive reference on generated runs with crashes; both verdicts occur"
      (fun () ->
        let verdicts = Hashtbl.create 12 in
        let law ((n, crashes, net, detector, horizon) as case) =
          let _, run, _ = Scenario.fd_run ~net ~crashes ~horizon ~n ~detector () in
          List.iter
            (fun prop -> Hashtbl.replace verdicts (prop, (Spec.Fd_props.check prop run).holds) ())
            Fd.Classes.all_properties;
          match fd_props_mismatches run with
          | [] -> true
          | lines ->
            QCheck2.Test.fail_reportf "%s\n%s" (print_crash_run case) (String.concat "\n" lines)
        in
        QCheck2.Test.check_exn ~rand:(Test_util.qcheck_rand ())
          (QCheck2.Test.make ~count:(Test_util.qcheck_count 60) ~print:print_crash_run
             ~name:"indexed Fd_props = naive reference" crash_run_gen (Test_util.counted law));
        List.iter
          (fun prop ->
            List.iter
              (fun holds ->
                if not (Hashtbl.mem verdicts (prop, holds)) then
                  Alcotest.failf "%s never %s over the generated runs"
                    (Fd.Classes.property_name prop) (if holds then "held" else "failed"))
              [ true; false ])
          Fd.Classes.all_properties);
    Test_util.qcheck ~count:300 ~name:"indexed Fd_props = naive reference on hand-built traces"
      QCheck2.Gen.(tup3 (int_range 1 8) (int_range 0 2) Test_util.Gen.seed)
      (fun (n, crash_mode, seed) ->
        let events = random_events ~n ~crash_mode (Sim.Rng.create ~seed) in
        (* Query half-way, then let the trace grow: the index must follow. *)
        let early, late = List.partition (fun e -> Sim.Trace.time_of e < 20) events in
        let trace = trace_of early in
        let run = Spec.Fd_props.make_run ~component:comp ~n trace in
        ignore (Spec.Fd_props.class_matrix run : _ list);
        List.iter (Sim.Trace.record trace) late;
        match fd_props_mismatches run with
        | [] -> true
        | lines ->
          QCheck2.Test.fail_reportf "n=%d crash_mode=%d seed=%d\n%s" n crash_mode seed
            (String.concat "\n" lines));
    tc "one-pass weak accuracy and leadership = per-candidate reference; both verdicts occur"
      (fun () ->
        let verdicts = Hashtbl.create 4 in
        let opt = function None -> "-" | Some t -> string_of_int t in
        let law ((n, crashes, net, detector, horizon) as case) =
          let _, run, _ = Scenario.fd_run ~net ~crashes ~horizon ~n ~detector () in
          let rows =
            [
              ( "eventual_weak_accuracy",
                Per_candidate.eventual_weak_accuracy run,
                Spec.Fd_props.eventual_weak_accuracy run );
              ("leadership", Per_candidate.leadership run, Spec.Fd_props.leadership run);
            ]
          in
          let mismatches =
            List.filter_map
              (fun (what, want, (got : Spec.Fd_props.report)) ->
                Hashtbl.replace verdicts (what, got.holds) ();
                if Option.equal Int.equal want got.since && got.holds = Option.is_some want then
                  None
                else
                  Some
                    (Printf.sprintf "%s: reference %s, one-pass %b@%s" what (opt want) got.holds
                       (opt got.since)))
              rows
            @
            let want = Per_candidate.eventual_leader run
            and got = Spec.Fd_props.eventual_leader run in
            if Option.equal Int.equal want got then []
            else [ Printf.sprintf "eventual_leader: reference %s, one-pass %s" (opt want) (opt got) ]
          in
          match mismatches with
          | [] -> true
          | lines ->
            QCheck2.Test.fail_reportf "%s\n%s" (print_crash_run case) (String.concat "\n" lines)
        in
        QCheck2.Test.check_exn ~rand:(Test_util.qcheck_rand ())
          (QCheck2.Test.make ~count:(Test_util.qcheck_count 60) ~print:print_crash_run
             ~name:"one-pass = per-candidate reference" crash_run_gen (Test_util.counted law));
        List.iter
          (fun what ->
            List.iter
              (fun holds ->
                if not (Hashtbl.mem verdicts (what, holds)) then
                  Alcotest.failf "%s never %s over the generated runs" what
                    (if holds then "held" else "failed"))
              [ true; false ])
          [ "eventual_weak_accuracy"; "leadership" ]);
    tc "indexed Fd_props = naive reference on 16 seeded chaotic runs" (fun () ->
        for seed = 1 to 16 do
          let n = 3 + (seed mod 4) in
          let crashes = Sim.Fault.random_minority (Sim.Rng.create ~seed) ~n ~latest:1200 in
          let net = Scenario.chaotic_net ~seed ~gst:800 () in
          let horizon = 3000 in
          List.iter
            (fun detector ->
              let _, run, _ = Scenario.fd_run ~net ~crashes ~horizon ~n ~detector () in
              check_agrees
                (Printf.sprintf "%s seed=%d" (Scenario.detector_name detector) seed)
                run)
            [ Scenario.Heartbeat_p; Scenario.Leader_s ];
          check_agrees
            (Printf.sprintf "ec-to-p seed=%d" seed)
            (transformation_run ~net ~n ~crashes ~horizon)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Consensus_props on synthetic traces                                *)
(* ------------------------------------------------------------------ *)

let propose ~at ~pid value = Sim.Trace.Propose { at; pid; value }
let decide ~at ~pid ~round value = Sim.Trace.Decide { at; pid; value; round }

let consensus_props_tests =
  [
    tc "a clean run has no violations" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              propose ~at:0 ~pid:1 9;
              decide ~at:5 ~pid:0 ~round:1 9;
              decide ~at:6 ~pid:1 ~round:1 9;
            ]
        in
        Alcotest.(check int) "none" 0 (List.length (Spec.Consensus_props.check_all t ~n:2)));
    tc "termination: a silent correct process is reported" (fun () ->
        let t = trace_of [ propose ~at:0 ~pid:0 7; decide ~at:5 ~pid:0 ~round:1 7 ] in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.termination t ~n:2)));
    tc "termination: crashed processes are excused" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              Sim.Trace.Crash { at = 2; pid = 1 };
              decide ~at:5 ~pid:0 ~round:1 7;
            ]
        in
        Alcotest.(check int) "none" 0 (List.length (Spec.Consensus_props.termination t ~n:2)));
    tc "uniform agreement catches disagreement, even by a faulty process" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              propose ~at:0 ~pid:1 8;
              decide ~at:4 ~pid:1 ~round:1 8;
              Sim.Trace.Crash { at = 5; pid = 1 };
              decide ~at:6 ~pid:0 ~round:2 7;
            ]
        in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.uniform_agreement t)));
    tc "uniform integrity catches double decision" (fun () ->
        let t =
          trace_of
            [ propose ~at:0 ~pid:0 7; decide ~at:4 ~pid:0 ~round:1 7; decide ~at:5 ~pid:0 ~round:2 7 ]
        in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.uniform_integrity t)));
    tc "validity catches an invented value" (fun () ->
        let t = trace_of [ propose ~at:0 ~pid:0 7; decide ~at:4 ~pid:0 ~round:1 13 ] in
        Alcotest.(check int) "one violation" 1 (List.length (Spec.Consensus_props.validity t)));
    tc "metrics" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              decide ~at:4 ~pid:0 ~round:1 7;
              decide ~at:9 ~pid:1 ~round:3 7;
            ]
        in
        Alcotest.(check (option int)) "round" (Some 3) (Spec.Consensus_props.decision_round t);
        Alcotest.(check (option int)) "first" (Some 4) (Spec.Consensus_props.first_decision_time t);
        Alcotest.(check (option int)) "last" (Some 9) (Spec.Consensus_props.last_decision_time t));
  ]

(* Consensus_props composed property by property: each one walks
   [Trace.crashes], [Trace.decisions] and [Trace.proposals] itself.  The
   reference the one-pass checkers must match, violation for violation
   and in order. *)
module Consensus_ref = struct
  open Spec.Consensus_props

  let termination trace ~n =
    let crashed = Sim.Pid.set_of_list (List.map fst (Sim.Trace.crashes trace)) in
    let deciders =
      Sim.Pid.set_of_list (List.map (fun (p, _, _, _) -> p) (Sim.Trace.decisions trace))
    in
    List.filter_map
      (fun p ->
        if Sim.Pid.Set.mem p crashed || Sim.Pid.Set.mem p deciders then None
        else Some (No_decision p))
      (Sim.Pid.all ~n)

  let uniform_integrity trace =
    let counts = Hashtbl.create 8 in
    List.iter
      (fun (p, _, _, _) ->
        Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
      (Sim.Trace.decisions trace);
    Hashtbl.fold (fun p c acc -> if c > 1 then p :: acc else acc) counts []
    |> List.sort Sim.Pid.compare
    |> List.map (fun p -> Multiple_decisions p)

  let uniform_agreement trace =
    match Sim.Trace.decisions trace with
    | [] -> []
    | (p, v, _, _) :: rest ->
      List.filter_map
        (fun (q, w, _, _) -> if w <> v then Some (Disagreement { p; v; q; w }) else None)
        rest

  let validity trace =
    let proposed = List.map snd (Sim.Trace.proposals trace) in
    List.filter_map
      (fun (p, v, _, _) -> if List.mem v proposed then None else Some (Invalid_value { p; v }))
      (Sim.Trace.decisions trace)

  let check_safety trace = uniform_integrity trace @ uniform_agreement trace @ validity trace
  let check_all trace ~n = termination trace ~n @ check_safety trace
end

let pp_violations vs =
  String.concat "; " (List.map (Format.asprintf "%a" Spec.Consensus_props.pp_violation) vs)

(* [Error] names the first checker that differs from the reference. *)
let consensus_matches_ref trace ~n =
  let module C = Spec.Consensus_props in
  let module R = Consensus_ref in
  let cases =
    [
      ("check_all", C.check_all trace ~n, R.check_all trace ~n);
      ("check_safety", C.check_safety trace, R.check_safety trace);
      ("termination", C.termination trace ~n, R.termination trace ~n);
      ("uniform_integrity", C.uniform_integrity trace, R.uniform_integrity trace);
      ("uniform_agreement", C.uniform_agreement trace, R.uniform_agreement trace);
      ("validity", C.validity trace, R.validity trace);
    ]
  in
  match List.find_opt (fun (_, got, want) -> got <> want) cases with
  | None -> Ok ()
  | Some (name, got, want) ->
    Error
      (Printf.sprintf "%s: got [%s], reference [%s]" name (pp_violations got)
         (pp_violations want))

let consensus_ref_law trace ~n =
  match consensus_matches_ref trace ~n with
  | Ok () -> true
  | Error msg -> QCheck2.Test.fail_report msg

(* Random Crash/Propose/Decide/Note events over n processes and a few
   values, so that every violation kind turns up, often several at once. *)
let random_consensus_events ~n rng =
  List.init (Sim.Rng.int rng ~bound:30) (fun at ->
      let pid = Sim.Rng.int rng ~bound:n and value = Sim.Rng.int rng ~bound:4 in
      match Sim.Rng.int rng ~bound:4 with
      | 0 -> Sim.Trace.Crash { at; pid }
      | 1 -> propose ~at ~pid value
      | 2 -> decide ~at ~pid ~round:(Sim.Rng.int rng ~bound:3) value
      | _ -> Sim.Trace.Note { at; pid; tag = "noise"; detail = "" })

let consensus_props_ref_tests =
  [
    tc "each violation kind: one-pass checkers = reference" (fun () ->
        let module C = Spec.Consensus_props in
        let cases =
          [
            ( "undecided correct process",
              [ propose ~at:0 ~pid:0 7; propose ~at:0 ~pid:1 8; decide ~at:5 ~pid:0 ~round:1 7 ],
              [ C.No_decision 1 ] );
            ( "double decision",
              [
                propose ~at:0 ~pid:0 7;
                decide ~at:4 ~pid:0 ~round:1 7;
                decide ~at:5 ~pid:1 ~round:1 7;
                decide ~at:6 ~pid:0 ~round:2 7;
              ],
              [ C.Multiple_decisions 0 ] );
            ( "disagreement",
              [
                propose ~at:0 ~pid:0 7;
                propose ~at:0 ~pid:1 8;
                decide ~at:4 ~pid:1 ~round:1 8;
                Sim.Trace.Crash { at = 5; pid = 1 };
                decide ~at:6 ~pid:0 ~round:2 7;
              ],
              [ C.Disagreement { p = 1; v = 8; q = 0; w = 7 } ] );
            ( "unproposed value",
              [
                propose ~at:0 ~pid:0 7;
                decide ~at:4 ~pid:0 ~round:1 13;
                decide ~at:4 ~pid:1 ~round:1 13;
              ],
              [ C.Invalid_value { p = 0; v = 13 }; C.Invalid_value { p = 1; v = 13 } ] );
          ]
        in
        List.iter
          (fun (what, events, expected) ->
            let t = trace_of events in
            (match consensus_matches_ref t ~n:2 with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s: %s" what msg);
            Alcotest.(check string) what (pp_violations expected)
              (pp_violations (C.check_all t ~n:2)))
          cases);
    Test_util.qcheck ~count:500 ~name:"one-pass checkers = reference on random hand-built traces"
      QCheck2.Gen.(pair (int_range 1 6) Test_util.Gen.seed)
      (fun (n, seed) ->
        let t = trace_of (random_consensus_events ~n (Sim.Rng.create ~seed)) in
        consensus_ref_law t ~n);
    Test_util.qcheck ~count:20 ~name:"one-pass checkers = reference on generated consensus runs"
      QCheck2.Gen.(
        quad (int_range 3 7) Test_util.Gen.seed (oneofl [ 20; 15_000 ])
          (oneofl
             [
               Scenario.Ec Ecfd.Ec_consensus.default_params;
               Scenario.Ct;
               Scenario.Mr;
               Scenario.Hr;
             ]))
      (fun (n, seed, horizon, protocol) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:300 in
        let net = { Scenario.default_net with seed; gst = 150 } in
        let r =
          Scenario.run_consensus ~net ~crashes ~horizon ~n ~detector:Scenario.Leader_s ~protocol ()
        in
        consensus_ref_law r.trace ~n);
  ]

(* ------------------------------------------------------------------ *)
(* Round_metrics                                                      *)
(* ------------------------------------------------------------------ *)

let send ~at ~tag = Sim.Trace.Send { at; src = 0; dst = 1; msg = 0; component = "c"; tag }

let round_metrics_tests =
  [
    tc "round parsing" (fun () ->
        Alcotest.(check (option int)) "r3" (Some 3) (Spec.Round_metrics.round_of_tag "ack.r3");
        Alcotest.(check (option int)) "plain" None (Spec.Round_metrics.round_of_tag "ack");
        Alcotest.(check (option int)) "dotted" None (Spec.Round_metrics.round_of_tag "a.b"));
    tc "per-round and per-tag aggregation" (fun () ->
        let t =
          trace_of
            [
              send ~at:0 ~tag:"est.r1";
              send ~at:1 ~tag:"est.r1";
              send ~at:2 ~tag:"ack.r1";
              send ~at:3 ~tag:"est.r2";
              Sim.Trace.Send { at = 4; src = 0; dst = 1; msg = 0; component = "other"; tag = "est.r1" };
            ]
        in
        Alcotest.(check (list (pair int int))) "by round" [ (1, 3); (2, 1) ]
          (Spec.Round_metrics.sends_by_round t ~component:"c");
        Alcotest.(check int) "round 1" 3 (Spec.Round_metrics.sends_in_round t ~component:"c" ~round:1);
        Alcotest.(check (list (pair string int))) "by tag" [ ("ack", 1); ("est", 2) ]
          (Spec.Round_metrics.sends_by_tag_in_round t ~component:"c" ~round:1));
  ]

(* ------------------------------------------------------------------ *)
(* Timeline rendering                                                 *)
(* ------------------------------------------------------------------ *)

let timeline_tests =
  [
    tc "leadership cells show self, peer, crash" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              Sim.Trace.Crash { at = 50; pid = 0 };
              view ~at:60 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_leadership ~width:10 run ~horizon:100 in
        let lines = String.split_on_char '\n' out in
        let p1 = List.nth lines 0 and p2 = List.nth lines 1 in
        Alcotest.(check bool) "p1 leads itself then crashes" true
          (String.length p1 > 8
          && String.contains p1 '*'
          && String.contains p1 'X');
        Alcotest.(check bool) "p2 trusts p1 then itself" true
          (String.contains p2 '1' && String.contains p2 '*'));
    tc "suspicion cells count suspects" (fun () ->
        let t =
          trace_of
            [ view ~at:0 ~pid:0 ~trusted:0 [ 1 ]; view ~at:0 ~pid:1 ~trusted:0 [] ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_suspicions ~width:8 run ~horizon:80 in
        let lines = String.split_on_char '\n' out in
        Alcotest.(check bool) "p1 shows 1" true (String.contains (List.nth lines 0) '1');
        Alcotest.(check bool) "p2 shows 0" true (String.contains (List.nth lines 1) '0'));
    tc "decision cells move . -> p -> D" (fun () ->
        let t =
          trace_of [ propose ~at:10 ~pid:0 7; decide ~at:50 ~pid:0 ~round:1 7 ]
        in
        let out = Spec.Timeline.render_decisions ~width:10 t ~n:1 ~horizon:100 in
        let line = List.nth (String.split_on_char '\n' out) 0 in
        (* keep only the cells between the pipes: the label also has a 'p' *)
        let bar = String.index line '|' in
        let row = String.sub line (bar + 1) (String.rindex line '|' - bar - 1) in
        (* columns: 0 '.', 1.. 'p', 5.. 'D' *)
        Alcotest.(check bool) "shape" true
          (String.contains row '.' && String.contains row 'p' && String.contains row 'D');
        let dot = String.index row '.' and p = String.index row 'p' and d = String.index row 'D' in
        Alcotest.(check bool) "ordered" true (dot < p && p < d));
    tc "rows are horizon-aligned and one per process" (fun () ->
        let t =
          trace_of [ view ~at:0 ~pid:0 ~trusted:0 []; view ~at:0 ~pid:1 ~trusted:0 [] ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_leadership ~width:20 run ~horizon:100 in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
        Alcotest.(check int) "2 rows + axis" 3 (List.length lines));
  ]

(* ------------------------------------------------------------------ *)
(* Link_metrics                                                       *)
(* ------------------------------------------------------------------ *)

let send_on ~at ~src ~dst ~component =
  Sim.Trace.Send { at; src; dst; msg = 0; component; tag = "x" }

(* Hand-built traces for the [active_links] law.  Sends of the asked-for
   components, of [""] and of [nobody] (asked for by no case) are
   interleaved with the other message kinds and with process events;
   [at] is drawn per event, so it also decreases; some sends go to their
   own source, and some pids are in the thousands. *)
let link_event_gen =
  let open QCheck2.Gen in
  let pid = frequency [ (4, int_range 0 7); (2, int_range 995 1005); (1, int_range 0 5000) ] in
  let* kind = frequencyl [ (6, `Send); (1, `Deliver); (1, `Drop); (1, `Crash); (1, `Note) ] in
  let* at = int_range 0 40 in
  let* src = pid in
  let* dst = frequency [ (1, pure src); (4, pid) ] in
  let+ component = oneofl [ "a"; "b"; ""; "nobody" ] in
  match kind with
  | `Send -> Sim.Trace.Send { at; src; dst; msg = -1; component; tag = "t" }
  | `Deliver -> Sim.Trace.Deliver { at; src; dst; msg = -1; component; tag = "t" }
  | `Drop -> Sim.Trace.Drop { at; src; dst; msg = -1; component; tag = "t"; reason = "r" }
  | `Crash -> Sim.Trace.Crash { at; pid = src }
  | `Note -> Sim.Trace.Note { at; pid = src; tag = component; detail = "" }

(* A trace, the components asked for, and a window whose ends are mostly
   the instants of two of its sends, so both inclusive edges are hit. *)
let link_case_gen =
  let open QCheck2.Gen in
  let* events = list_size (int_range 0 60) link_event_gen in
  let* components = oneofl [ []; [ "a" ]; [ "" ]; [ "a"; "b" ]; [ "b"; ""; "a" ]; [ "zzz" ] ] in
  let sends = List.filter_map (function Sim.Trace.Send { at; _ } -> Some at | _ -> None) events in
  let edge =
    match sends with
    | [] -> int_range 0 40
    | _ -> frequency [ (4, oneofl sends); (1, int_range (-1) 41) ]
  in
  let+ a = edge and+ b = edge in
  (events, components, Stdlib.min a b, Stdlib.max a b)

let naive_active_links trace ~components ~from_t ~to_t =
  List.filter_map
    (fun (e : Sim.Trace.event) ->
      match e.body with
      | Send { at; src; dst; component; _ }
        when at >= from_t && at <= to_t && List.mem component components ->
        Some (src, dst)
      | _ -> None)
    (Sim.Trace.events trace)
  |> List.sort_uniq compare

let print_link_case (events, components, from_t, to_t) =
  Printf.sprintf "components [%s], window [%d, %d]\n%s"
    (String.concat "; " (List.map (Printf.sprintf "%S") components))
    from_t to_t
    (String.concat "\n" (List.map (Format.asprintf "%a" Sim.Trace.pp_body) events))

let pp_pairs l = String.concat " " (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) l)

let link_metrics_tests =
  [
    Test_util.qcheck ~count:500
      ~name:"active_links = filter-and-sort reference on hand-built traces" ~print:print_link_case
      link_case_gen (fun (events, components, from_t, to_t) ->
        let t = trace_of events in
        let got = Spec.Link_metrics.active_links t ~components ~from_t ~to_t in
        let expected = naive_active_links t ~components ~from_t ~to_t in
        if got = expected then true
        else
          QCheck2.Test.fail_reportf "active_links %s, expected %s" (pp_pairs got)
            (pp_pairs expected));
    tc "active_links: window and component filtering, dedup, order" (fun () ->
        let t =
          trace_of
            [
              send_on ~at:5 ~src:0 ~dst:1 ~component:"a";
              send_on ~at:6 ~src:0 ~dst:1 ~component:"a";
              send_on ~at:7 ~src:1 ~dst:0 ~component:"a";
              send_on ~at:8 ~src:2 ~dst:0 ~component:"b";
              send_on ~at:99 ~src:3 ~dst:0 ~component:"a";
            ]
        in
        Alcotest.(check (list (pair int int)))
          "deduped, in-window, component a" [ (0, 1); (1, 0) ]
          (Spec.Link_metrics.active_links t ~components:[ "a" ] ~from_t:0 ~to_t:50));
    tc "star_of is the 2(n-1) leader star" (fun () ->
        let star = Spec.Link_metrics.star_of ~leader:1 ~n:3 in
        Alcotest.(check (list (pair int int))) "star"
          [ (0, 1); (1, 0); (1, 2); (2, 1) ]
          star);
  ]

(* ------------------------------------------------------------------ *)
(* Clock_props                                                        *)
(* ------------------------------------------------------------------ *)

let n_violations = List.length

let clock_props_tests =
  [
    tc "recorded traces are causally consistent" (fun () ->
        let t = Sim.Trace.create () in
        Sim.Trace.record t (Sim.Trace.Propose { at = 0; pid = 0; value = 7 });
        Sim.Trace.record t
          (Sim.Trace.Send { at = 1; src = 0; dst = 1; msg = 5; component = "c"; tag = "x" });
        Sim.Trace.record t
          (Sim.Trace.Deliver { at = 3; src = 0; dst = 1; msg = 5; component = "c"; tag = "x" });
        Sim.Trace.record t (Sim.Trace.Crash { at = 4; pid = 1 });
        Alcotest.(check int) "clean" 0 (n_violations (Spec.Clock_props.check t)));
    tc "a full consensus run is causally consistent" (fun () ->
        let r =
          Scenario.run_consensus ~net:{ Scenario.default_net with seed = 2 } ~n:5
            ~detector:(Scenario.Scripted_stable 0)
            ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
        in
        Alcotest.(check (list string)) "clean" []
          (List.map
             (Format.asprintf "%a" Spec.Clock_props.pp_violation)
             (Spec.Clock_props.check r.trace)));
    tc "deliver stamped at or before its send is flagged" (fun () ->
        let events =
          [
            {
              Sim.Trace.seq = 0;
              lc = 4;
              body = Sim.Trace.Send { at = 1; src = 0; dst = 1; msg = 9; component = "c"; tag = "x" };
            };
            {
              Sim.Trace.seq = 1;
              lc = 4;
              body =
                Sim.Trace.Deliver { at = 2; src = 0; dst = 1; msg = 9; component = "c"; tag = "x" };
            };
          ]
        in
        match Spec.Clock_props.check_events events with
        | [ Spec.Clock_props.Causality_violation { msg = 9; send_lc = 4; deliver_lc = 4 } ] -> ()
        | vs ->
          Alcotest.failf "expected one causality violation, got: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Spec.Clock_props.pp_violation) vs)));
    tc "per-process clock regression is flagged" (fun () ->
        let events =
          [
            { Sim.Trace.seq = 0; lc = 5; body = Sim.Trace.Crash { at = 1; pid = 2 } };
            { Sim.Trace.seq = 1; lc = 3; body = Sim.Trace.Propose { at = 2; pid = 2; value = 1 } };
          ]
        in
        match Spec.Clock_props.check_events events with
        | [ Spec.Clock_props.Clock_regression { pid = 2; seq = 1; lc = 3; prev_lc = 5 } ] -> ()
        | vs -> Alcotest.failf "expected one regression, got %d violations" (List.length vs));
    tc "unmatched deliver and broken seq are flagged" (fun () ->
        let events =
          [
            {
              Sim.Trace.seq = 0;
              lc = 1;
              body =
                Sim.Trace.Deliver { at = 1; src = 0; dst = 1; msg = 7; component = "c"; tag = "x" };
            };
            { Sim.Trace.seq = 2; lc = 2; body = Sim.Trace.Crash { at = 2; pid = 0 } };
          ]
        in
        let vs = Spec.Clock_props.check_events events in
        Alcotest.(check bool) "unmatched deliver flagged" true
          (List.exists
             (function Spec.Clock_props.Unmatched_deliver { msg = 7; _ } -> true | _ -> false)
             vs);
        Alcotest.(check bool) "seq gap flagged" true
          (List.exists
             (function Spec.Clock_props.Nonmonotone_seq { seq = 2; prev = 0 } -> true | _ -> false)
             vs));
  ]

let suites =
  [
    ("spec.eventually", eventually_tests);
    ("spec.timeline", timeline_tests);
    ("spec.link_metrics", link_metrics_tests);
    ("spec.fd_props", fd_props_tests);
    ("spec.fd_props_ref", fd_props_equivalence_tests);
    ("spec.consensus_props", consensus_props_tests);
    ("spec.props_ref", consensus_props_ref_tests);
    ("spec.round_metrics", round_metrics_tests);
    ("spec.clock_props", clock_props_tests);
  ]
