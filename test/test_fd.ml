(* Tests of the failure-detector framework and the classic detector
   implementations it hosts. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Views and handles                                                  *)
(* ------------------------------------------------------------------ *)

let view_tests =
  [
    tc "empty view" (fun () ->
        Alcotest.(check bool) "nothing suspected" false (Fd.Fd_view.suspects Fd.Fd_view.empty 0);
        Alcotest.(check bool) "nobody trusted" true (Fd.Fd_view.empty.Fd.Fd_view.trusted = None));
    tc "equality is structural" (fun () ->
        let a = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 0; 2 ]) () in
        let b = Fd.Fd_view.make ~trusted:1 ~suspected:(Sim.Pid.set_of_list [ 2; 0 ]) () in
        Alcotest.(check bool) "equal" true (Fd.Fd_view.equal a b);
        let c = Fd.Fd_view.make ~trusted:2 ~suspected:(Sim.Pid.set_of_list [ 0; 2 ]) () in
        Alcotest.(check bool) "trusted differs" false (Fd.Fd_view.equal a c));
  ]

let handle_tests =
  [
    tc "set publishes changes once and records them" (fun () ->
        let e = Sim.Engine.create ~n:2 ~link:(Sim.Link.synchronous ~delay:1) () in
        let h = Fd.Fd_handle.make e ~component:"x" in
        let calls = ref 0 in
        Fd.Fd_handle.subscribe h (fun _ _ -> incr calls);
        let v = Fd.Fd_view.make ~trusted:1 ~suspected:Sim.Pid.Set.empty () in
        Fd.Fd_handle.set h 0 v;
        Fd.Fd_handle.set h 0 v;
        (* unchanged: no event *)
        Alcotest.(check int) "one notification" 1 !calls;
        Alcotest.(check bool) "query" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) v);
        (* creation records one view per process, plus the change *)
        Alcotest.(check int) "trace events" 3
          (List.length (Sim.Trace.fd_views ~component:"x" (Sim.Engine.trace e))));
    tc "update composes with the current view" (fun () ->
        let e = Sim.Engine.create ~n:2 ~link:(Sim.Link.synchronous ~delay:1) () in
        let h = Fd.Fd_handle.make e ~component:"x" in
        Fd.Fd_handle.update h 0 (fun v ->
            { v with Fd.Fd_view.suspected = Sim.Pid.Set.add 1 v.Fd.Fd_view.suspected });
        Alcotest.(check bool) "suspects p2" true
          (Sim.Pid.Set.mem 1 (Fd.Fd_handle.suspected h 0)));
  ]

(* A reference handle [replay_views] compares [Fd_handle] against:
   every reference records on its own engine, with component [ref_component]. *)
module type REFERENCE = sig
  type t

  val make : Sim.Engine.t -> t
  val set : t -> Sim.Pid.t -> Fd.Fd_view.t -> unit
  val calls : t -> (Sim.Pid.t * Fd.Fd_view.t) list  (** Subscriber calls, newest first. *)
end

let ref_component = "x"

(* The plain view diff: [Set.equal] to detect a change, then [Set.mem]
   both ways.  [Fd_handle.set] must match this reference event for
   event, though it walks only where the two sets differ. *)
module Set_diff_handle = struct
  type t = {
    engine : Sim.Engine.t;
    views : Fd.Fd_view.t array;
    spans : Sim.Engine.span option array array;
    mutable calls : (Sim.Pid.t * Fd.Fd_view.t) list;  (* newest first *)
  }

  let component = ref_component

  let record t p =
    let v = t.views.(p) in
    Sim.Engine.record_fd_view t.engine ~component p ~suspected:v.Fd.Fd_view.suspected
      ~trusted:v.Fd.Fd_view.trusted

  let make engine =
    let n = Sim.Engine.n engine in
    let t =
      {
        engine;
        views = Array.make n Fd.Fd_view.empty;
        spans = Array.init n (fun _ -> Array.make n None);
        calls = [];
      }
    in
    List.iter (fun p -> record t p) (Sim.Pid.all ~n);
    t

  let set t p v =
    if not (Fd.Fd_view.equal t.views.(p) v) then begin
      let old = t.views.(p) in
      Sim.Pid.Set.iter
        (fun q ->
          if not (Sim.Pid.Set.mem q old.Fd.Fd_view.suspected) then
            t.spans.(p).(q) <- Some (Sim.Engine.begin_span t.engine p ~component ~name:"suspicion"))
        v.Fd.Fd_view.suspected;
      Sim.Pid.Set.iter
        (fun q ->
          if not (Sim.Pid.Set.mem q v.Fd.Fd_view.suspected) then begin
            match t.spans.(p).(q) with
            | Some s ->
              Sim.Engine.end_span t.engine s;
              t.spans.(p).(q) <- None
            | None -> ()
          end)
        old.Fd.Fd_view.suspected;
      t.views.(p) <- v;
      record t p;
      t.calls <- (p, v) :: t.calls
    end

  let calls t = t.calls
end

(* The span row as a row of records: one [Engine.span] per open
   suspicion in a dense [span option] row per observer, opened with
   [begin_span] and closed with [end_span], under a stamp-and-size diff
   that walks whole views.  [Fd_handle] keeps the same spans as two int
   rows allocated on first suspicion; it must match this event for event
   and in the [engine.span_duration] histogram. *)
module Record_row_handle = struct
  type t = {
    engine : Sim.Engine.t;
    views : Fd.Fd_view.t array;
    spans : Sim.Engine.span option array array;
    sizes : int array;
    stamp : int array;
    mutable gen : int;
    mutable calls : (Sim.Pid.t * Fd.Fd_view.t) list;  (* newest first *)
  }

  let component = ref_component

  let record t p =
    let v = t.views.(p) in
    Sim.Engine.record_fd_view t.engine ~component p ~suspected:v.Fd.Fd_view.suspected
      ~trusted:v.Fd.Fd_view.trusted

  let make engine =
    let n = Sim.Engine.n engine in
    let t =
      {
        engine;
        views = Array.make n Fd.Fd_view.empty;
        spans = Array.init n (fun _ -> Array.make n None);
        sizes = Array.make n 0;
        stamp = Array.make n 0;
        gen = 0;
        calls = [];
      }
    in
    List.iter (fun p -> record t p) (Sim.Pid.all ~n);
    t

  let diff_suspected t p ~old_set ~new_set =
    let row = t.spans.(p) in
    t.gen <- t.gen + 1;
    let gen = t.gen in
    let size = ref 0 and fresh = ref 0 in
    Sim.Pid.Set.iter
      (fun q ->
        t.stamp.(q) <- gen;
        incr size;
        match row.(q) with
        | Some _ -> ()
        | None ->
          incr fresh;
          row.(q) <- Some (Sim.Engine.begin_span t.engine p ~component ~name:"suspicion"))
      new_set;
    let rescinded = !size - !fresh < t.sizes.(p) in
    if rescinded then
      Sim.Pid.Set.iter
        (fun q ->
          if t.stamp.(q) <> gen then
            match row.(q) with
            | Some s ->
              Sim.Engine.end_span t.engine s;
              row.(q) <- None
            | None -> ())
        old_set;
    t.sizes.(p) <- !size;
    !fresh > 0 || rescinded

  let set t p v =
    let old = t.views.(p) in
    let suspected_changed =
      old.Fd.Fd_view.suspected != v.Fd.Fd_view.suspected
      && diff_suspected t p ~old_set:old.Fd.Fd_view.suspected ~new_set:v.Fd.Fd_view.suspected
    in
    if suspected_changed || not (Option.equal Sim.Pid.equal old.Fd.Fd_view.trusted v.Fd.Fd_view.trusted)
    then begin
      t.views.(p) <- v;
      record t p;
      t.calls <- (p, v) :: t.calls
    end

  let calls t = t.calls
end

(* One step of a generated view sequence; pids are taken modulo n. *)
type view_op =
  | Subset of int * int * int option  (** p, membership bit mask, trusted *)
  | Rebuild of int  (** p's current view, its set rebuilt element by element *)
  | Retrust of int * int option  (** p's current set (physically), new trusted *)
  | Empty of int
  | Full of int  (** everybody, p itself included *)
  | Move of int * int  (** rescind one suspicion of p and add one, chosen by the seed *)
  | Suspect_one of int * int  (** p's current set plus one non-member, chosen by the seed *)
  | Rescind_one of int * int  (** p's current set less one member, chosen by the seed *)
  | Complement of int * int
      (** everybody except p and r, trusting r: a first Leader_s view *)

let view_op_gen =
  let open QCheck2.Gen in
  let pid = int_range 0 11 in
  let trusted = opt pid in
  frequency
    [
      (4, map3 (fun p m tr -> Subset (p, m, tr)) pid (int_bound 4095) trusted);
      (2, map (fun p -> Rebuild p) pid);
      (2, map2 (fun p tr -> Retrust (p, tr)) pid trusted);
      (1, map (fun p -> Empty p) pid);
      (1, map (fun p -> Full p) pid);
      (3, map2 (fun p r -> Move (p, r)) pid (int_bound 1_000));
      (2, map2 (fun p r -> Suspect_one (p, r)) pid (int_bound 1_000));
      (2, map2 (fun p r -> Rescind_one (p, r)) pid (int_bound 1_000));
      (3, map2 (fun p r -> Complement (p, r)) pid pid);
    ]

let pp_view_op = function
  | Subset (p, m, tr) ->
    Printf.sprintf "Subset(%d,%#x,%s)" p m (match tr with None -> "-" | Some q -> string_of_int q)
  | Rebuild p -> Printf.sprintf "Rebuild %d" p
  | Retrust (p, tr) ->
    Printf.sprintf "Retrust(%d,%s)" p (match tr with None -> "-" | Some q -> string_of_int q)
  | Empty p -> Printf.sprintf "Empty %d" p
  | Full p -> Printf.sprintf "Full %d" p
  | Move (p, r) -> Printf.sprintf "Move(%d,%d)" p r
  | Suspect_one (p, r) -> Printf.sprintf "Suspect_one(%d,%d)" p r
  | Rescind_one (p, r) -> Printf.sprintf "Rescind_one(%d,%d)" p r
  | Complement (p, r) -> Printf.sprintf "Complement(%d,%d)" p r

(* The view [op] publishes, given the current view of its process. *)
let view_of_op ~n ~current op =
  let all = Sim.Pid.all ~n in
  let pid q = q mod n in
  let trusted = Option.map pid in
  match op with
  | Subset (p, mask, tr) ->
    let suspected = Sim.Pid.set_of_list (List.filter (fun q -> mask land (1 lsl q) <> 0) all) in
    (pid p, Fd.Fd_view.make ?trusted:(trusted tr) ~suspected ())
  | Rebuild p ->
    let v = current (pid p) in
    let suspected = Sim.Pid.Set.fold Sim.Pid.Set.add v.Fd.Fd_view.suspected Sim.Pid.Set.empty in
    (pid p, { v with Fd.Fd_view.suspected })
  | Retrust (p, tr) ->
    let v = current (pid p) in
    (pid p, { v with Fd.Fd_view.trusted = trusted tr })
  | Empty p -> (pid p, Fd.Fd_view.empty)
  | Full p -> (pid p, Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list all) ())
  | Complement (p, r) ->
    let suspected = Sim.Pid.set_of_list (List.filter (fun q -> q <> pid p && q <> pid r) all) in
    (pid p, Fd.Fd_view.make ~trusted:(pid r) ~suspected ())
  | Move (p, r) | Suspect_one (p, r) | Rescind_one (p, r) ->
    let v = current (pid p) in
    let s = v.Fd.Fd_view.suspected in
    let members = Sim.Pid.Set.elements s in
    let others = List.filter (fun q -> not (Sim.Pid.Set.mem q s)) all in
    let pick l = match l with [] -> None | _ -> Some (List.nth l (r mod List.length l)) in
    let rescind = (match op with Suspect_one _ -> false | _ -> true)
    and suspect = (match op with Rescind_one _ -> false | _ -> true) in
    let s = match pick members with Some q when rescind -> Sim.Pid.Set.remove q s | _ -> s in
    let s = match pick others with Some q when suspect -> Sim.Pid.Set.add q s | _ -> s in
    (pid p, { v with Fd.Fd_view.suspected = s })

let event_equal (a : Sim.Trace.event) (b : Sim.Trace.event) =
  a.seq = b.seq && a.lc = b.lc
  &&
  match (a.body, b.body) with
  | Fd_view x, Fd_view y ->
    x.at = y.at && x.pid = y.pid && String.equal x.component y.component
    && Sim.Pid.Set.equal x.suspected y.suspected
    && Option.equal Int.equal x.trusted y.trusted
  | x, y -> x = y

let span_durations e =
  List.assoc_opt "engine.span_duration" (Obs.Registry.snapshot (Sim.Engine.obs e))

(* Replays [ops] on the real handle and on the reference [R], one engine
   each; [Error] names the first divergence. *)
let replay_views (module R : REFERENCE) ~n ops =
  let engine () = Sim.Engine.create ~n ~link:(Sim.Link.synchronous ~delay:1) () in
  let e = engine () and e_ref = engine () in
  let h = Fd.Fd_handle.make e ~component:ref_component in
  let r = R.make e_ref in
  let calls = ref [] in
  Fd.Fd_handle.subscribe h (fun p v -> calls := (p, v) :: !calls);
  (* [open_.(p).(q)]: the id of the suspicion span p holds on q, read off
     the trace: a call opens spans for its fresh suspicions in ascending
     q, then closes the rescinded ones in ascending q. *)
  let open_ = Array.make_matrix n n None in
  let seen = ref (Sim.Trace.length (Sim.Engine.trace e)) in
  let check_spans step p (old : Fd.Fd_view.t) (now : Fd.Fd_view.t) =
    let fresh = Sim.Pid.Set.diff now.suspected old.suspected |> Sim.Pid.Set.elements in
    let gone = Sim.Pid.Set.diff old.suspected now.suspected |> Sim.Pid.Set.elements in
    let events = Sim.Trace.events (Sim.Engine.trace e) in
    let added = List.filteri (fun i _ -> i >= !seen) events in
    seen := Sim.Trace.length (Sim.Engine.trace e);
    let opened, closed =
      List.fold_left
        (fun (o, c) (ev : Sim.Trace.event) ->
          match ev.body with
          | Span_begin { pid; span; name = "suspicion"; _ } when pid = p -> (span :: o, c)
          | Span_end { pid; span; name = "suspicion"; _ } when pid = p -> (o, span :: c)
          | _ -> (o, c))
        ([], []) added
    in
    let opened = List.rev opened and closed = List.rev closed in
    (* One change reads: its Span_begins, then its Span_ends, then the
       Fd_view; an unchanged view records nothing. *)
    let kinds =
      List.map
        (fun (ev : Sim.Trace.event) ->
          match ev.body with
          | Span_begin _ -> "begin"
          | Span_end _ -> "end"
          | Fd_view _ -> "view"
          | _ -> "other")
        added
    in
    let expected_kinds =
      List.map (fun _ -> "begin") fresh
      @ List.map (fun _ -> "end") gone
      @ if Fd.Fd_view.equal old now then [] else [ "view" ]
    in
    if kinds <> expected_kinds then
      Error
        (Printf.sprintf "step %d: trace reads [%s], expected [%s]" step (String.concat " " kinds)
           (String.concat " " expected_kinds))
    else if List.length opened <> List.length fresh then
      Error (Printf.sprintf "step %d: wrong span opens" step)
    else begin
      List.iter2 (fun q s -> open_.(p).(q) <- Some s) fresh opened;
      let expect_closed = List.filter_map (fun q -> open_.(p).(q)) gone in
      List.iter (fun q -> open_.(p).(q) <- None) gone;
      if closed <> expect_closed then Error (Printf.sprintf "step %d: wrong span closes" step)
      else
        (* The handle's own row must agree: an entry holds exactly the
           open span's id, and only while p suspects q. *)
        let bad =
          List.concat_map
            (fun p ->
              let s = Fd.Fd_handle.suspected h p in
              List.filter
                (fun q ->
                  Option.is_some open_.(p).(q) <> Sim.Pid.Set.mem q s
                  || Fd.Fd_handle.suspicion_span h p q <> open_.(p).(q))
                (Sim.Pid.all ~n))
            (Sim.Pid.all ~n)
        in
        if bad = [] then Ok ()
        else Error (Printf.sprintf "step %d: a span is open exactly when p suspects q fails" step)
    end
  in
  let rec go step = function
    | [] ->
      let evs = Sim.Trace.events (Sim.Engine.trace e) in
      let evs_ref = Sim.Trace.events (Sim.Engine.trace e_ref) in
      if not (List.equal event_equal evs evs_ref) then Error "trace events differ"
      else if
        not
          (List.equal
             (fun (p, v) (q, w) -> p = q && Fd.Fd_view.equal v w)
             !calls (R.calls r))
      then Error "subscriber calls differ"
      else if span_durations e <> span_durations e_ref then
        Error "engine.span_duration histograms differ"
      else Ok ()
    | op :: rest -> (
      let p, v = view_of_op ~n ~current:(Fd.Fd_handle.query h) op in
      let old = Fd.Fd_handle.query h p in
      Fd.Fd_handle.set h p v;
      R.set r p v;
      match check_spans step p old (Fd.Fd_handle.query h p) with
      | Error _ as err -> err
      | Ok () ->
        Sim.Engine.run_until e (Sim.Engine.now e + 1);
        Sim.Engine.run_until e_ref (Sim.Engine.now e_ref + 1);
        go (step + 1) rest)
  in
  go 0 ops

let view_sequences_law reference (n, ops) =
  match replay_views reference ~n ops with
  | Ok () -> true
  | Error msg -> QCheck2.Test.fail_report msg

let view_sequences_test ~name reference =
  Test_util.qcheck ~count:300 ~name
    ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map pp_view_op ops)))
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 0 40) view_op_gen))
    (view_sequences_law reference)

let handle_diff_tests =
  [
    view_sequences_test ~name:"set matches the Set.mem/Set.equal diff, and spans track views"
      (module Set_diff_handle);
    tc "hand-picked view sequences match the reference" (fun () ->
        let cases =
          [
            (3, [ Full 0; Rebuild 0; Retrust (0, Some 0); Empty 0; Empty 0; Full 0; Move (0, 1) ]);
            (1, [ Full 0; Retrust (0, Some 0); Rebuild 0; Empty 0 ]);
            (12, [ Full 5; Move (5, 3); Move (5, 3); Subset (5, 0b101, None); Empty 5; Full 5 ]);
            (* Batch rows (a first suspicion), then the changes that
               densify them. *)
            ( 12,
              [
                Complement (5, 3); Retrust (5, Some 4); Move (5, 2); Complement (7, 7);
                Rescind_one (7, 4); Complement (9, 0); Suspect_one (9, 0); Complement (2, 6);
                Empty 2;
              ] );
          ]
        in
        List.iter
          (fun (n, ops) ->
            List.iter
              (fun reference ->
                match replay_views reference ~n ops with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "n=%d: %s" n msg)
              [ (module Set_diff_handle : REFERENCE); (module Record_row_handle) ])
          cases);
    (* Batch and dense rows against the record rows they replaced: the
       same events, the same span-duration histogram, and after every
       [set] p's row entry for q holds a span exactly when p suspects q.
       [Complement] opens a batch row; a later [Move], [Suspect_one] or
       [Rescind_one] densifies it, and its ids and instants must carry
       over. *)
    view_sequences_test ~name:"int span rows match the record-based row, histogram included"
      (module Record_row_handle);
  ]

(* Minor words [f] allocates, less what measuring costs. *)
let minor_words f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let overhead = words (fun () -> ()) in
  words f -. overhead

let handle_alloc_tests =
  let n = 1000 and p = 0 and rounds = 1000 in
  let setup () =
    let e = Sim.Engine.create ~n ~link:(Sim.Link.synchronous ~delay:1) () in
    let h = Fd.Fd_handle.make e ~component:"x" in
    Fd.Fd_handle.subscribe h (fun _ _ -> ());
    (e, h)
  in
  let everybody_but q = Sim.Pid.Set.remove q (Sim.Pid.set_of_list (Sim.Pid.all ~n)) in
  [
    tc "n = 1000: moving one suspicion allocates < 56 minor words per set" (fun () ->
        let _, h = setup () in
        (* The two sets differ only at their top end, so a diff that
           compares them element by element walks them in full. *)
        let a = Fd.Fd_view.make ~trusted:(n - 1) ~suspected:(everybody_but (n - 1)) () in
        let b = Fd.Fd_view.make ~trusted:(n - 2) ~suspected:(everybody_but (n - 2)) () in
        Fd.Fd_handle.set h p a;
        let words =
          minor_words (fun () ->
              for i = 1 to rounds do
                Fd.Fd_handle.set h p (if i land 1 = 1 then b else a)
              done)
        in
        let per_set = words /. float_of_int rounds in
        if per_set >= 56. then Alcotest.failf "%.1f minor words per view change" per_set);
    tc "n = 1000: an equal view built afresh records nothing and allocates < 64 words" (fun () ->
        let e, h = setup () in
        let a = Fd.Fd_view.make ~trusted:1 ~suspected:(everybody_but 1) () in
        Fd.Fd_handle.set h p a;
        let copies =
          Array.init 16 (fun _ -> Fd.Fd_view.make ~trusted:1 ~suspected:(everybody_but 1) ())
        in
        let len = Sim.Trace.length (Sim.Engine.trace e) in
        let words =
          minor_words (fun () -> Array.iter (fun v -> Fd.Fd_handle.set h p v) copies)
        in
        Alcotest.(check int) "no event" len (Sim.Trace.length (Sim.Engine.trace e));
        let per_set = words /. float_of_int (Array.length copies) in
        if per_set >= 64. then Alcotest.failf "%.1f minor words per unchanged publish" per_set);
    tc "n = 1000: empty -> empty allocates nothing" (fun () ->
        let e, h = setup () in
        let v = Fd.Fd_view.make ~suspected:Sim.Pid.Set.empty () in
        let len = Sim.Trace.length (Sim.Engine.trace e) in
        let words =
          minor_words (fun () ->
              for _ = 1 to rounds do
                Fd.Fd_handle.set h p v
              done)
        in
        Alcotest.(check int) "no event" len (Sim.Trace.length (Sim.Engine.trace e));
        Alcotest.(check (float 0.)) "minor words" 0. words);
  ]

(* ------------------------------------------------------------------ *)
(* Classes                                                            *)
(* ------------------------------------------------------------------ *)

let classes_tests =
  [
    tc "defining properties" (fun () ->
        Alcotest.(check int) "<>P has 2" 2 (List.length (Fd.Classes.properties Fd.Classes.P_eventual));
        Alcotest.(check int) "<>C has 4" 4 (List.length (Fd.Classes.properties Fd.Classes.Ec)));
    tc "implication closure" (fun () ->
        let implied = Fd.Classes.implied_properties Fd.Classes.P_eventual in
        Alcotest.(check bool) "weak completeness implied" true
          (List.mem Fd.Classes.Weak_completeness implied);
        Alcotest.(check bool) "weak accuracy implied" true
          (List.mem Fd.Classes.Eventual_weak_accuracy implied));
    tc "names" (fun () ->
        Alcotest.(check string) "ec" "<>C" (Fd.Classes.name Fd.Classes.Ec);
        Alcotest.(check string) "omega" "Omega" (Fd.Classes.name Fd.Classes.Omega));
  ]

(* ------------------------------------------------------------------ *)
(* Detector end-to-end behaviour                                      *)
(* ------------------------------------------------------------------ *)

let report_holds (r : Spec.Fd_props.report) = r.holds

let heartbeat_tests =
  [
    tc "failure-free: eventual strong accuracy on a chaotic net" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:5 ~gst:400 ())
            ~n:5 ~detector:Scenario.Heartbeat_p ()
        in
        Test_util.check_class "heartbeat-p" Fd.Classes.P_eventual run);
    tc "crashes are permanently suspected by everybody" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (1, 100); (3, 700) ])
            ~detector:Scenario.Heartbeat_p ()
        in
        Test_util.check_class "heartbeat-p" Fd.Classes.P_eventual run);
    tc "costs n(n-1) messages per period" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Heartbeat_p.install e Fd.Heartbeat_p.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Heartbeat_p.default_params.Fd.Heartbeat_p.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Heartbeat_p.component
        in
        Alcotest.(check int) "10 periods" (10 * n * (n - 1)) sent);
    tc "detection latency is about one timeout" (fun () ->
        let crash_at = 500 in
        let _, run, _ =
          Scenario.fd_run ~n:4 ~crashes:(Sim.Fault.crash 2 ~at:crash_at)
            ~detector:Scenario.Heartbeat_p ()
        in
        match Spec.Fd_props.detection_time run ~victim:2 with
        | None -> Alcotest.fail "never detected"
        | Some t ->
          Alcotest.(check bool)
            (Printf.sprintf "latency %d within timeout+2 periods" (t - crash_at))
            true
            (t - crash_at <= 30 + 20 + 10));
  ]

let ring_tests =
  [
    tc "satisfies <>S under crashes" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:6
            ~crashes:(Sim.Fault.crashes [ (0, 200); (3, 400) ])
            ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run);
    tc "chaotic start: accuracy recovers after GST" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:9 ~gst:600 ())
            ~horizon:8000 ~n:5 ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run);
    tc "costs 2n messages per period" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Ring_s.install e Fd.Ring_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Ring_s.default_params.Fd.Ring_s.period));
        let sent = Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Ring_s.component in
        Alcotest.(check int) "10 periods of polls+replies" (10 * 2 * n) sent);
    tc "adjacent crashes are healed around the ring" (fun () ->
        (* p2 and p3 adjacent on the ring: p4's monitor walk must cross both. *)
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (2, 100); (3, 100) ])
            ~detector:Scenario.Ring_s ()
        in
        Test_util.check_class "ring-s" Fd.Classes.S_eventual run;
        Alcotest.(check bool) "strong accuracy too (benign net)" true
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
    tc "without propagation only weak completeness holds" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:6 ~crashes:(Sim.Fault.crash 2 ~at:100) ~detector:Scenario.Ring_w ()
        in
        Alcotest.(check bool) "weak holds" true
          (report_holds (Spec.Fd_props.weak_completeness run));
        Alcotest.(check bool) "strong fails" false
          (report_holds (Spec.Fd_props.strong_completeness run)));
    tc "the no-propagation ring is even <>Q-grade (strong accuracy)" (fun () ->
        (* Its (local) false suspicions are rescinded on direct replies, so
           under partial synchrony it also offers eventual strong accuracy:
           weak completeness + strong accuracy = the ◇Q corner of Fig. 1. *)
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:15 ~gst:400 ())
            ~horizon:8000 ~n:5 ~crashes:(Sim.Fault.crash 1 ~at:600)
            ~detector:Scenario.Ring_w ()
        in
        Test_util.check_class "ring-w as <>Q" Fd.Classes.Q_eventual run);
  ]

let leader_tests =
  [
    tc "everyone converges on the first correct process" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (0, 150); (1, 300) ])
            ~detector:Scenario.Leader_s ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader is p3" (Some 2) (Spec.Fd_props.eventual_leader run));
    tc "satisfies <>S (with Omega-grade accuracy)" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5 ~crashes:(Sim.Fault.crash 0 ~at:150) ~detector:Scenario.Leader_s ()
        in
        Test_util.check_class "leader-s" Fd.Classes.S_eventual run;
        Alcotest.(check bool) "not <>P by construction" false
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
    tc "costs n-1 messages per period once stable" (fun () ->
        let n = 7 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Leader_s.install e Fd.Leader_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Leader_s.default_params.Fd.Leader_s.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Leader_s.component
        in
        Alcotest.(check int) "only the leader beats" (10 * (n - 1)) sent);
    tc "chaotic start still converges" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:13 ~gst:500 ())
            ~horizon:8000 ~n:6 ~detector:Scenario.Leader_s ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run)));
  ]

let stable_omega_tests =
  [
    tc "elects the initial leader and holds it, failure-free" (fun () ->
        let _, run, _ = Scenario.fd_run ~n:5 ~detector:Scenario.Stable_omega () in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader p1" (Some 0) (Spec.Fd_props.eventual_leader run));
    tc "re-elects exactly once per leader crash" (fun () ->
        let _, run, _ =
          Scenario.fd_run ~n:5
            ~crashes:(Sim.Fault.crashes [ (0, 300); (1, 900) ])
            ~detector:Scenario.Stable_omega ()
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        (* p3 observes: init + crash of p1 + crash of p2 = at most a couple
           of switches, none of them demoting a live leader. *)
        Alcotest.(check bool) "few changes" true (Spec.Fd_props.leader_changes run 3 <= 3);
        Alcotest.(check int) "no live demotion" 0
          (Spec.Fd_props.demotions_of_live_leaders run 3));
    tc "stability: a returning demoted process does not grab leadership back" (fun () ->
        (* Freeze p1's outgoing heartbeats with a custom link for a while:
           everyone demotes it; when its heartbeats resume, the incumbent
           stays (contrast with Leader_s, which flips back). *)
        let n = 4 in
        let blackout_from = 100 and blackout_to = 400 in
        let base = Sim.Link.synchronous ~delay:2 in
        let link =
          Sim.Link.route (fun ~src ~dst:_ ->
              if src = 0 then
                {
                  Sim.Link.fate =
                    (fun ~rng ~now ~src ~dst ->
                      if now >= blackout_from && now <= blackout_to then Sim.Link.drop
                      else base.Sim.Link.fate ~rng ~now ~src ~dst);
                }
              else base)
        in
        let run_with install_detector component =
          let e = Sim.Engine.create ~seed:1 ~n ~link () in
          let _ = install_detector e in
          Sim.Engine.run_until e 3000;
          let run = Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace e) in
          (Spec.Fd_props.eventual_leader run, Spec.Fd_props.leader_changes run 2)
        in
        let stable_leader, stable_changes =
          run_with
            (fun e -> Fd.Stable_omega.install e Fd.Stable_omega.default_params)
            Fd.Stable_omega.component
        in
        let plain_leader, plain_changes =
          run_with
            (fun e -> Fd.Leader_s.install e Fd.Leader_s.default_params)
            Fd.Leader_s.component
        in
        (* Stable: p1 demoted once during the blackout, p2 keeps the crown
           afterwards.  Plain order-based: p1 reclaims it. *)
        Alcotest.(check (option int)) "stable keeps the incumbent" (Some 1) stable_leader;
        Alcotest.(check (option int)) "plain flips back to p1" (Some 0) plain_leader;
        Alcotest.(check bool)
          (Printf.sprintf "fewer switches (stable %d vs plain %d)" stable_changes plain_changes)
          true
          (stable_changes <= plain_changes));
    tc "chaotic start: still satisfies Omega (and <>C via the construction)" (fun () ->
        let _, run, _ =
          Scenario.fd_run
            ~net:(Scenario.chaotic_net ~seed:29 ~gst:500 ())
            ~horizon:9000 ~n:6 ~crashes:(Sim.Fault.crash 0 ~at:700)
            ~detector:Scenario.Ec_from_stable ()
        in
        Test_util.check_class "ec-from-stable" Fd.Classes.Ec run);
    tc "costs n-1 messages per period once stable" (fun () ->
        let n = 7 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Stable_omega.install e Fd.Stable_omega.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Stable_omega.default_params.Fd.Stable_omega.period));
        Alcotest.(check int) "only the leader beats" (10 * (n - 1))
          (Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Stable_omega.component));
  ]

let omega_from_s_tests =
  [
    tc "elects a common correct leader over ring-<>S" (fun () ->
        let e = Scenario.engine ~n:5 () in
        Sim.Fault.apply e (Sim.Fault.crash 0 ~at:200);
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let omega = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 6000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component omega)
            ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run)));
    tc "survives the crash of the current leader" (fun () ->
        let e = Scenario.engine ~n:5 () in
        (* p1 is the initial argmin; kill it after stabilisation. *)
        Sim.Fault.apply e (Sim.Fault.crash 0 ~at:1500);
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let omega = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 8000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component omega)
            ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        match Spec.Fd_props.eventual_leader run with
        | Some l -> Alcotest.(check bool) "leader correct" true (l <> 0)
        | None -> Alcotest.fail "no leader");
    tc "costs n(n-1) messages per period (the expensive route)" (fun () ->
        let n = 5 in
        let e = Scenario.engine ~n () in
        let ring = Fd.Ring_s.install e Fd.Ring_s.default_params in
        let _ = Fd.Omega_from_s.install e ~underlying:ring Fd.Omega_from_s.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Omega_from_s.default_params.Fd.Omega_from_s.period));
        let sent =
          Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Omega_from_s.component
        in
        Alcotest.(check int) "broadcasts" (10 * n * (n - 1)) sent);
  ]

(* The eventual-source fabric of [3]: only [source]'s output links are
   timely; every other link suffers ever-growing silence windows, so no
   time-out — even an adaptive one — can hold on it forever. *)
let eventual_source_link ~source =
  let timely = Sim.Link.reliable ~min_delay:1 ~max_delay:8 () in
  let silent = Sim.Link.growing_blackouts () in
  Sim.Link.route (fun ~src ~dst:_ ->
      if Sim.Pid.equal src source then timely else silent)

let omega_source_tests =
  [
    tc "elects the eventual source, not the smallest id" (fun () ->
        let n = 5 in
        let source = 2 in
        let e = Sim.Engine.create ~seed:1 ~n ~link:(eventual_source_link ~source) () in
        let h = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 30_000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component h) ~n (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true
          (report_holds (Spec.Fd_props.leadership run));
        Alcotest.(check (option int)) "leader is the source" (Some source)
          (Spec.Fd_props.eventual_leader run));
    tc "the order-based election keeps flapping on that fabric" (fun () ->
        (* Same system, Leader_s: whenever a silence window ends, p1's
           heartbeats resume and leadership is handed back to it; the next
           window takes it away again — no permanent leader.  (This is the
           [3] separation that motivates the counter-based algorithm.)  The
           counter-based election is settled long before the same point. *)
        let n = 5 in
        let run_of install component =
          let e = Sim.Engine.create ~seed:1 ~n ~link:(eventual_source_link ~source:2) () in
          install e;
          Sim.Engine.run_until e 30_000;
          Spec.Fd_props.make_run ~component ~n (Sim.Engine.trace e)
        in
        let plain =
          run_of
            (fun e -> ignore (Fd.Leader_s.install e Fd.Leader_s.default_params))
            Fd.Leader_s.component
        in
        let counter =
          run_of
            (fun e -> ignore (Fd.Omega_source.install e Fd.Omega_source.default_params))
            Fd.Omega_source.component
        in
        let late_plain = Spec.Fd_props.leader_changes_after plain 3 ~after:15_000 in
        let late_counter = Spec.Fd_props.leader_changes_after counter 3 ~after:15_000 in
        Alcotest.(check bool)
          (Printf.sprintf "plain flaps late in the run (%d changes)" late_plain)
          true (late_plain > 0);
        Alcotest.(check int) "counter-based is settled" 0 late_counter);
    tc "still plain Omega under full partial synchrony, with crashes" (fun () ->
        let e = Scenario.engine ~n:5 () in
        Sim.Fault.apply e (Sim.Fault.crashes [ (0, 300); (2, 800) ]);
        let h = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 8000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component h) ~n:5 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "leadership" true (report_holds (Spec.Fd_props.leadership run));
        match Spec.Fd_props.eventual_leader run with
        | Some l -> Alcotest.(check bool) "correct leader" true (l <> 0 && l <> 2)
        | None -> Alcotest.fail "no leader");
    tc "costs n(n-1) per period (the price of weak assumptions)" (fun () ->
        let n = 6 in
        let e = Scenario.engine ~n () in
        let _ = Fd.Omega_source.install e Fd.Omega_source.default_params in
        Sim.Engine.run_until e 1000;
        let snap = Sim.Stats.snapshot (Sim.Engine.stats e) in
        Sim.Engine.run_until e (1000 + (10 * Fd.Omega_source.default_params.Fd.Omega_source.period));
        Alcotest.(check int) "all-to-all" (10 * n * (n - 1))
          (Sim.Stats.sent_since (Sim.Engine.stats e) snap ~component:Fd.Omega_source.component));
  ]

let weak_to_strong_tests =
  [
    tc "amplifies ring-<>W to strong completeness" (fun () ->
        let e = Scenario.engine ~n:6 () in
        Sim.Fault.apply e (Sim.Fault.crash 2 ~at:100);
        let weak = Fd.Ring_s.install e { Fd.Ring_s.default_params with propagate = false } in
        let strong =
          Fd.Weak_to_strong.install e ~underlying:weak Fd.Weak_to_strong.default_params
        in
        Sim.Engine.run_until e 6000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component strong)
            ~n:6 (Sim.Engine.trace e)
        in
        Test_util.check_class "w->s" Fd.Classes.S_eventual run);
    tc "preserves accuracy: transient accusations die out" (fun () ->
        (* A scripted underlying detector that wrongly suspects p1 for a
           while, then stops: the output must eventually clear p1. *)
        let e = Scenario.engine ~n:4 () in
        let bad = Fd.Fd_view.make ~suspected:(Sim.Pid.set_of_list [ 0 ]) () in
        let scripted =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.empty)
            ~steps:
              [
                { Fd.Scripted.at = 50; pid = 2; view = bad };
                { Fd.Scripted.at = 400; pid = 2; view = Fd.Fd_view.empty };
              ]
            ()
        in
        let strong =
          Fd.Weak_to_strong.install e ~underlying:scripted Fd.Weak_to_strong.default_params
        in
        Sim.Engine.run_until e 3000;
        let run =
          Spec.Fd_props.make_run
            ~component:(Fd.Fd_handle.component strong)
            ~n:4 (Sim.Engine.trace e)
        in
        Alcotest.(check bool) "eventual strong accuracy" true
          (report_holds (Spec.Fd_props.eventual_strong_accuracy run)));
  ]

let oracle_scripted_tests =
  [
    tc "oracle is a perfect detector" (fun () ->
        let e = Scenario.engine ~n:4 () in
        let schedule = Sim.Fault.crashes [ (1, 100); (2, 500) ] in
        Sim.Fault.apply e schedule;
        let p = Fd.Oracle_p.install e ~schedule Fd.Oracle_p.default_params in
        Sim.Engine.run_until e 2000;
        let run =
          Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n:4 (Sim.Engine.trace e)
        in
        Test_util.check_class "oracle" Fd.Classes.P_eventual run;
        (* Strong accuracy holds from the very start: no premature suspicion. *)
        let tl = Spec.Fd_props.timeline run 0 in
        Alcotest.(check bool) "never suspects correct p4" true
          (List.for_all (fun (_, v) -> not (Fd.Fd_view.suspects v 3)) tl));
    tc "scripted applies steps at their instants" (fun () ->
        let e = Scenario.engine ~n:3 () in
        let v1 = Fd.Fd_view.make ~trusted:2 ~suspected:(Sim.Pid.set_of_list [ 1 ]) () in
        let h =
          Fd.Scripted.install e
            ~initial:(fun _ -> Fd.Fd_view.empty)
            ~steps:[ { Fd.Scripted.at = 10; pid = 0; view = v1 } ]
            ()
        in
        Sim.Engine.run_until e 5;
        Alcotest.(check bool) "before" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) Fd.Fd_view.empty);
        Sim.Engine.run_until e 20;
        Alcotest.(check bool) "after" true (Fd.Fd_view.equal (Fd.Fd_handle.query h 0) v1));
    tc "stable views match the Theorem 3 adversary" (fun () ->
        let v = Fd.Scripted.stable ~leader:1 ~n:4 3 in
        Alcotest.(check (option int)) "trusts leader" (Some 1) v.Fd.Fd_view.trusted;
        Alcotest.(check bool) "suspects p1" true (Fd.Fd_view.suspects v 0);
        Alcotest.(check bool) "not leader" false (Fd.Fd_view.suspects v 1);
        Alcotest.(check bool) "not self" false (Fd.Fd_view.suspects v 3));
  ]

(* Cross-cutting qcheck: every detector satisfies its class on random
   minority-crash schedules. *)
let property_tests =
  let detector_satisfies detector cls =
    Test_util.qcheck ~count:15
      ~name:(Printf.sprintf "%s satisfies %s on random runs" (Scenario.detector_name detector) (Fd.Classes.name cls))
      QCheck2.Gen.(tup2 (int_range 3 7) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let crashes = Sim.Fault.random_minority rng ~n ~latest:400 in
        let net = { Scenario.default_net with seed; gst = 200 } in
        let _, run, _ = Scenario.fd_run ~net ~crashes ~horizon:8000 ~n ~detector () in
        Test_util.bool_law
          (Printf.sprintf "n=%d seed=%d crashes=%s" n seed
             (Format.asprintf "%a" Sim.Fault.pp crashes))
          (Spec.Fd_props.satisfies_class cls run))
  in
  [
    detector_satisfies Scenario.Heartbeat_p Fd.Classes.P_eventual;
    detector_satisfies Scenario.Ring_s Fd.Classes.S_eventual;
    detector_satisfies Scenario.Leader_s Fd.Classes.S_eventual;
    detector_satisfies Scenario.Ring_w Fd.Classes.W_eventual;
  ]

let suites =
  [
    ("fd.view", view_tests);
    ("fd.handle", handle_tests);
    ("fd.handle.diff", handle_diff_tests);
    ("fd.handle.alloc", handle_alloc_tests);
    ("fd.classes", classes_tests);
    ("fd.heartbeat_p", heartbeat_tests);
    ("fd.ring_s", ring_tests);
    ("fd.leader_s", leader_tests);
    ("fd.stable_omega", stable_omega_tests);
    ("fd.omega_from_s", omega_from_s_tests);
    ("fd.omega_source", omega_source_tests);
    ("fd.weak_to_strong", weak_to_strong_tests);
    ("fd.oracle_scripted", oracle_scripted_tests);
    ("fd.properties", property_tests);
  ]
