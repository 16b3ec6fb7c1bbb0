(* Detector QoS analytics: the Obs.Qos fold math on hand-built event
   streams, the Obs.Rollup aggregates, and the tracequery rollup against
   a checked-in golden trace. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* The QoS fold on hand-built event streams                            *)
(* ------------------------------------------------------------------ *)

let pair_of (report : Obs.Qos.report) ~observer ~subject =
  List.find
    (fun (p : Obs.Qos.pair) -> p.observer = observer && p.subject = subject)
    report.Obs.Qos.pairs

let leader_of (report : Obs.Qos.report) ~observer =
  List.find (fun (l : Obs.Qos.leader) -> l.l_observer = observer) report.Obs.Qos.leaders

let view ~at ~observer ?(suspected = []) ?trusted () =
  Obs.Qos.View { at; observer; suspected; trusted }

let fold_tests =
  [
    tc "empty run: full windows, no mistakes, nothing detected" (fun () ->
        let r = Obs.Qos.of_events ~n:2 ~horizon:100 [] in
        Alcotest.(check int) "all ordered pairs" 2 (List.length r.Obs.Qos.pairs);
        List.iter
          (fun (p : Obs.Qos.pair) ->
            Alcotest.(check int) "window" 100 p.window;
            Alcotest.(check int) "up_time" 100 p.up_time;
            Alcotest.(check int) "incorrect_time" 0 p.incorrect_time;
            Alcotest.(check int) "mistakes" 0 p.mistakes;
            Alcotest.(check bool) "no detection" true (p.detection_time = None))
          r.Obs.Qos.pairs);
    tc "detected crash: TD runs from the crash to the final suspicion" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              Obs.Qos.Crash { at = 40; pid = 1 };
              view ~at:70 ~observer:0 ~suspected:[ 1 ] ();
            ]
        in
        let p = pair_of r ~observer:0 ~subject:1 in
        Alcotest.(check bool) "TD 30" true (p.detection_time = Some 30);
        Alcotest.(check bool) "crash instant" true (p.subject_crashed_at = Some 40);
        Alcotest.(check int) "up_time stops at the crash" 40 p.up_time;
        Alcotest.(check int) "outage = undetected span" 30 p.incorrect_time;
        Alcotest.(check int) "longest_outage" 30 p.longest_outage;
        Alcotest.(check int) "a post-crash suspicion is no mistake" 0 p.mistakes);
    tc "premature suspicion rescinded: one mistake, its span accrued" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              view ~at:10 ~observer:0 ~suspected:[ 1 ] ();
              view ~at:25 ~observer:0 ();
            ]
        in
        let p = pair_of r ~observer:0 ~subject:1 in
        Alcotest.(check int) "mistakes" 1 p.mistakes;
        Alcotest.(check int) "mistake_time" 15 p.mistake_time;
        Alcotest.(check int) "longest_mistake" 15 p.longest_mistake;
        Alcotest.(check int) "incorrect_time" 15 p.incorrect_time;
        Alcotest.(check int) "up_time is the full window" 100 p.up_time;
        Alcotest.(check bool) "no crash, no detection" true (p.detection_time = None));
    tc "suspicion predating the crash: TD = 0, mistake until the crash" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              view ~at:10 ~observer:0 ~suspected:[ 1 ] ();
              Obs.Qos.Crash { at = 30; pid = 1 };
            ]
        in
        let p = pair_of r ~observer:0 ~subject:1 in
        Alcotest.(check bool) "TD 0" true (p.detection_time = Some 0);
        Alcotest.(check int) "one mistake" 1 p.mistakes;
        Alcotest.(check int) "mistake truncated at the crash" 20 p.mistake_time;
        Alcotest.(check int) "incorrect only while alive-and-suspected" 20 p.incorrect_time;
        Alcotest.(check int) "up_time" 30 p.up_time);
    tc "observer crash freezes its accounting window" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100 [ Obs.Qos.Crash { at = 50; pid = 0 } ]
        in
        let p01 = pair_of r ~observer:0 ~subject:1 in
        Alcotest.(check int) "window frozen at 50" 50 p01.window;
        Alcotest.(check int) "up_time" 50 p01.up_time;
        Alcotest.(check int) "incorrect_time" 0 p01.incorrect_time;
        let p10 = pair_of r ~observer:1 ~subject:0 in
        Alcotest.(check int) "live observer keeps the full window" 100 p10.window;
        Alcotest.(check bool) "subject crash seen" true (p10.subject_crashed_at = Some 50);
        Alcotest.(check bool) "never suspected: undetected" true (p10.detection_time = None);
        Alcotest.(check int) "outage to the horizon" 50 p10.incorrect_time;
        Alcotest.(check int) "longest_outage" 50 p10.longest_outage;
        let l0 = leader_of r ~observer:0 in
        Alcotest.(check int) "crashed observer's leader window freezes too" 50 l0.l_window);
    tc "leader: every transition counts, steady time is the last one" (fun () ->
        let r =
          Obs.Qos.of_events ~n:3 ~horizon:100
            [
              view ~at:0 ~observer:0 ~trusted:0 ();
              view ~at:20 ~observer:0 ~trusted:1 ();
              view ~at:20 ~observer:1 ~trusted:1 ();
            ]
        in
        let l0 = leader_of r ~observer:0 in
        Alcotest.(check int) "initial election + change" 2 l0.l_changes;
        Alcotest.(check bool) "steady at the last change" true (l0.l_steady_at = Some 20);
        Alcotest.(check bool) "final leader" true (l0.l_final = Some 1);
        let l2 = leader_of r ~observer:2 in
        Alcotest.(check int) "no output, no changes" 0 l2.l_changes;
        Alcotest.(check bool) "never elected" true (l2.l_steady_at = None));
    tc "duplicate crashes and post-crash views are ignored" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              Obs.Qos.Crash { at = 40; pid = 1 };
              Obs.Qos.Crash { at = 60; pid = 1 };
              view ~at:70 ~observer:1 ~suspected:[ 0 ] ();
            ]
        in
        let p = pair_of r ~observer:0 ~subject:1 in
        Alcotest.(check bool) "first crash instant wins" true (p.subject_crashed_at = Some 40);
        let p10 = pair_of r ~observer:1 ~subject:0 in
        Alcotest.(check int) "a dead observer's view change is dropped" 0 p10.mistakes);
  ]

(* ------------------------------------------------------------------ *)
(* Rollup aggregates                                                   *)
(* ------------------------------------------------------------------ *)

let rollup_tests =
  [
    tc "aggregate over a detected crash" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              Obs.Qos.Crash { at = 40; pid = 1 };
              view ~at:70 ~observer:0 ~suspected:[ 1 ] ();
            ]
        in
        let a = Obs.Rollup.aggregate r in
        Alcotest.(check int) "pairs" 2 a.Obs.Rollup.a_pairs;
        Alcotest.(check int) "crashed" 1 a.Obs.Rollup.a_crashed;
        Alcotest.(check int) "detected" 1 a.Obs.Rollup.a_detected;
        Alcotest.(check int) "undetected" 0 a.Obs.Rollup.a_undetected;
        Alcotest.(check bool) "mean TD" true (a.Obs.Rollup.a_detection_mean = Some 30.0);
        Alcotest.(check int) "max TD" 30 a.Obs.Rollup.a_detection_max;
        (* windows: 100 (live pair 0->1) + 40 (1->0 frozen at 1's crash);
           the only incorrect span is the 30-tick undetected outage. *)
        Alcotest.(check int) "window total" 140 a.Obs.Rollup.a_window_total;
        Alcotest.(check int) "downtime" 30 a.Obs.Rollup.a_incorrect_total;
        Alcotest.(check (float 1e-9))
          "availability %" (100.0 *. (1.0 -. (30.0 /. 140.0)))
          a.Obs.Rollup.a_availability_pct);
    tc "aggregate mistake rate and query accuracy" (fun () ->
        let r =
          Obs.Qos.of_events ~n:2 ~horizon:100
            [
              view ~at:10 ~observer:0 ~suspected:[ 1 ] ();
              view ~at:25 ~observer:0 ();
            ]
        in
        let a = Obs.Rollup.aggregate r in
        Alcotest.(check int) "one mistake" 1 a.Obs.Rollup.a_mistakes;
        Alcotest.(check int) "mistake time" 15 a.Obs.Rollup.a_mistake_time;
        Alcotest.(check int) "up time both pairs" 200 a.Obs.Rollup.a_up_time;
        Alcotest.(check (float 1e-9))
          "rate per 1k tick*pairs" (1000.0 /. 200.0) a.Obs.Rollup.a_mistake_rate_per_1k;
        Alcotest.(check (float 1e-9))
          "query accuracy" (1.0 -. (15.0 /. 200.0)) a.Obs.Rollup.a_query_accuracy);
  ]

(* ------------------------------------------------------------------ *)
(* Golden rollup over a checked-in exported trace                      *)
(* ------------------------------------------------------------------ *)

(* test/golden/TRACE_e4.jsonl is a double-crash heartbeat run in the
   shape of bench e22's e4 scenario — regenerate both files with
     ecfd trace -d heartbeat-p -p ec -n 4 --seed 4 --gst 100 --delta 8 \
       --crash 1@150 --crash 3@320 --horizon 500 -f jsonl -o TRACE_e4.jsonl
     ecfd-trace rollup TRACE_e4.jsonl > TRACE_e4.rollup.json
   after any intentional trace or rollup change, and review the diff. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_rollup_tests =
  [
    tc "rollup of the checked-in e4 trace matches the golden bytes" (fun () ->
        Alcotest.(check string)
          "golden/TRACE_e4.rollup.json"
          (read_file "golden/TRACE_e4.rollup.json")
          (Tracequery_core.Qos_rollup.of_lines
             (Tracequery_core.Trace_file.read_lines "golden/TRACE_e4.jsonl")));
    tc "the golden rollup sees both crashes" (fun () ->
        let json = read_file "golden/TRACE_e4.rollup.json" in
        let j = Tracequery_core.Json_min.parse json in
        match Tracequery_core.Json_min.member "scenarios" j with
        | Some (Tracequery_core.Json_min.List [ s ]) -> (
          match Tracequery_core.Json_min.member "detection" s with
          | Some d ->
            Alcotest.(check int)
              "6 of 12 ordered pairs have a crashed subject" 6
              (Tracequery_core.Json_min.int_field d "crashed_pairs" ~default:(-1))
          | None -> Alcotest.fail "scenario lacks a detection object")
        | _ -> Alcotest.fail "expected exactly one scenario");
  ]

let suites =
  [
    ("qos.fold", fold_tests);
    ("qos.rollup", rollup_tests);
    ("qos.golden_rollup", golden_rollup_tests);
  ]
