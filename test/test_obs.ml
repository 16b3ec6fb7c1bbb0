(* The observability layer: Obs.Registry semantics, the engine's
   delivery-latency histogram, the two trace exporters against checked-in
   golden files (byte-exact, seeded run), and the ecfd-trace query core
   (strict import, ancestry, diff, filter, schema) on a crafted trace and
   on generated runs. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    tc "counter: incr and add aggregate" (fun () ->
        let r = Obs.Registry.create () in
        let c = Obs.Registry.counter r ~name:"x.count" in
        Obs.Registry.incr c;
        Obs.Registry.add c 4;
        Alcotest.(check bool)
          "value 5" true
          (Obs.Registry.snapshot r = [ ("x.count", Obs.Registry.Counter 5) ]));
    tc "gauge: set overwrites, set_max keeps the high-water" (fun () ->
        let r = Obs.Registry.create () in
        let g = Obs.Registry.gauge r ~name:"x.level" in
        Obs.Registry.set g 7;
        Obs.Registry.set_max g 3;
        Alcotest.(check bool)
          "set_max 3 after set 7 keeps 7" true
          (Obs.Registry.snapshot r = [ ("x.level", Obs.Registry.Gauge 7) ]);
        Obs.Registry.set g 2;
        Alcotest.(check bool)
          "set 2 overwrites" true
          (Obs.Registry.snapshot r = [ ("x.level", Obs.Registry.Gauge 2) ]));
    tc "histogram: bucketing, overflow, count/sum/max" (fun () ->
        let r = Obs.Registry.create () in
        let h = Obs.Registry.histogram r ~name:"x.lat" ~buckets:[ 10; 100 ] in
        List.iter (Obs.Registry.observe h) [ 0; 10; 11; 250 ];
        match Obs.Registry.snapshot r with
        | [ ("x.lat", Obs.Registry.Histogram v) ] ->
          Alcotest.(check (list int)) "bounds" [ 10; 100 ] v.buckets;
          Alcotest.(check (list int)) "per-bucket + overflow" [ 2; 1; 1 ] v.counts;
          Alcotest.(check int) "count" 4 v.count;
          Alcotest.(check int) "sum" 271 v.sum;
          Alcotest.(check int) "max" 250 v.max_value
        | _ -> Alcotest.fail "expected exactly one histogram");
    tc "registration is idempotent and aggregating" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.incr (Obs.Registry.counter r ~name:"x.count");
        Obs.Registry.incr (Obs.Registry.counter r ~name:"x.count");
        Alcotest.(check bool)
          "both increments on one metric" true
          (Obs.Registry.snapshot r = [ ("x.count", Obs.Registry.Counter 2) ]));
    tc "re-registering under a different kind is refused" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.counter r ~name:"x.count");
        Alcotest.check_raises "kind mismatch"
          (Invalid_argument
             "Obs.Registry: \"x.count\" is already registered as a counter, not a gauge")
          (fun () -> ignore (Obs.Registry.gauge r ~name:"x.count")));
    tc "snapshot is in name order, not insertion order" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.counter r ~name:"z.last");
        ignore (Obs.Registry.counter r ~name:"a.first");
        ignore (Obs.Registry.counter r ~name:"m.middle");
        Alcotest.(check (list string))
          "sorted names"
          [ "a.first"; "m.middle"; "z.last" ]
          (List.map fst (Obs.Registry.snapshot r)));
    tc "json_of_snapshot renders every kind deterministically" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.add (Obs.Registry.counter r ~name:"c") 3;
        Obs.Registry.set (Obs.Registry.gauge r ~name:"g") 9;
        Obs.Registry.observe (Obs.Registry.histogram r ~name:"h" ~buckets:[ 2 ]) 1;
        Alcotest.(check string)
          "exact JSON"
          "{\"metrics\":[{\"name\":\"c\",\"kind\":\"counter\",\"value\":3},{\"name\":\"g\",\"kind\":\"gauge\",\"value\":9},{\"name\":\"h\",\"kind\":\"histogram\",\"buckets\":[2],\"counts\":[1,0],\"count\":1,\"sum\":1,\"max\":1,\"p50\":1,\"p99\":1,\"p999\":1}]}"
          (Obs.Registry.json_of_snapshot (Obs.Registry.snapshot r)));
  ]

(* ------------------------------------------------------------------ *)
(* Instruments the engine feeds                                        *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    tc "delivery latency histogram records message latencies" (fun () ->
        (* n = 4 ping-pong: every process pings the others each beat and
           answers pings from lower pids, so the run delivers messages and
           engine.delivery_latency must count them. *)
        let n = 4 and component = "pingpong" in
        let engine = Sim.Engine.create ~seed:3 ~n ~link:(Sim.Link.synchronous ~delay:2) () in
        List.iter
          (fun p ->
            Sim.Engine.register engine ~component p (fun ~src _payload ->
                if src < p then
                  Sim.Engine.send engine ~component ~tag:"pong" ~src:p ~dst:src
                    Sim.Payload.Blank))
          (Sim.Pid.all ~n);
        List.iter
          (fun p ->
            ignore
              (Sim.Engine.every engine p ~phase:(1 + p) ~period:3 (fun () ->
                   List.iter
                     (fun dst ->
                       Sim.Engine.send engine ~component ~tag:"ping" ~src:p ~dst
                         Sim.Payload.Blank)
                     (Sim.Pid.others ~n p))
                : unit -> unit))
          (Sim.Pid.all ~n);
        Sim.Engine.run_until engine 60;
        let snap = Obs.Registry.snapshot (Sim.Engine.obs engine) in
        let count =
          match List.assoc_opt "engine.delivery_latency" snap with
          | Some (Obs.Registry.Histogram { count; _ }) -> count
          | _ -> 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "delivery_latency count > 0 (%d)" count)
          true (count > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Quantile estimation from bucket counts                              *)
(* ------------------------------------------------------------------ *)

let quantile_tests =
  let q ~buckets ~counts ~count ~max_value p =
    Obs.Registry.histogram_quantile ~buckets ~counts ~count ~max_value p
  in
  [
    tc "empty histogram reports 0 at every quantile" (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check int) "zero" 0
              (q ~buckets:[ 10; 100 ] ~counts:[ 0; 0; 0 ] ~count:0 ~max_value:0 p))
          [ 0.5; 0.99; 0.999 ]);
    tc "estimate is the bucket bound, clamped to the max observation" (fun () ->
        (* Four observations all <= 7 land in the [10] bucket: the bound
           over-estimates, the max clamps it back. *)
        Alcotest.(check int) "clamped" 7
          (q ~buckets:[ 10 ] ~counts:[ 4; 0 ] ~count:4 ~max_value:7 0.5));
    tc "rank sits exactly on a bucket boundary" (fun () ->
        let buckets = [ 10; 20 ] and counts = [ 5; 5; 0 ] in
        (* rank ceil(0.5 * 10) = 5 is the last observation of the first
           bucket; one observation later crosses into the second. *)
        Alcotest.(check int) "p50 on the boundary" 10
          (q ~buckets ~counts ~count:10 ~max_value:20 0.5);
        Alcotest.(check int) "just past the boundary" 20
          (q ~buckets ~counts ~count:10 ~max_value:20 0.51));
    tc "rank clamps to 1 at q = 0" (fun () ->
        Alcotest.(check int) "first bucket" 10
          (q ~buckets:[ 10; 20 ] ~counts:[ 5; 5; 0 ] ~count:10 ~max_value:20 0.0));
    tc "overflow bucket reports the max observation" (fun () ->
        Alcotest.(check int) "overflow" 250
          (q ~buckets:[ 10 ] ~counts:[ 1; 1 ] ~count:2 ~max_value:250 0.99));
    tc "p999 needs one in a thousand past the bucket" (fun () ->
        let buckets = [ 10; 20 ] in
        Alcotest.(check int) "999/1 stays in the first bucket" 10
          (q ~buckets ~counts:[ 999; 1; 0 ] ~count:1000 ~max_value:20 0.999);
        Alcotest.(check int) "998/2 crosses" 20
          (q ~buckets ~counts:[ 998; 2; 0 ] ~count:1000 ~max_value:20 0.999));
  ]

(* ------------------------------------------------------------------ *)
(* Golden exports                                                      *)
(* ------------------------------------------------------------------ *)

(* The exact run behind test/golden/trace_small.* — regenerate with
     ecfd trace -p ec -d scripted-stable -n 3 --seed 2 --horizon 200 -f FMT
   after any intentional exporter or trace change, and review the diff. *)
let golden_trace () =
  let r =
    Scenario.run_consensus
      ~net:{ (Scenario.chaotic_net ~seed:2 ~gst:0 ()) with delta = 8 }
      ~crashes:(Sim.Fault.crashes []) ~horizon:200 ~n:3
      ~detector:(Scenario.Scripted_stable 0)
      ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
  in
  r.Scenario.trace

let golden_tests =
  [
    tc "JSONL export matches the golden file byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden/trace_small.jsonl"
          (Test_util.read_file "golden/trace_small.jsonl")
          (Sim.Trace_export.jsonl_string (golden_trace ())));
    tc "Chrome export matches the golden file byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden/trace_small.chrome.json"
          (Test_util.read_file "golden/trace_small.chrome.json")
          (Sim.Trace_export.chrome_string (golden_trace ())));
    tc "golden JSONL parses line-by-line in the query core" (fun () ->
        let text = Test_util.read_file "golden/trace_small.jsonl" in
        let trace = Tracequery_core.Trace_import.load "golden/trace_small.jsonl" in
        Alcotest.(check bool) "non-empty" true (Sim.Trace.length trace > 0);
        Alcotest.(check string) "re-export is the file" text (Sim.Trace_export.jsonl_string trace));
  ]

(* ------------------------------------------------------------------ *)
(* Query core on a crafted trace                                       *)
(* ------------------------------------------------------------------ *)

(* Two processes exchange a request/ack around a decide, with an
   unrelated note at p3 that must stay out of every cone.  The lines are
   exporter output: the events go through Trace.record and
   Trace_export.jsonl. *)
let crafted_lines =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.record t)
    [
      Propose { at = 0; pid = 0; value = 7 };
      Send { at = 1; src = 0; dst = 1; msg = 0; component = "consensus.ec"; tag = "round1" };
      Note { at = 1; pid = 2; tag = "fd.x"; detail = "noise" };
      Deliver { at = 3; src = 0; dst = 1; msg = 0; component = "consensus.ec"; tag = "round1" };
      Send { at = 4; src = 1; dst = 0; msg = 1; component = "consensus.ec"; tag = "ack" };
      Deliver { at = 6; src = 1; dst = 0; msg = 1; component = "consensus.ec"; tag = "ack" };
      Decide { at = 7; pid = 0; value = 7; round = 1 };
    ];
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Sim.Trace_export.jsonl_string t))

let crafted () = Tracequery_core.Trace_import.of_lines crafted_lines

let seqs events = List.map (fun (e : Sim.Trace.event) -> e.seq) events

(* [crafted_lines] with line [line] (1-based) replaced by [by]: the
   import must fail and name that line. *)
let rejects ~line by =
  let lines = List.mapi (fun i l -> if i + 1 = line then by else l) crafted_lines in
  match Tracequery_core.Trace_import.of_lines lines with
  | _ -> Alcotest.failf "line %d was accepted: %s" line by
  | exception Tracequery_core.Trace_import.Bad_trace msg ->
    let prefix = Printf.sprintf "line %d: " line in
    Alcotest.(check string) "names the line" prefix
      (String.sub msg 0 (min (String.length msg) (String.length prefix)))

(* Typed event equality: pids compare with Pid.equal and suspected sets
   with Pid.Set.equal, never with polymorphic (=). *)
let event_equal (a : Sim.Trace.event) (b : Sim.Trace.event) =
  let pid = Sim.Pid.equal and str = String.equal in
  Int.equal a.seq b.seq && Int.equal a.lc b.lc
  &&
  match (a.body, b.body) with
  | Send x, Send y ->
    Int.equal x.at y.at && pid x.src y.src && pid x.dst y.dst && Int.equal x.msg y.msg
    && str x.component y.component && str x.tag y.tag
  | Deliver x, Deliver y ->
    Int.equal x.at y.at && pid x.src y.src && pid x.dst y.dst && Int.equal x.msg y.msg
    && str x.component y.component && str x.tag y.tag
  | Drop x, Drop y ->
    Int.equal x.at y.at && pid x.src y.src && pid x.dst y.dst && Int.equal x.msg y.msg
    && str x.component y.component && str x.tag y.tag && str x.reason y.reason
  | Crash x, Crash y -> Int.equal x.at y.at && pid x.pid y.pid
  | Fd_view x, Fd_view y ->
    Int.equal x.at y.at && pid x.pid y.pid && str x.component y.component
    && Sim.Pid.Set.equal x.suspected y.suspected
    && Option.equal pid x.trusted y.trusted
  | Propose x, Propose y -> Int.equal x.at y.at && pid x.pid y.pid && Int.equal x.value y.value
  | Decide x, Decide y ->
    Int.equal x.at y.at && pid x.pid y.pid && Int.equal x.value y.value
    && Int.equal x.round y.round
  | Note x, Note y -> Int.equal x.at y.at && pid x.pid y.pid && str x.tag y.tag && str x.detail y.detail
  | Span_begin x, Span_begin y ->
    Int.equal x.at y.at && pid x.pid y.pid && str x.component y.component
    && Int.equal x.span y.span && str x.name y.name
  | Span_end x, Span_end y ->
    Int.equal x.at y.at && pid x.pid y.pid && str x.component y.component
    && Int.equal x.span y.span && str x.name y.name
  | _ -> false

(* The full stack of Scenario.run_consensus, but over a fair-lossy link
   (a tenth of all messages dropped) on top of a partially synchronous
   one, so the trace holds lossy drops besides the drops to crashed
   processes. *)
let lossy_horizon = 400

let lossy_consensus_trace ~detector ~protocol ~n ~seed ~crashes =
  let link =
    Sim.Link.fair_lossy ~drop_probability:0.1
      ~underlying:(Sim.Link.partially_synchronous ~pre_gst_max:40 ~gst:100 ~delta:8 ())
  in
  let eng = Sim.Engine.create ~seed ~n ~link () in
  Sim.Fault.apply eng crashes;
  let fd = Scenario.install_detector eng detector in
  let rb = Broadcast.Reliable_broadcast.create eng in
  let instance =
    match protocol with
    | Scenario.Ct -> Consensus.Ct_consensus.install eng ~fd ~rb ()
    | Mr -> Consensus.Mr_consensus.install eng ~fd ~rb ()
    | Hr -> Consensus.Hr_consensus.install eng ~fd ~rb ()
    | Ec params -> Ecfd.Ec_consensus.install eng ~fd ~rb params
  in
  List.iter
    (fun p ->
      Sim.Engine.at eng 0 (fun () ->
          if Sim.Engine.is_alive eng p then instance.Consensus.Instance.propose p (100 + p)))
    (Sim.Pid.all ~n);
  Sim.Engine.run_until eng lossy_horizon;
  Sim.Engine.trace eng

(* detector x protocol x n in [2, 9] x seed x one or two crashes. *)
let lossy_run_gen =
  let open QCheck2.Gen in
  let* detector =
    oneofl
      Scenario.
        [
          Heartbeat_p; Ring_s; Ring_w; Leader_s; Stable_omega; Ec_from_leader; Ec_from_stable;
          Ec_from_ring; Ec_from_omega_chu; Ec_from_heartbeat; Scripted_stable 0;
        ]
  in
  let* protocol = oneofl Scenario.[ Ct; Mr; Hr; Ec Ecfd.Ec_consensus.default_params ] in
  let* n = int_range 2 9 in
  let* seed = Test_util.Gen.seed in
  let* first = int_range 0 (n - 1) in
  let* second = option (int_range 1 (n - 1)) in
  let* times = pair (int_range 0 300) (int_range 0 300) in
  let crashes =
    (first, fst times)
    :: Option.fold second ~none:[] ~some:(fun k -> [ ((first + k) mod n, snd times) ])
  in
  return (detector, protocol, n, seed, Sim.Fault.crashes crashes)

let query_tests =
  [
    tc "ancestry follows program order and message edges, not noise" (fun () ->
        let events = crafted () in
        Alcotest.(check (list int))
          "cone of the decide"
          [ 0; 1; 3; 4; 5; 6 ]
          (seqs (Tracequery_core.Query.ancestry events ~seq:6)));
    tc "ancestry of a mid-trace event stops at its past" (fun () ->
        Alcotest.(check (list int))
          "cone of the first deliver"
          [ 0; 1; 3 ]
          (seqs (Tracequery_core.Query.ancestry (crafted ()) ~seq:3)));
    tc "filter by pid matches link endpoints; by time window" (fun () ->
        let events = crafted () in
        Alcotest.(check (list int))
          "everything involving p2"
          [ 1; 3; 4; 5 ]
          (seqs (Tracequery_core.Query.filter ~pid:1 events));
        Alcotest.(check (list int))
          "t in [3,6]"
          [ 3; 4; 5 ]
          (seqs (Tracequery_core.Query.filter ~from_t:3 ~to_t:6 events)));
    tc "diff: identical, divergent line, and length mismatch" (fun () ->
        let open Tracequery_core.Query in
        Alcotest.(check bool)
          "identical" true
          (diff_lines crafted_lines crafted_lines = None);
        (match diff_lines crafted_lines (List.rev crafted_lines) with
        | Some { line = 1; _ } -> ()
        | _ -> Alcotest.fail "expected divergence at line 1");
        match diff_lines crafted_lines (crafted_lines @ [ "{}" ]) with
        | Some { line = 8; left = None; right = Some "{}" } -> ()
        | _ -> Alcotest.fail "expected the right file to run long at line 8");
    tc "schema check flags missing fields and type mismatches" (fun () ->
        let schema =
          Tracequery_core.Json_min.parse
            {|{"type":"object","required":["seq"],"properties":{"seq":{"type":"integer","minimum":0}}}|}
        in
        let check s =
          Tracequery_core.Schema.check ~schema (Tracequery_core.Json_min.parse s)
        in
        Alcotest.(check int) "valid line" 0 (List.length (check {|{"seq":3}|}));
        Alcotest.(check bool) "missing seq flagged" true (check {|{"lc":1}|} <> []);
        Alcotest.(check bool) "wrong type flagged" true (check {|{"seq":"x"}|} <> []);
        Alcotest.(check bool) "negative flagged" true (check {|{"seq":-1}|} <> []));
    tc "import rejects an unknown event type" (fun () ->
        rejects ~line:3 {|{"seq":2,"lc":1,"type":"bogus","at":1,"pid":2}|});
    tc "import rejects a line that lacks a required field" (fun () ->
        rejects ~line:2
          {|{"seq":1,"lc":2,"type":"send","at":1,"dst":1,"msg":0,"component":"consensus.ec","tag":"round1"}|});
    tc "import rejects a seq that is not the line index" (fun () ->
        rejects ~line:2
          {|{"seq":7,"lc":2,"type":"send","at":1,"src":0,"dst":1,"msg":0,"component":"consensus.ec","tag":"round1"}|});
    tc "import rejects an lc that differs from the recorded stamp" (fun () ->
        rejects ~line:4
          {|{"seq":3,"lc":9,"type":"deliver","at":3,"src":0,"dst":1,"msg":0,"component":"consensus.ec","tag":"round1"}|});
    tc "import rejects a pid above Trace.max_pid" (fun () ->
        rejects ~line:1
          (Printf.sprintf {|{"seq":0,"lc":1,"type":"propose","at":0,"pid":%d,"value":7}|}
             (Sim.Trace.max_pid + 1)));
    Test_util.qcheck ~count:40 ~name:"export, import, export is the identity on lossy runs"
      ~print:(fun (detector, protocol, n, seed, crashes) ->
        Format.asprintf "%s/%s n=%d seed=%d crashes=%a" (Scenario.detector_name detector)
          (Scenario.protocol_name protocol) n seed Sim.Fault.pp crashes)
      lossy_run_gen
      (fun (detector, protocol, n, seed, crashes) ->
        let t = lossy_consensus_trace ~detector ~protocol ~n ~seed ~crashes in
        let text = Sim.Trace_export.jsonl_string t in
        let imported = Tracequery_core.Trace_import.of_lines (String.split_on_char '\n' text) in
        let in_process c =
          Obs.Rollup.to_json
            [ { Obs.Rollup.name = c; component = c;
                report = Sim.Trace_qos.report ~component:c ~n ~horizon:lossy_horizon t } ]
        in
        Test_util.bool_law "re-export is byte-identical"
          (String.equal (Sim.Trace_export.jsonl_string imported) text)
        && Test_util.bool_law "imported events equal the recorded ones"
             (List.equal event_equal (Sim.Trace.events imported) (Sim.Trace.events t))
        && List.for_all
             (fun c ->
               Test_util.bool_law ("rollup of " ^ c ^ " matches the in-process one")
                 (String.equal
                    (Tracequery_core.Query.rollup ~n ~horizon:lossy_horizon ~component:c imported)
                    (in_process c)))
             (Sim.Trace_qos.components t));
  ]

let suites =
  [
    ("obs.registry", registry_tests);
    ("obs.engine", engine_tests);
    ("obs.quantiles", quantile_tests);
    ("obs.golden_exports", golden_tests);
    ("obs.tracequery", query_tests);
  ]
