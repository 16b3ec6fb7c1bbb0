(* The Domain job pool (lib/exec): order restoration, exception
   propagation, sequential equivalence, metrics — and the harness-level
   determinism contract, checked by rendering a real experiment (E4) into
   a buffer under different domain counts and comparing the bytes, and by
   rendering E20, the one experiment that reads the clock, twice. *)

let tc name f = Alcotest.test_case name `Quick f

(* Everything experiment [e] renders into a formatter of its own. *)
let render e =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  e ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* A job whose cost shrinks with its index: late jobs finish first under
   parallel execution, so order restoration is actually exercised. *)
let uneven_job i () =
  let spin = ref 0 in
  for _ = 1 to (32 - i) * 10_000 do
    incr spin
  done;
  ignore !spin;
  i * i

let pool_tests =
  [
    tc "results come back in job order, not completion order" (fun () ->
        let jobs = List.init 32 uneven_job in
        Alcotest.(check (list int))
          "squares in order"
          (List.init 32 (fun i -> i * i))
          (Exec.Pool.run ~domains:4 jobs));
    tc "an empty job list is a no-op" (fun () ->
        Alcotest.(check (list int)) "empty" [] (Exec.Pool.run ~domains:4 []));
    tc "domains=1 equals domains=4 on simulation jobs" (fun () ->
        (* Each job is a full engine run — the pool's real workload. *)
        let sim_job seed () =
          let engine =
            Sim.Engine.create ~seed ~n:4
              ~link:(Sim.Link.reliable ~min_delay:1 ~max_delay:8 ())
              ()
          in
          let _ = Fd.Heartbeat_p.install engine Fd.Heartbeat_p.default_params in
          Sim.Engine.run_until engine 400;
          (Sim.Stats.total (Sim.Engine.stats engine)).Sim.Stats.sent
        in
        let jobs = List.map sim_job [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        Alcotest.(check (list int))
          "identical results"
          (Exec.Pool.run ~domains:1 jobs)
          (Exec.Pool.run ~domains:4 jobs));
    tc "the lowest-indexed exception wins, every job still runs" (fun () ->
        let ran = Array.make 8 false in
        let job i () =
          ran.(i) <- true;
          if i = 2 then failwith "boom-low";
          if i = 6 then failwith "boom-high";
          i
        in
        Alcotest.check_raises "lowest index re-raised" (Failure "boom-low") (fun () ->
            ignore (Exec.Pool.run ~domains:4 (List.init 8 job) : int list));
        Alcotest.(check bool)
          "jobs after the failure ran too" true
          (Array.for_all Fun.id ran));
    tc "a nested run degrades to sequential instead of deadlocking" (fun () ->
        let results =
          Exec.Pool.run ~domains:2
            (List.init 4 (fun i () ->
                 List.fold_left ( + ) 0
                   (Exec.Pool.run ~domains:4 (List.init 5 (fun j () -> (10 * i) + j)))))
        in
        Alcotest.(check (list int))
          "inner sums correct"
          (List.init 4 (fun i -> (50 * i) + 10))
          results);
    tc "with_domains restores the previous default" (fun () ->
        Exec.Pool.with_domains 3 (fun () ->
            Alcotest.(check int) "inside" 3 (Exec.Pool.default_domains ());
            Exec.Pool.with_domains 1 (fun () ->
                Alcotest.(check int) "nested" 1 (Exec.Pool.default_domains ()));
            Alcotest.(check int) "restored" 3 (Exec.Pool.default_domains ())));
    tc "metrics count runs, jobs and a positive busy/wall split" (fun () ->
        Exec.Pool.with_domains 2 (fun () ->
            Exec.Pool.reset_metrics ();
            ignore (Exec.Pool.run (List.init 6 uneven_job) : int list);
            ignore (Exec.Pool.run (List.init 4 uneven_job) : int list);
            let m = Exec.Pool.metrics () in
            Alcotest.(check int) "runs" 2 m.Exec.Pool.runs;
            Alcotest.(check int) "jobs" 10 m.Exec.Pool.jobs;
            Alcotest.(check bool) "busy > 0" true (m.Exec.Pool.busy_s > 0.0);
            Alcotest.(check bool) "wall > 0" true (m.Exec.Pool.wall_s > 0.0)));
  ]

let determinism_tests =
  [
    tc "E4 renders byte-identical tables at 1 and 4 domains" (fun () ->
        let at domains = Exec.Pool.with_domains domains (fun () -> render Experiments.e4) in
        let sequential = at 1 in
        Alcotest.(check bool)
          "E4 produced output" true
          (String.length sequential > 0);
        Alcotest.(check string) "identical output" sequential (at 4));
    tc "E4 trace exports are byte-identical at 1 and 4 domains" (fun () ->
        (* The CI artifact contract: the canonical-run exports are a pure
           function of (seed, config), so rendering them through the pool
           at different domain counts must give the same bytes. *)
        let export domains =
          Exec.Pool.with_domains domains Experiments.e4_trace_exports
        in
        let chrome1, jsonl1 = export 1 in
        let chrome4, jsonl4 = export 4 in
        Alcotest.(check bool) "chrome export non-empty" true (String.length chrome1 > 0);
        Alcotest.(check bool) "jsonl export non-empty" true (String.length jsonl1 > 0);
        Alcotest.(check string) "chrome identical" chrome1 chrome4;
        Alcotest.(check string) "jsonl identical" jsonl1 jsonl4);
    tc "E20 renders byte-identical tables on two runs" (fun () ->
        (* Elapsed time and events/sec go to stderr and the JSON only. *)
        let first = render Micro.e20 in
        Alcotest.(check bool) "E20 produced output" true (String.length first > 0);
        Alcotest.(check string) "identical output" first (render Micro.e20));
    tc "one E20 run writes the churn and every heartbeat row to its JSON" (fun () ->
        if Sys.file_exists Micro.json_file then Sys.remove Micro.json_file;
        ignore (render Micro.e20 : string);
        let open Tracequery_core.Json_min in
        let rows =
          match member "rows" (parse (Test_util.read_file Micro.json_file)) with
          | Some (List rows) -> rows
          | _ -> Alcotest.fail "BENCH_sim_core.json has no rows list"
        in
        let summary row =
          let int j k = string_of_int (int_field j k ~default:(-1)) in
          let name = string_field row "name" ~default:"?" in
          let timers = Option.value ~default:Null (member "timers" row) in
          let words =
            match member "minor_words_per_event" row with
            | Some (Float w) -> Printf.sprintf "%.6f" w
            | _ -> "?"
          in
          String.concat " "
            ([ name; int row "n"; int row "events"; int row "queue_high_water";
               int row "timer_table_capacity" ]
            @
            if name = "churn" then [ int timers "set"; int timers "fired"; int timers "cancelled" ]
            else [ words ])
        in
        Alcotest.(check (list string))
          "churn counts, and heartbeat rows at queue high-water = capacity = n with no allocation"
          [
            "churn 8 1000000 48 48 1000040 666672 333344";
            "heartbeat 100 500000 100 100 0.000000";
            "heartbeat 1000 500000 1000 1000 0.000000";
            "heartbeat 10000 500000 10000 10000 0.000000";
          ]
          (List.map summary rows));
  ]

let suites =
  [ ("exec pool", pool_tests); ("exec determinism", determinism_tests) ]
