(* The benchmark harness: regenerates every quantitative claim of the
   paper's evaluation (experiments E1-E10, DESIGN.md §3) and, in E20,
   measures the engine itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e4 e5   # selected experiments
     dune exec bench/main.exe -- e20     # engine cost -> BENCH_sim_core.json;
                                         # fails if a heartbeat re-arm allocates

   Experiments fan their (subject, seed, n) grids over a Domain job pool;
   --domains N (or ECFD_DOMAINS=N) picks the parallelism, default
   Domain.recommended_domain_count capped at 8, and 1 is fully
   sequential.  Tables are rendered from order-restored results, so
   stdout is byte-identical at every domain count — only the wall-clock
   (recorded in BENCH_experiments.json, reported on stderr) changes.
   Every experiment renders into the formatter it is given; this is the
   one place that picks stdout.  `dune runtest` diffs the full stdout
   against test/golden/EXPERIMENTS.txt. *)

let experiments : (string * (Format.formatter -> unit)) list =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("e11", Experiments.e11);
    ("e12", Experiments.e12);
    ("e13", Experiments.e13);
    ("e14", Experiments.e14);
    ("e15", Experiments.e15);
    ("e16", Experiments.e16);
    ("e17", Experiments.e17);
    ("e18", Experiments.e18);
    ("e19", Experiments.e19);
    ("e20", Micro.e20);
    ("e22", Qos_bench.e22);
  ]

let json_file = "BENCH_experiments.json"

let wall () =
  (Unix.gettimeofday
   [@check.allow ambient "harness timing is a wall-clock fact about the host, not simulated state"])
    ()

let usage () =
  Printf.eprintf "usage: main.exe [--domains N] [experiment ...]\navailable: %s\n"
    (String.concat " " (List.map fst experiments));
  exit 2

(* [--domains N] / [--domains=N] anywhere in argv; the rest are
   experiment names. *)
let parse_args args =
  let rec go domains names = function
    | [] -> (domains, List.rev names)
    | "--domains" :: v :: rest -> (
      match int_of_string_opt v with
      | Some d when d >= 1 -> go (Some d) names rest
      | Some _ | None -> usage ())
    | [ "--domains" ] -> usage ()
    | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--domains=" -> (
      match int_of_string_opt (String.sub arg 10 (String.length arg - 10)) with
      | Some d when d >= 1 -> go (Some d) names rest
      | Some _ | None -> usage ())
    | arg :: rest -> go domains (arg :: names) rest
  in
  go None [] args

(* Per-experiment timing plus the pool's own busy/wall split:
   [busy_s /. pool_wall_s] is the achieved speedup of the pooled sections
   without running anything twice (busy_s is what the same jobs would cost
   sequentially). *)
type timing = {
  name : string;
  wall_s : float;
  pool : Exec.Pool.metrics;
}

let speedup (t : timing) =
  if t.pool.Exec.Pool.wall_s > 0.0 then t.pool.Exec.Pool.busy_s /. t.pool.Exec.Pool.wall_s
  else 1.0

let emit_json ~domains ~total_s timings =
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"bench\": \"experiments\",\n  \"schema_version\": 1,\n";
  Printf.fprintf oc "  \"build_profile\": %S,\n" Build_profile.name;
  Printf.fprintf oc "  \"domains\": %d,\n  \"experiments\": [" domains;
  List.iteri
    (fun i t ->
      Printf.fprintf oc "%s\n    { \"name\": %S, \"wall_s\": %.6f, \"pool_runs\": %d, \"jobs\": %d, \"busy_s\": %.6f, \"pool_wall_s\": %.6f, \"speedup\": %.3f }"
        (if i = 0 then "" else ",")
        t.name t.wall_s t.pool.Exec.Pool.runs t.pool.Exec.Pool.jobs t.pool.Exec.Pool.busy_s
        t.pool.Exec.Pool.wall_s (speedup t))
    timings;
  Printf.fprintf oc "\n  ],\n  \"total_wall_s\": %.6f\n}\n" total_s;
  close_out oc

let () =
  let domains_arg, requested = parse_args (List.tl (Array.to_list Sys.argv)) in
  Option.iter Exec.Pool.set_default_domains domains_arg;
  let domains = Exec.Pool.default_domains () in
  let requested = match requested with [] -> List.map fst experiments | _ -> requested in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S\n" name;
        usage ()
      end)
    requested;
  (* The domain count and build profile go to stderr only: stdout must
     stay byte-identical across --domains values and profiles. *)
  Printf.eprintf "ecfd-bench: %d domain(s), build profile %s\n%!" domains Build_profile.name;
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "Reproduction harness for \"Eventually consistent failure detectors\" (JPDC 65, 2005)@.";
  Format.fprintf ppf "Experiments: %s@." (String.concat " " requested);
  let t_total = wall () in
  let timings =
    List.map
      (fun name ->
        let f = List.assoc name experiments in
        Exec.Pool.reset_metrics ();
        let t0 = wall () in
        f ppf;
        { name; wall_s = wall () -. t0; pool = Exec.Pool.metrics () })
      requested
  in
  let total_s = wall () -. t_total in
  Format.fprintf ppf "@.Done.@.";
  emit_json ~domains ~total_s timings;
  List.iter
    (fun t ->
      Printf.eprintf "ecfd-bench: %-8s %7.2fs wall, %d pool job(s), %.2fs busy, speedup %.2fx\n"
        t.name t.wall_s t.pool.Exec.Pool.jobs t.pool.Exec.Pool.busy_s (speedup t))
    timings;
  Printf.eprintf "ecfd-bench: wrote %s (total %.2fs at %d domain(s))\n%!" json_file total_s
    domains
