(* Domain-based job pool (see pool.mli for the determinism contract).

   Work distribution: workers pull job indices from one atomic counter and
   write results into per-index slots, so scheduling decides only *where* a
   job runs and the result list is rebuilt in job order afterwards.  The
   calling domain participates as a worker — [run ~domains:1] spawns
   nothing and is exactly the sequential harness. *)

let wall () =
  (Unix.gettimeofday
   [@check.allow ambient
       "pool throughput metrics are wall-clock facts about the host, not simulated state"])
    ()

let max_domains = 8

let recommended_domains () =
  Stdlib.max 1 (Stdlib.min max_domains (Domain.recommended_domain_count ()))

let default_override = ref None

let env_domains () =
  match Sys.getenv_opt "ECFD_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some d
    | Some _ | None -> None)

let default_domains () =
  match !default_override with
  | Some d -> d
  | None -> (
    match env_domains () with Some d -> d | None -> recommended_domains ())

let set_default_domains d =
  if d < 1 then invalid_arg "Pool.set_default_domains: domain count must be >= 1";
  default_override := Some d

let with_domains d f =
  if d < 1 then invalid_arg "Pool.with_domains: domain count must be >= 1";
  let saved = !default_override in
  default_override := Some d;
  Fun.protect ~finally:(fun () -> default_override := saved) f

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

type metrics = { runs : int; jobs : int; busy_s : float; wall_s : float }

(* Mutated only by the coordinating (calling) domain, after workers have
   been joined — workers report per-job durations through the results
   array, never through these. *)
let acc_runs = ref 0
let acc_jobs = ref 0
let acc_busy = ref 0.0
let acc_wall = ref 0.0

let reset_metrics () =
  acc_runs := 0;
  acc_jobs := 0;
  acc_busy := 0.0;
  acc_wall := 0.0

let metrics () =
  { runs = !acc_runs; jobs = !acc_jobs; busy_s = !acc_busy; wall_s = !acc_wall }

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* True while the current domain is executing pool jobs: a nested [run]
   from inside a job degrades to in-place sequential execution instead of
   spawning domains from a worker (and keeps its hands off the metrics). *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let execute job =
  match
    (job ()
    [@check.allow escape
        "executing foreign job code is the pool's purpose; the determinism \
         contract (pool.mli) requires jobs to be pure functions of their \
         closure, and check rule A1 checks every closure that flows in"])
  with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* Results in job order; every job has run, so re-raise the failure of the
   lowest-indexed failing job — which job's exception escapes must not
   depend on completion order. *)
let collect outcomes =
  let n = Array.length outcomes in
  let rec go i acc =
    if i = n then List.rev acc
    else
      match outcomes.(i) with
      | Some (Ok v, _) -> go (i + 1) (v :: acc)
      | Some (Error (e, bt), _) -> Printexc.raise_with_backtrace e bt
      | None -> assert false
  in
  go 0 []

let run_nested jobs =
  let outcomes =
    Array.of_list (List.map (fun job -> Some (execute job, 0.0)) jobs)
  in
  collect outcomes

let run ?domains jobs =
  match jobs with
  | [] -> []
  | _ when Domain.DLS.get in_worker -> run_nested jobs
  | _ ->
    let t_start = wall () in
    let jobs = Array.of_list jobs in
    let n = Array.length jobs in
    let requested =
      match domains with
      | Some d ->
        if d < 1 then invalid_arg "Pool.run: domains must be >= 1";
        d
      | None -> default_domains ()
    in
    let domains = Stdlib.min requested n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = wall () in
          let outcome =
            execute
              (jobs.(i)
              [@check.allow publish
                  "the jobs array is built before Domain.spawn and never \
                   written afterwards; the spawn is the publication barrier"])
          in
          (results.(i) <- Some (outcome, wall () -. t0))
          [@check.allow escape
              "index-partitioned: the atomic counter hands each slot to \
               exactly one worker, and the coordinator reads results only \
               after Domain.join"];
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Domain.DLS.set in_worker false;
    List.iter Domain.join spawned;
    let busy =
      Array.fold_left
        (fun acc slot -> match slot with Some (_, d) -> acc +. d | None -> acc)
        0.0 results
    in
    incr acc_runs;
    acc_jobs := !acc_jobs + n;
    acc_busy := !acc_busy +. busy;
    acc_wall := !acc_wall +. (wall () -. t_start);
    collect results
