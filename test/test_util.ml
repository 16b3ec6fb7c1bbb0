(* Shared helpers and qcheck generators for the test suites. *)

(* Every qcheck test draws from its own generator state, seeded from
   QCHECK_SEED when it is set and from a fixed constant otherwise, so a
   plain run of the suite is deterministic and a failure replays from
   the seed printed at the start of the run, whichever tests run. *)
let qcheck_seed =
  lazy
    (let seed =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some s -> (
         match int_of_string_opt (String.trim s) with
         | Some seed -> seed
         | None -> failwith ("QCHECK_SEED is not an integer: " ^ s))
       | None -> 0xecfd
     in
     Printf.printf "qcheck seed: %d\n%!" seed;
     seed)

(* A fresh generator state from the run's seed. *)
let qcheck_rand () = Random.State.make [| Lazy.force qcheck_seed |]

(* QCHECK_SCALE multiplies every property's case count; unset, it is 1
   and the suite runs the counts written in it.  An exploring run (CI's
   rotating-seed step) sets it higher to try more cases per seed. *)
let qcheck_scale =
  lazy
    (match Sys.getenv_opt "QCHECK_SCALE" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> k
      | Some _ | None -> failwith ("QCHECK_SCALE is not a positive integer: " ^ s)))

let qcheck_count count = count * Lazy.force qcheck_scale

(* Every case a property law was called on (shrinking steps included),
   printed when the suite exits. *)
let qcheck_cases = ref 0

let () =
  at_exit (fun () ->
      if !qcheck_cases > 0 then
        Printf.printf "\nqcheck cases: %d at QCHECK_SCALE=%d\n%!" !qcheck_cases
          (Lazy.force qcheck_scale))

(* [law], counting its calls in [qcheck_cases]. *)
let counted law x =
  incr qcheck_cases;
  law x

let qcheck ?(count = 50) ?print ~name gen law =
  QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
    (QCheck2.Test.make ~count:(qcheck_count count) ?print ~name gen (counted law))

(* --- generators --- *)

module Gen = struct
  open QCheck2.Gen

  let seed = int_range 0 1_000_000

  let small_n = int_range 2 8

  (* n together with a crash schedule of fewer than n/2 victims. *)
  let n_and_minority_crashes ~latest =
    small_n >>= fun n ->
    seed >|= fun s ->
    let rng = Sim.Rng.create ~seed:s in
    (n, Sim.Fault.random_minority rng ~n ~latest)

  let net =
    seed >>= fun s ->
    int_range 0 400 >|= fun gst ->
    { Scenario.default_net with seed = s; gst }

  (* Delays up to 20 delta until [gst], so timeouts fire falsely. *)
  let chaotic_net =
    seed >>= fun s ->
    int_range 0 400 >|= fun gst -> Scenario.chaotic_net ~seed:s ~gst ()
end

(* --- files --- *)

(* The whole file, for byte-for-byte golden comparisons. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- assertions --- *)

let check_no_violations what trace ~n =
  let violations = Spec.Consensus_props.check_all trace ~n in
  Alcotest.(check int)
    (what ^ ": "
    ^ String.concat "; "
        (List.map (Format.asprintf "%a" Spec.Consensus_props.pp_violation) violations))
    0 (List.length violations)

let check_safety_only what trace =
  let violations = Spec.Consensus_props.check_safety trace in
  Alcotest.(check int)
    (what ^ ": "
    ^ String.concat "; "
        (List.map (Format.asprintf "%a" Spec.Consensus_props.pp_violation) violations))
    0 (List.length violations)

let check_class what cls run =
  let matrix = Spec.Fd_props.class_matrix run in
  let missing =
    List.filter
      (fun p -> not (Spec.Fd_props.check p run).Spec.Fd_props.holds)
      (Fd.Classes.properties cls)
  in
  if missing <> [] then
    Alcotest.failf "%s: class %s misses %s (matrix: %s)" what (Fd.Classes.name cls)
      (String.concat ", " (List.map Fd.Classes.property_name missing))
      (String.concat "; "
         (List.map
            (fun (p, (r : Spec.Fd_props.report)) ->
              Printf.sprintf "%s=%b" (Fd.Classes.property_name p) r.holds)
            matrix))

let bool_law what b = if b then true else QCheck2.Test.fail_reportf "%s" what
