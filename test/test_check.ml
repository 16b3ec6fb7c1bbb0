(* In-process coverage of the static checker (tools/check, `ecfd check`):
   every rule is demonstrated on a seeded-violation fixture with exact
   expected findings, so disabling or breaking any single rule fails its
   test.  Parsetree rules read the sources under lint_fixtures/; typed
   rules read the .cmt files the fixture libraries under
   analyze_fixtures/, alloccheck_fixtures/ and racecheck_fixtures/
   compiled to, exactly as `dune build @lint` does for lib/, bin/ and
   bench/.  Locations inside .cmt files are relative to the build root.

   The suites keep the rule families' former pass names (lint: R-rules,
   analyze: A-rules, alloccheck: Z-rules, racecheck: D-rules), so test
   ids stay stable across the merge into one checker. *)

let result ?(sources = []) ?(cmts = []) () = Check.Driver.run ~sources ~cmts

let rule_lines (r : Check.Driver.result) =
  List.map (fun (f : Check.Finding.t) -> (f.rule, f.line)) r.findings

let rule_files (r : Check.Driver.result) =
  List.map (fun (f : Check.Finding.t) -> (f.rule, f.file, f.line)) r.findings

(* --- parsetree rules -------------------------------------------------- *)

let lint_fixture name = Filename.concat "lint_fixtures" name

let lint ~expected name () =
  Alcotest.(check (list (pair string int)))
    "findings (rule, line)" expected
    (rule_lines (result ~sources:[ lint_fixture name ] ()))

let lint_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "R1: ambient nondeterminism fixture"
      (lint "ambient_bad.ml"
         ~expected:[ ("R1", 3); ("R1", 4); ("R1", 5); ("R1", 6); ("R1", 7) ]);
    (* The R1 exemption is the exact path lib/sim/rng.ml: the real path's
       Random use passes, a decoy rng.ml under bench/ is flagged. *)
    tc "R1: rng.ml exemption is by exact path"
      (lint "decoy_rng_case" ~expected:[ ("R1", 4) ]);
    tc "R4: payload-hygiene fixture" (lint "payload_bad.ml" ~expected:[ ("R4", 6); ("R4", 7) ]);
    tc "R5: missing-mli fixture" (lint "mli_case" ~expected:[ ("R5", 1) ]);
    (* Computed ~name arguments to the Obs registration points and to
       Engine.begin_span, open_span, close_span and open_spans; the
       literal sites and the [@check.allow obsname] site stay silent. *)
    tc "R6: computed-observability-name fixture"
      (lint "obsname_bad.ml"
         ~expected:
           [ ("R6", 2); ("R6", 3); ("R6", 6); ("R6", 8); ("R6", 13); ("R6", 14); ("R6", 23) ]);
    tc "[@check.allow] suppresses with a reason" (lint "allowed.ml" ~expected:[]);
    tc "[@check.allow] without a reason is reported"
      (lint "missing_reason.ml" ~expected:[ ("R1", 5); ("CHECK", 5) ]);
    (* A key no registered rule owns would suppress nothing — report the
       suppression itself and keep the underlying finding. *)
    tc "[@check.allow] with an unknown rule key is reported"
      (lint "unknown_key.ml" ~expected:[ ("R1", 5); ("CHECK", 5) ]);
    tc "stale [@check.allow] is itself a finding" (lint "stale_allow.ml" ~expected:[ ("STALE", 3) ]);
    (* All fixtures at once, via the same directory walk `ecfd check`
       uses for lib/, bin/ and bench/. *)
    tc "directory walk finds every seeded violation" (fun () ->
        Alcotest.(check int) "total findings over lint_fixtures/" 21
          (List.length (result ~sources:[ "lint_fixtures" ] ()).findings));
  ]

(* --- typed rules ------------------------------------------------------ *)

let typed ~dir ~expected case () =
  Alcotest.(check (list (triple string string int)))
    "findings (rule, file, line)"
    (List.map
       (fun (rule, file, line) -> (rule, Printf.sprintf "test/%s/%s/%s" dir case file, line))
       expected)
    (rule_files (result ~cmts:[ Filename.concat dir case ] ()))

let whole_directory dir n () =
  Alcotest.(check int) ("total findings over " ^ dir) n
    (List.length (result ~cmts:[ dir ] ()).findings)

let analyze_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let typed = typed ~dir:"analyze_fixtures" in
  [
    (* Job-local mutation is allowed: a pure job produces no findings. *)
    tc "A1: pure job is clean" (typed "pure_ok" ~expected:[]);
    (* Line 4 is print_endline inside a helper the job calls — the
       interprocedural half; line 7 is a print directly in the closure. *)
    tc "A1: printing job flagged (direct + via helper)"
      (typed "print_job"
         ~expected:[ ("A1", "print_job.ml", 4); ("A1", "print_job.ml", 7) ]);
    (* A captured-state write in a pool job is D1's, on the cone A1 walks. *)
    tc "D1: captured-ref write in a pool job flagged"
      (typed "captured_write"
         ~expected:[ ("D1", "captured_write.ml", 5); ("D1", "captured_write.ml", 8) ]);
    tc "A2: raising timer callback flagged"
      (typed "raising_timer" ~expected:[ ("A2", "raising_timer.ml", 5) ]);
    (* Line 4 uses a let-alias of (=) at Pid.t; line 7 an eta-expansion of
       that alias. *)
    tc "A3: aliased (=) on Pid.t flagged"
      (typed "aliased_eq" ~expected:[ ("A3", "aliased_eq.ml", 4); ("A3", "aliased_eq.ml", 7) ]);
    (* Bare compare at any type, = / <> on Value.t, Sim_time.t,
       Pid.Map.t and Pid.Set.t, and max / min on Sim_time.t, Pid.t and
       (through a let-alias) Value.t. *)
    tc "A3: bare compare and protected-type (=) flagged"
      (typed "polycmp_bad"
         ~expected:
           [
             ("A3", "polycmp_bad.ml", 7);
             ("A3", "polycmp_bad.ml", 8);
             ("A3", "polycmp_bad.ml", 9);
             ("A3", "polycmp_bad.ml", 10);
             ("A3", "polycmp_bad.ml", 11);
             ("A3", "polycmp_bad.ml", 12);
             ("A3", "polycmp_bad.ml", 13);
             ("A3", "polycmp_bad.ml", 15);
           ]);
    (* The print_job violation again, under [@check.allow pure "..."]. *)
    tc "[@check.allow] suppresses with a reason" (typed "suppressed" ~expected:[]);
    (* The unsorted Hashtbl.fold on line 3 is flagged; its |> List.sort
       twin below is not. *)
    tc "A4: unsorted Hashtbl.fold escape flagged"
      (typed "unordered_fold" ~expected:[ ("A4", "unordered_fold.ml", 3) ]);
    (* A direct and a let-bound unsorted fold, and a Hashtbl.iter pushing
       onto a list ref. *)
    tc "A4: fold and iter list escapes flagged"
      (typed "unordered_bad"
         ~expected:
           [
             ("A4", "unordered_bad.ml", 4);
             ("A4", "unordered_bad.ml", 7);
             ("A4", "unordered_bad.ml", 12);
           ]);
    tc "directory walk finds every seeded violation" (whole_directory "analyze_fixtures" 19);
    tc "fixture .cmt files are discovered" (fun () ->
        Alcotest.(check bool) "found at least one .cmt" true
          ((result ~cmts:[ "analyze_fixtures/pure_ok" ] ()).n_units >= 1));
  ]

let alloccheck_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let typed = typed ~dir:"alloccheck_fixtures" in
  [
    (* The closure on line 4 lives in [mid], one call below the annotated
       root: the interprocedural half. *)
    tc "Z1: closure via intermediate flagged"
      (typed "z1_closure" ~expected:[ ("Z1", "z1_closure.ml", 4) ]);
    tc "Z1: chain message names root and intermediate" (fun () ->
        match (result ~cmts:[ "alloccheck_fixtures/z1_closure" ] ()).findings with
        | [ f ] ->
          let mentions sub =
            let n = String.length f.msg and m = String.length sub in
            let rec go i = i + m <= n && (String.sub f.msg i m = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "message names the root" true (mentions "Z1_closure.root");
          Alcotest.(check bool) "message names the intermediate" true
            (mentions "via Z1_closure.mid")
        | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
    tc "Z2: Some-boxing flagged" (typed "z2_boxed" ~expected:[ ("Z2", "z2_boxed.ml", 2) ]);
    tc "Z3: Array.make via helper flagged" (typed "z3_bulk" ~expected:[ ("Z3", "z3_bulk.ml", 2) ]);
    tc "Z4: unknown callback call flagged"
      (typed "z4_extern" ~expected:[ ("Z4", "z4_extern.ml", 2) ]);
    (* Allocations outside the root cone are not the checker's business. *)
    tc "decoy: allocations outside the root cone ignored" (typed "decoy" ~expected:[]);
    (* The z2_boxed violation again, under [@check.allow boxed "..."]. *)
    tc "[@check.allow] suppresses with a reason" (typed "suppressed" ~expected:[]);
    (* An allow naming an unregistered rule key is itself reported. *)
    tc "unknown allow key is itself a finding"
      (typed "bad_allow" ~expected:[ ("CHECK", "bad_allow.ml", 3) ]);
    (* An allow span in the root cone covering no finding is itself
       reported. *)
    tc "stale [@check.allow] is itself a finding"
      (typed "stale" ~expected:[ ("STALE", "stale_alloc.ml", 4) ]);
    tc "directory walk finds every seeded violation" (whole_directory "alloccheck_fixtures" 6);
    tc "static_roots budget parser round-trips" (fun () ->
        let json =
          {|{ "minor_words_per_event_budget": 0.01,
              "static_roots": [ "Sim.Engine.step", "Sim.Timer_wheel.pop" ],
              "note": "x" }|}
        in
        (match Check.Roots_check.static_roots_of_string json with
        | Ok roots ->
          Alcotest.(check (list string))
            "parsed roots" [ "Sim.Engine.step"; "Sim.Timer_wheel.pop" ] roots
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
        match Check.Roots_check.static_roots_of_string "{}" with
        | Ok _ -> Alcotest.fail "missing key must be an error"
        | Error _ -> ());
  ]

let racecheck_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let typed = typed ~dir:"racecheck_fixtures" in
  [
    (* Line 11 is the write directly in the pool closure; line 5 the same
       ref written through a helper — the interprocedural half. *)
    tc "D1: captured write flagged (direct + via helper)"
      (typed "d1_capture" ~expected:[ ("D1", "d1_capture.ml", 5); ("D1", "d1_capture.ml", 11) ]);
    tc "D2: unpublished cross-domain read flagged"
      (typed "d2_publish" ~expected:[ ("D2", "d2_publish.ml", 6) ]);
    tc "D4: Mutex outside the boundary flagged"
      (typed "d4_mutex"
         ~expected:[ ("D4", "d4_mutex.ml", 4); ("D4", "d4_mutex.ml", 7); ("D4", "d4_mutex.ml", 8) ]);
    (* Under a lib/exec/ path, Atomic is sanctioned (no D4) and an opaque
       callee in a [@race.domain] hook IS a D1 obligation; the decoy
       shard.ml outside lib/exec gets no exemption. *)
    tc "boundary: lib/exec sanctioned, decoy shard.ml not"
      (typed "boundary" ~expected:[ ("D1", "lib/exec/pooled.ml", 10); ("D4", "shard.ml", 3) ]);
    (* Owner-threaded state inside the closure: the design, not a race. *)
    tc "clean shard-local closure produces no findings" (typed "clean_shard" ~expected:[]);
    tc "[@check.allow] suppresses with a reason" (fun () ->
        let r = result ~cmts:[ "racecheck_fixtures/suppressed" ] () in
        Alcotest.(check (list (triple string string int))) "no surviving findings" [] (rule_files r);
        Alcotest.(check int) "both violations recorded as suppressed" 2 (List.length r.suppressed));
    tc "stale [@check.allow] is itself a finding"
      (typed "stale" ~expected:[ ("STALE", "race_stale.ml", 7) ]);
    tc "directory walk finds every seeded violation" (whole_directory "racecheck_fixtures" 9);
  ]

(* --- the registry ----------------------------------------------------- *)

(* One family's slice of the single registry: the ids it still emits
   (retired ids are not reused, hence the gaps) and their keys. *)
let family_registry ~prefix ~expected () =
  let family =
    List.filter
      (fun (r : Check.Rule.info) -> String.length r.id > 0 && r.id.[0] = prefix)
      Check.Registry.rules
  in
  let ids = List.map (fun (r : Check.Rule.info) -> r.id) family in
  Alcotest.(check (list string)) "rule ids" expected (List.sort String.compare ids);
  let keys = List.map (fun (r : Check.Rule.info) -> r.key) family in
  Alcotest.(check int)
    "suppression keys are unique"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let registry_case range prefix expected =
  Alcotest.test_case
    (Printf.sprintf "registry lists %s with unique keys" range)
    `Quick
    (family_registry ~prefix ~expected)

let check_tests =
  [
    Alcotest.test_case "registry: rule ids and keys are unique" `Quick (fun () ->
        let unique what xs =
          Alcotest.(check (list string))
            (what ^ " are unique") (List.sort String.compare xs)
            (List.sort_uniq String.compare xs)
        in
        let rules = Check.Registry.rules in
        unique "ids" (List.map (fun (r : Check.Rule.info) -> r.id) rules);
        unique "keys" (List.map (fun (r : Check.Rule.info) -> r.key) rules);
        unique "ids and meta ids"
          (List.map (fun (r : Check.Rule.info) -> r.id) rules @ List.map fst Check.Registry.meta));
  ]

(* --- committed fixtures ----------------------------------------------- *)

(* Every file under test/golden/ and test/*_fixtures/ must be in
   `git ls-files`: a fixture that exists only in one checkout passes
   there and fails on a fresh clone.  Outside a git work tree there is
   nothing to compare against, so the test is skipped. *)
let lines_of cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (go []) in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some lines | _ -> None

let test_fixtures_tracked () =
  match lines_of "git rev-parse --show-toplevel" with
  | None -> Alcotest.skip ()
  | Some top -> (
    let cmd =
      Printf.sprintf "git -C %s ls-files --others -- test/golden 'test/*_fixtures/*'"
        (Filename.quote (String.concat "" top))
    in
    match lines_of cmd with
    | Some untracked ->
      Alcotest.(check (list string)) "fixtures missing from git ls-files" [] untracked
    | None -> Alcotest.failf "%s failed" cmd)

let suites =
  [
    ("lint", lint_tests @ [ registry_case "R1-R6" 'R' [ "R1"; "R4"; "R5"; "R6" ] ]);
    ("analyze", analyze_tests @ [ registry_case "A1-A4" 'A' [ "A1"; "A2"; "A3"; "A4" ] ]);
    ("alloccheck", alloccheck_tests @ [ registry_case "Z1-Z4" 'Z' [ "Z1"; "Z2"; "Z3"; "Z4" ] ]);
    ("racecheck", racecheck_tests @ [ registry_case "D1-D4" 'D' [ "D1"; "D2"; "D4" ] ]);
    ("check", check_tests);
    ( "fixtures",
      [ Alcotest.test_case "every fixture file is tracked by git" `Quick test_fixtures_tracked ] );
  ]
