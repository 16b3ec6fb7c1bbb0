(* D4 — blocking/ordering hazards outside the sanctioned boundary.

   [Domain], [Atomic], [Mutex], [Condition] and [Semaphore] references
   are confined to lib/exec/ (the pool) — the Boundary module.  A
   spawn in simulated code forks the determinism story; a mutex can
   deadlock against the pool's own joins; an ad-hoc Atomic invents a
   synchronisation protocol the checkers cannot see.  This is the typed
   successor of lint R1's multicore arm: R1 now checks only ambient
   nondeterminism, and the multicore exemption list lives here, next to
   the rules that prove the exempted files safe. *)

open Check_common

let rule_id = "D4"
let key = "blocking"

let multicore_roots = [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore" ]

let run (index : Index.t) =
  let findings = ref [] in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (source : Cmt_source.t) ->
      if not (Boundary.sanctioned source.source_path) then
        Tast_util.iter_structure_expressions
          (fun (e : Typedtree.expression) ->
            match e.exp_desc with
            | Texp_ident (p, _, _) -> (
              match Tast_util.path_of p with
              | root :: _ :: _ when List.mem root multicore_roots ->
                let k =
                  (e.exp_loc.Location.loc_start.pos_fname, e.exp_loc.loc_start.pos_cnum)
                in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  findings :=
                    Finding.of_loc ~rule:rule_id ~key
                      ~msg:
                        (Printf.sprintf
                           "multicore primitive %s outside the sanctioned boundary \
                            (lib/exec/) — simulated code must \
                            stay domain-free and deterministic; parallelism \
                            belongs to the pool (HACKING.md \"The job pool\"), or \
                            justify with [@race.allow blocking \"...\"]"
                           (Tast_util.dotted (Tast_util.path_of p)))
                      e.exp_loc
                    :: !findings
                end
              | _ -> ())
            | _ -> ())
          source.str)
    index.sources;
  List.rev !findings

let rule : Drule.t =
  {
    id = rule_id;
    key;
    doc =
      "blocking/ordering hazards: Domain/Atomic/Mutex/Condition/Semaphore are \
       confined to lib/exec/";
    run;
  }
