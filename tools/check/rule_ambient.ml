(* R1 — no ambient nondeterminism.

   The simulator's contract (engine.mli) is that a run is a pure function
   of (seed, configuration, component code).  Ambient randomness and wall
   clocks break that silently, so they are banned everywhere except the
   seeded generator itself: randomness must flow through [Sim.Rng], time
   through [Sim_time] / the engine clock.

   Multicore primitives are not scoped here: that is the typed rule D4
   (rule_blocking.ml), where the sanctioned boundary lives with the other
   domain-safety rules and types see through aliases this syntactic rule
   cannot. *)

let banned_paths =
  [
    ([ "Unix"; "time" ], "Unix.time reads the wall clock; use Sim_time / Engine.now");
    ( [ "Unix"; "gettimeofday" ],
      "Unix.gettimeofday reads the wall clock; use Sim_time / Engine.now" );
    ([ "Sys"; "time" ], "Sys.time reads the process clock; use Sim_time / Engine.now");
  ]

let check (src : Parsed.source) =
  if Boundary.is_rng src.path then []
  else begin
    let findings = ref [] in
    let flag loc msg =
      findings := Finding.of_loc ~rule:"R1" ~key:"ambient" ~msg loc :: !findings
    in
    let check_expr (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        let p = Ast_util.path txt in
        match p with
        | "Random" :: _ ->
          flag loc
            (Printf.sprintf
               "ambient nondeterminism: %s; all randomness must flow through the \
                seeded Sim.Rng"
               (String.concat "." p))
        | _ -> (
          match List.find_opt (fun (bad, _) -> bad = p) banned_paths with
          | Some (_, msg) -> flag loc ("ambient nondeterminism: " ^ msg)
          | None -> ()))
      | Pexp_apply (f, args) -> (
        match Ast_util.ident_path f with
        | Some p when Tast_util.has_suffix ~suffix:[ "Hashtbl"; "create" ] p ->
          List.iter
            (fun ((label : Asttypes.arg_label), (arg : Parsetree.expression)) ->
              match label with
              | Labelled "random" | Optional "random" ->
                flag arg.pexp_loc
                  "ambient nondeterminism: Hashtbl.create ~random randomises \
                   iteration order per run; drop the flag"
              | _ -> ())
            args
        | _ -> ())
      | _ -> ()
    in
    let open Ast_iterator in
    let it =
      {
        default_iterator with
        expr =
          (fun self e ->
            check_expr e;
            default_iterator.expr self e);
      }
    in
    it.structure it src.structure;
    !findings
  end

let rule =
  Rule.one ~id:"R1" ~key:"ambient"
    ~doc:
      "no ambient nondeterminism: Stdlib.Random, Unix.time/gettimeofday, Sys.time and \
       Hashtbl.create ~random are banned outside lib/sim/rng.ml (multicore-primitive \
       confinement is rule D4)"
    (File check)
