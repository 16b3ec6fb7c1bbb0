(* R6 — static metric and span names.

   The Obs registry's contract (registry.mli) is that the metric space is
   a static property of the code: every counter/gauge/histogram name and
   every span name is a string literal at its registration site, never
   data-dependent.  A computed name silently fractures one logical metric
   into per-value series, breaks the deterministic name-ordered snapshot
   as a greppable inventory, and defeats R6 itself on every other site.

   The rule checks the [~name] argument of [Obs.Registry.counter],
   [Obs.Registry.gauge], [Obs.Registry.histogram], [Engine.begin_span],
   [Engine.open_span], [Engine.open_spans] and [Engine.close_span]
   applications.  A genuinely parametric site (none exist today) can
   carry [@check.allow obsname "reason"]. *)

(* The registration entry points, by path suffix — [Obs.Registry.counter]
   and a local [Registry.counter] alike.  The span entry points are
   matched under any [Engine] prefix ([Sim.Engine.begin_span],
   [Engine.open_span]). *)
let watched =
  [
    ([ "Registry"; "counter" ], "metric");
    ([ "Registry"; "gauge" ], "metric");
    ([ "Registry"; "histogram" ], "metric");
    ([ "Engine"; "begin_span" ], "span");
    ([ "Engine"; "open_span" ], "span");
    ([ "Engine"; "open_spans" ], "span");
    ([ "Engine"; "close_span" ], "span");
  ]

let rec is_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  (* Parenthesised / type-constrained literals still count. *)
  | Pexp_constraint (e', _) -> is_literal e'
  | _ -> false

let check (src : Parsed.source) =
  let findings = ref [] in
  let check_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match Ast_util.ident_path f with
      | Some p -> (
        match
          List.find_opt (fun (suffix, _) -> Tast_util.has_suffix ~suffix p) watched
        with
        | None -> ()
        | Some (suffix, what) ->
          List.iter
            (fun ((label : Asttypes.arg_label), (arg : Parsetree.expression)) ->
              match label with
              | Labelled "name" when not (is_literal arg) ->
                findings :=
                  Finding.of_loc ~rule:"R6" ~key:"obsname"
                    ~msg:
                      (Printf.sprintf
                         "computed %s name: ~name of %s must be a string literal so \
                          the metric space is a static property of the code"
                         what (String.concat "." suffix))
                    arg.pexp_loc
                  :: !findings
              | _ -> ())
            args)
      | None -> ())
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
  List.rev !findings

let rule =
  Rule.one ~id:"R6" ~key:"obsname"
    ~doc:
      "static observability names: ~name passed to Obs.Registry.counter/gauge/histogram \
       and Engine.begin_span/open_span/open_spans/close_span must be a string literal"
    (File check)
