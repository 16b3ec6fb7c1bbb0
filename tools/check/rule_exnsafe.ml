(* A2 — exception-safety of engine callbacks.

   Timer callbacks ([Engine.set_timer], [Engine.every], [Engine.at]) and
   message handlers ([Engine.register]) execute inside [Engine.step]'s
   event dispatch.  An exception escaping one unwinds the engine mid-event
   and leaves the simulation half-stepped — every quantitative claim
   regenerated from such a run is garbage.  The contract is therefore:
   every raising path inside a callback is locally handled, or the
   callback is explicitly annotated [@analyze.may_raise] (which documents
   that the raise is a deliberate abort of the whole run, e.g. an
   invariant check in a test harness).

   Mechanics: at every application of a sink, the function-typed arguments
   are the callbacks.  A lambda is analysed in place; a named function is
   resolved through the value index (one hop) and its body analysed.
   Inside the body, [raise]/[raise_notrace]/[failwith]/[invalid_arg] and
   [assert] are flagged — except under a [try ... with] or a [match]
   carrying exception cases, whose scrutinee/body is considered locally
   handled (the handler branches themselves are still scanned: a re-raise
   escapes). *)

let rule_id = "A2"
let key = "raises"

(* Marks a callback whose raise is a deliberate whole-run abort; checked
   by this rule only, so it lives here rather than in the shared
   suppression machinery. *)
let may_raise_attr = "analyze.may_raise"

let sinks = [ "set_timer"; "every"; "at"; "register" ]

let is_sink ~(source : Cmt_source.t) np =
  match List.rev np with
  | f :: rest ->
    List.mem f sinks
    && (match rest with
       | "Engine" :: _ -> true
       | [] -> Tast_util.has_suffix ~suffix:[ "sim"; "engine.ml" ]
                 (String.split_on_char '/' source.source_path)
       | _ -> false)
  | [] -> false

let raising_head np =
  match np with
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] -> true
  | _ -> false

let has_exception_case cases =
  List.exists
    (fun (c : Typedtree.computation Typedtree.case) ->
      match Typedtree.split_pattern c.c_lhs with _, Some _ -> true | _ -> false)
    cases

(* Scan a callback body for raises that can escape it. *)
let scan_escaping ~flag (body : Typedtree.expression) =
  let rec go (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, args) ->
      (match Tast_util.head_path f with
      | Some np when raising_head np ->
        flag e.exp_loc
          (Printf.sprintf "%s" (String.concat "." np))
      | _ -> go f);
      List.iter go (Tast_util.supplied_args args)
    | Texp_assert _ -> flag e.exp_loc "assert (raises Assert_failure when false)"
    | Texp_try (_, handlers) ->
      (* The guarded body is locally handled; a raise in a handler branch
         still escapes. *)
      List.iter (fun (c : Typedtree.value Typedtree.case) -> go c.c_rhs) handlers
    | Texp_match (_, cases, _) when has_exception_case cases ->
      List.iter (fun (c : Typedtree.computation Typedtree.case) -> go c.c_rhs) cases
    | _ -> Tast_util.shallow_iter go e
  in
  go body

let callback_exempt ~(index : Index.t) (cb : Typedtree.expression) =
  let may_raise = may_raise_attr in
  if Tast_util.has_attr may_raise cb.exp_attributes then (None, true)
  else
    match cb.exp_desc with
    | Texp_ident (p, _, _) -> (
      let def =
        match p with
        | Pident id -> Index.resolve_stamp index (Ident.unique_name id)
        | Pdot _ -> Index.resolve_path index (Tast_util.dotted (Tast_util.path_of p))
        | _ -> None
      in
      match def with
      | Some def ->
        if
          Tast_util.has_attr may_raise def.attrs
          || Tast_util.has_attr may_raise def.expr.exp_attributes
        then (None, true)
        else (Some def.expr, false)
      | None -> (None, true) (* external: opaque, nothing to scan *))
    | _ -> (Some cb, false)

let run (index : Index.t) =
  let findings = ref [] in
  let emitted = Hashtbl.create 32 in
  List.iter
    (fun (source : Cmt_source.t) ->
      let open Tast_iterator in
      let it =
        {
          default_iterator with
          expr =
            (fun self (e : Typedtree.expression) ->
              (match e.exp_desc with
              | Texp_apply (f, args) -> (
                match Tast_util.head_path f with
                | Some np when is_sink ~source np ->
                  let sink_name = Tast_util.dotted np in
                  let reg = e.exp_loc.loc_start in
                  List.iter
                    (fun (a : Typedtree.expression) ->
                      if Tast_util.is_arrow a.exp_type then begin
                        match callback_exempt ~index a with
                        | _, true -> ()
                        | body, false ->
                          let body = Option.value body ~default:a in
                          scan_escaping
                            ~flag:(fun loc what ->
                              let fk =
                                (loc.Location.loc_start.pos_fname,
                                 loc.loc_start.pos_cnum)
                              in
                              if not (Hashtbl.mem emitted fk) then begin
                                Hashtbl.add emitted fk ();
                                findings :=
                                  Finding.of_loc ~rule:rule_id ~key
                                    ~msg:
                                      (Printf.sprintf
                                         "%s may escape the %s callback registered \
                                          at %s:%d and unwind the engine mid-event; \
                                          handle it locally or annotate the callback \
                                          [@analyze.may_raise]"
                                         what sink_name reg.pos_fname reg.pos_lnum)
                                    loc
                                  :: !findings
                              end)
                            body
                      end)
                    (Tast_util.nolabel_args args)
                | _ -> ())
              | _ -> ());
              default_iterator.expr self e);
        }
      in
      it.structure it source.str)
    index.sources;
  List.rev !findings

let rule =
  Rule.one ~id:rule_id ~key
    ~doc:
      "exception-safety: Engine.set_timer/every/at callbacks and Engine.register \
       handlers must not let raises escape into the engine's event dispatch \
       (annotate deliberate aborts [@analyze.may_raise])"
    (Rule.typed run)
