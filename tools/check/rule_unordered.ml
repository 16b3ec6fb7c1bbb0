(* A4 — unordered-iteration escape, at the typed level.

   [Hashtbl.fold]/[Hashtbl.iter] enumerate buckets in an order decided by
   the hash seed and insertion history.  Two shapes are flagged:

     - any fully applied [Hashtbl.fold] whose instantiated result type
       still contains an order-sensitive constructor ([list]/[array]) —
       whatever the initial accumulator looked like — unless the result
       visibly flows through a sort before escaping (direct argument,
       [|>]/[@@] pipe, or a let-bound variable sorted later in the same
       body);
     - a [Hashtbl.iter] whose callback pushes onto a ref with [::]
       ([r := x :: !r]): rewrite it as a fold plus a sort.

   This is what keeps bucket order out of [Stats] snapshots and table
   rendering. *)

let rule_id = "A4"
let key = "unordered_t"

let sort_heads =
  [
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

let is_sort np = List.exists (fun s -> Tast_util.has_suffix ~suffix:s np) sort_heads

(* [deep_head], not [apply_head]: [x |> List.sort cmp] is typed as the
   nested application [(List.sort cmp) x]. *)
let head_is_sort (e : Typedtree.expression) =
  match Tast_util.deep_head e with Some np -> is_sort np | None -> false

let order_sensitive ty =
  Tast_util.type_mentions ~pred:(fun np -> np = [ "list" ] || np = [ "array" ]) ty

let is_listy_fold (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
    match Tast_util.head_path f with
    | Some np when Tast_util.has_suffix ~suffix:[ "Hashtbl"; "fold" ] np ->
      (not (Tast_util.is_arrow e.exp_type)) && order_sensitive e.exp_type
    | _ -> false)
  | _ -> false

let is_cons (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "::"; _ }, _) -> true
  | _ -> false

(* [Hashtbl.iter f t] whose callback contains [r := ... :: ...]. *)
let is_accumulating_iter (e : Typedtree.expression) =
  let pushes (x : Typedtree.expression) =
    match x.exp_desc with
    | Texp_apply (op, [ _; (_, Some rhs) ]) -> (
      match Tast_util.head_path op with
      | Some [ ":=" ] -> Tast_util.expr_exists is_cons rhs
      | _ -> false)
    | _ -> false
  in
  match e.exp_desc with
  | Texp_apply (f, args) -> (
    match Tast_util.head_path f with
    | Some np when Tast_util.has_suffix ~suffix:[ "Hashtbl"; "iter" ] np ->
      List.exists (Tast_util.expr_exists pushes) (Tast_util.supplied_args args)
    | _ -> false)
  | _ -> false

(* Does [body] sort the variable with unique name [stamp]?  Covers
   [List.sort cmp x] and [x |> List.sort cmp]. *)
let sorted_in_body ~stamp body =
  Tast_util.expr_exists
    (fun (e : Typedtree.expression) ->
      match e.exp_desc with
      | Texp_apply _ -> (
        let arg_is_var (a : Typedtree.expression) =
          match a.exp_desc with
          | Texp_ident (Pident id, _, _) -> Ident.unique_name id = stamp
          | _ -> false
        in
        let args = Tast_util.flat_args e in
        match Tast_util.deep_head e with
        | Some np when is_sort np -> List.exists arg_is_var args
        | Some ([ "|>" ] | [ "@@" ]) ->
          List.exists arg_is_var args && List.exists head_is_sort args
        | _ -> false)
      | _ -> false)
    body

(* Is the fold at the head of [ancestors] (nearest first) visibly sorted? *)
let sanctioned ~fold ancestors =
  List.exists
    (fun (a : Typedtree.expression) ->
      match a.exp_desc with
      | Texp_apply _ -> (
        match Tast_util.deep_head a with
        | Some np when is_sort np -> true
        | Some ([ "|>" ] | [ "@@" ]) -> List.exists head_is_sort (Tast_util.flat_args a)
        | _ -> false)
      | Texp_let (_, vbs, body) ->
        List.exists
          (fun (vb : Typedtree.value_binding) ->
            vb.vb_expr == fold
            &&
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> sorted_in_body ~stamp:(Ident.unique_name id) body
            | _ -> false)
          vbs
      | _ -> false)
    ancestors

let run (index : Index.t) =
  let findings = ref [] in
  List.iter
    (fun (source : Cmt_source.t) ->
      let ancestors = ref [] in
      let open Tast_iterator in
      let it =
        {
          default_iterator with
          expr =
            (fun self (e : Typedtree.expression) ->
              let flag msg =
                findings := Finding.of_loc ~rule:rule_id ~key ~msg e.exp_loc :: !findings
              in
              if is_listy_fold e && not (sanctioned ~fold:e !ancestors) then
                flag
                  (Printf.sprintf
                     "unordered escape: Hashtbl.fold builds a value of type %s in \
                      bucket order; sort it before it escapes (e.g. |> List.sort cmp) \
                      or justify with [@check.allow unordered_t \"...\"]"
                     (Tast_util.type_to_string e.exp_type))
              else if is_accumulating_iter e then
                flag
                  "unordered escape: Hashtbl.iter accumulates into a list ref in bucket \
                   order; rewrite as Hashtbl.fold + sort or justify with [@check.allow \
                   unordered_t \"...\"]";
              ancestors := e :: !ancestors;
              default_iterator.expr self e;
              ancestors := List.tl !ancestors);
        }
      in
      it.structure it source.str)
    index.sources;
  List.rev !findings

let rule =
  Rule.one ~id:rule_id ~key
    ~doc:
      "unordered escape: a fully applied Hashtbl.fold whose result type still \
       contains list/array must flow through a sort before escaping, and a \
       Hashtbl.iter must not push onto a list ref"
    (Rule.typed run)
