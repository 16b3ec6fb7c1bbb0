(* The D-rule registry — the one place a new domain-safety rule is added
   (mirrors tools/analyze/registry.ml for the A-rules). *)

let all : Drule.t list =
  [
    Rule_escape.rule;  (* D1 *)
    Rule_publish.rule;  (* D2 *)
    (* No D3: barrier-replay completeness went with the sharded engine,
       and the ids are not renumbered. *)
    Rule_blocking.rule;  (* D4 *)
  ]
