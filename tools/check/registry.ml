(* The rule registry — the one place a new rule is added.  Ids and keys
   are unique across all entries.  A retired rule's id is not reused,
   hence the gaps (R2, R3, D3). *)

let all : Rule.t list =
  [
    Rule_ambient.rule;  (* R1 *)
    Rule_payload.rule;  (* R4 *)
    Rule_mli.rule;  (* R5 *)
    Rule_obsname.rule;  (* R6 *)
    Rule_exnsafe.rule;  (* A2 *)
    Rule_polycmp.rule;  (* A3 *)
    Rule_unordered.rule;  (* A4 *)
    Alloc_walk.rule;  (* Z1-Z4 *)
    Domain_walk.rule;  (* A1, D1, D2 *)
    Rule_blocking.rule;  (* D4 *)
  ]

let rules = List.concat_map (fun (r : Rule.t) -> r.emits) all

(* The ids a run can report besides the rules', for --list-rules. *)
let meta =
  [
    (Allow.meta_rule, "a [@check.allow] attribute is malformed, lacks a reason, or names \
                       an unknown rule key");
    ("STALE", "a [@check.allow] span that suppresses nothing");
    ("PARSE", "a source file below the scanned roots does not parse");
    ("CMT", "a .cmt file below the scanned roots could not be read");
  ]
