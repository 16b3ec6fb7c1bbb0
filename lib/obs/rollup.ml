(* SLA rollups over Qos reports, rendered as deterministic JSON
   (docs/schemas/qos.schema.json).  The same renderer backs the three
   surfaces — `ecfd qos`, the tracequery `rollup` subcommand and bench
   e22 — so their outputs agree byte-for-byte on identical traces. *)

type agg = {
  a_pairs : int;
  a_crashed : int;  (* crashed subjects, counted once per pair *)
  a_detected : int;
  a_undetected : int;
  a_detection_mean : float option;  (* over detected pairs *)
  a_detection_max : int;
  a_mistakes : int;
  a_mistake_time : int;
  a_longest_mistake : int;
  a_up_time : int;
  a_mistake_rate_per_1k : float;  (* mistakes per 1000 tick*pairs of up-time *)
  a_query_accuracy : float;
  a_window_total : int;
  a_incorrect_total : int;
  a_availability_pct : float;
  a_longest_outage : int;
  a_leader_elected : bool;
  a_leader_changes : int;
  a_final_leader_agreed : bool;
  a_steady_leader_at : int option;
}

let aggregate (r : Qos.report) =
  let pairs = r.Qos.pairs in
  let a_pairs = List.length pairs in
  let a_crashed =
    List.length (List.filter (fun p -> p.Qos.subject_crashed_at <> None) pairs)
  in
  let detections = List.filter_map (fun p -> p.Qos.detection_time) pairs in
  let a_detected = List.length detections in
  (* Undetected = a live observer never ended up permanently suspecting a
     crashed subject; pairs whose observer itself crashed are excluded
     from both counts. *)
  let a_undetected =
    List.length
      (List.filter
         (fun p ->
           p.Qos.subject_crashed_at <> None
           && p.Qos.detection_time = None
           && p.Qos.window = r.Qos.horizon)
         pairs)
  in
  let a_detection_mean =
    match detections with
    | [] -> None
    | ds ->
      Some (float_of_int (List.fold_left ( + ) 0 ds) /. float_of_int (List.length ds))
  in
  let a_detection_max = List.fold_left Stdlib.max 0 detections in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 pairs in
  let a_mistakes = sum (fun p -> p.Qos.mistakes) in
  let a_mistake_time = sum (fun p -> p.Qos.mistake_time) in
  let a_longest_mistake =
    List.fold_left (fun acc p -> Stdlib.max acc p.Qos.longest_mistake) 0 pairs
  in
  let a_up_time = sum (fun p -> p.Qos.up_time) in
  let a_mistake_rate_per_1k =
    if a_up_time > 0 then 1000.0 *. float_of_int a_mistakes /. float_of_int a_up_time
    else 0.0
  in
  let a_query_accuracy =
    if a_up_time > 0 then
      1.0 -. (float_of_int a_mistake_time /. float_of_int a_up_time)
    else 1.0
  in
  let a_window_total = sum (fun p -> p.Qos.window) in
  let a_incorrect_total = sum (fun p -> p.Qos.incorrect_time) in
  let a_availability_pct =
    if a_window_total > 0 then
      100.0 *. (1.0 -. (float_of_int a_incorrect_total /. float_of_int a_window_total))
    else 100.0
  in
  let a_longest_outage =
    List.fold_left (fun acc p -> Stdlib.max acc p.Qos.longest_outage) 0 pairs
  in
  let a_leader_elected =
    List.exists (fun l -> l.Qos.l_steady_at <> None) r.Qos.leaders
  in
  let a_leader_changes = List.fold_left (fun acc l -> acc + l.Qos.l_changes) 0 r.Qos.leaders in
  (* "Agreed" and "steady" are judged over the observers still alive at
     the horizon: they all trust the same (live) final leader. *)
  let live = List.filter (fun l -> l.Qos.l_window = r.Qos.horizon) r.Qos.leaders in
  let a_final_leader_agreed, a_steady_leader_at =
    match live with
    | [] -> (false, None)
    | l0 :: rest ->
      let agreed =
        l0.Qos.l_final <> None
        && List.for_all (fun l -> l.Qos.l_final = l0.Qos.l_final) rest
      in
      if agreed then
        ( true,
          Some
            (List.fold_left
               (fun acc l ->
                 match l.Qos.l_steady_at with Some s -> Stdlib.max acc s | None -> acc)
               0 live) )
      else (false, None)
  in
  {
    a_pairs;
    a_crashed;
    a_detected;
    a_undetected;
    a_detection_mean;
    a_detection_max;
    a_mistakes;
    a_mistake_time;
    a_longest_mistake;
    a_up_time;
    a_mistake_rate_per_1k;
    a_query_accuracy;
    a_window_total;
    a_incorrect_total;
    a_availability_pct;
    a_longest_outage;
    a_leader_elected;
    a_leader_changes;
    a_final_leader_agreed;
    a_steady_leader_at;
  }

type scenario = { name : string; component : string; report : Qos.report }

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let opt_int = function None -> "null" | Some v -> string_of_int v
let opt_float = function None -> "null" | Some v -> Printf.sprintf "%.6f" v

let add_scenario buf { name; component; report } =
  let a = aggregate report in
  Printf.bprintf buf
    "    {\n      \"name\": \"%s\",\n      \"component\": \"%s\",\n      \"n\": %d,\n      \"horizon\": %d,\n"
    (json_escape name) (json_escape component) report.Qos.n report.Qos.horizon;
  Printf.bprintf buf
    "      \"detection\": { \"crashed_pairs\": %d, \"detected\": %d, \"undetected\": %d, \"mean_ticks\": %s, \"max_ticks\": %d },\n"
    a.a_crashed a.a_detected a.a_undetected (opt_float a.a_detection_mean) a.a_detection_max;
  Printf.bprintf buf
    "      \"mistakes\": { \"count\": %d, \"rate_per_1k_ticks\": %.6f, \"total_ticks\": %d, \"longest_ticks\": %d, \"query_accuracy\": %.6f },\n"
    a.a_mistakes a.a_mistake_rate_per_1k a.a_mistake_time a.a_longest_mistake
    a.a_query_accuracy;
  Printf.bprintf buf
    "      \"sla\": { \"availability_pct\": %.6f, \"total_downtime_ticks\": %d, \"longest_outage_ticks\": %d, \"leader_elected\": %b, \"leader_changes\": %d, \"final_leader_agreed\": %b, \"steady_leader_at\": %s },\n"
    a.a_availability_pct a.a_incorrect_total a.a_longest_outage a.a_leader_elected
    a.a_leader_changes a.a_final_leader_agreed (opt_int a.a_steady_leader_at);
  Printf.bprintf buf "      \"pairs\": [";
  List.iteri
    (fun i (p : Qos.pair) ->
      Printf.bprintf buf
        "%s\n        { \"observer\": %d, \"subject\": %d, \"window\": %d, \"crashed_at\": %s, \"detection_ticks\": %s, \"mistakes\": %d, \"mistake_ticks\": %d, \"longest_mistake_ticks\": %d, \"up_ticks\": %d, \"downtime_ticks\": %d, \"longest_outage_ticks\": %d }"
        (if i = 0 then "" else ",")
        p.Qos.observer p.Qos.subject p.Qos.window (opt_int p.Qos.subject_crashed_at)
        (opt_int p.Qos.detection_time) p.Qos.mistakes p.Qos.mistake_time
        p.Qos.longest_mistake p.Qos.up_time p.Qos.incorrect_time p.Qos.longest_outage)
    report.Qos.pairs;
  Printf.bprintf buf "\n      ],\n";
  Printf.bprintf buf "      \"leaders\": [";
  List.iteri
    (fun i (l : Qos.leader) ->
      Printf.bprintf buf
        "%s\n        { \"observer\": %d, \"window\": %d, \"changes\": %d, \"steady_at\": %s, \"final\": %s }"
        (if i = 0 then "" else ",")
        l.Qos.l_observer l.Qos.l_window l.Qos.l_changes (opt_int l.Qos.l_steady_at)
        (opt_int l.Qos.l_final))
    report.Qos.leaders;
  Printf.bprintf buf "\n      ]\n    }"

let to_json ?build_profile scenarios =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"bench\": \"qos\",\n  \"schema_version\": 1,\n";
  Option.iter (Printf.bprintf buf "  \"build_profile\": %S,\n") build_profile;
  Buffer.add_string buf "  \"scenarios\": [\n";
  List.iteri
    (fun i sc ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_scenario buf sc)
    scenarios;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
