type counter = { mutable count : int }
type gauge = { mutable level : int }

type histogram = {
  bounds : int array;  (** Strictly increasing inclusive upper bounds. *)
  bucket_counts : int array;  (** [Array.length bounds + 1]: the last slot is overflow. *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let mismatch ~name ~wanted existing =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %S is already registered as a %s, not a %s" name
       (kind_name existing) wanted)

let counter t ~name =
  match Hashtbl.find_opt t.table name with
  | Some (M_counter c) -> c
  | Some m -> mismatch ~name ~wanted:"counter" m
  | None ->
    let c = { count = 0 } in
    Hashtbl.add t.table name (M_counter c);
    c

let gauge t ~name =
  match Hashtbl.find_opt t.table name with
  | Some (M_gauge g) -> g
  | Some m -> mismatch ~name ~wanted:"gauge" m
  | None ->
    let g = { level = 0 } in
    Hashtbl.add t.table name (M_gauge g);
    g

let histogram t ~name ~buckets =
  let bounds = Array.of_list buckets in
  if Array.length bounds = 0 then
    invalid_arg "Obs.Registry.histogram: buckets must be non-empty";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Obs.Registry.histogram: buckets must be strictly increasing")
    bounds;
  match Hashtbl.find_opt t.table name with
  | Some (M_histogram h) ->
    if
      not
        (Array.length h.bounds = Array.length bounds
        && Array.for_all2 Int.equal h.bounds bounds)
    then
      invalid_arg
        (Printf.sprintf "Obs.Registry: histogram %S re-registered with different buckets" name);
    h
  | Some m -> mismatch ~name ~wanted:"histogram" m
  | None ->
    let h =
      {
        bounds;
        bucket_counts = Array.make (Array.length bounds + 1) 0;
        h_count = 0;
        h_sum = 0;
        h_max = 0;
      }
    in
    Hashtbl.add t.table name (M_histogram h);
    h

let incr c = c.count <- c.count + 1
let add c k = c.count <- c.count + k
let set g v = g.level <- v
let set_max g v = if v > g.level then g.level <- v

(* Few buckets per histogram; a linear scan beats binary search at these
   sizes and stays branch-predictable.  Top-level, so a delivery's
   [observe] builds no closure. *)
let rec bucket bounds v i =
  if i = Array.length bounds || v <= bounds.(i) then i else bucket bounds v (i + 1)

let observe h v =
  let s = bucket h.bounds v 0 in
  h.bucket_counts.(s) <- h.bucket_counts.(s) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      buckets : int list;
      counts : int list;
      count : int;
      sum : int;
      max_value : int;
      p50 : int;
      p99 : int;
      p999 : int;
    }

type snapshot = (string * value) list

(* Rank-based bucket quantile: rank ceil(q*count), walked over cumulative
   bucket counts.  The estimate is the upper bound of the containing
   bucket, clamped to the largest observation (the bound can overshoot
   when the bucket is only partially filled); the overflow bucket has no
   bound and reports [max_value] directly.  Pure integer arithmetic over
   the deterministic counts, so the estimate is deterministic too. *)
let histogram_quantile ~buckets ~counts ~count ~max_value q =
  if count <= 0 then 0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int count)) in
      Stdlib.min count (Stdlib.max 1 r)
    in
    let bounds = Array.of_list buckets in
    let n = Array.length bounds in
    let rec walk i cum counts =
      match counts with
      | [] -> max_value
      | c :: rest ->
        let cum = cum + c in
        if cum >= rank then if i < n then Stdlib.min bounds.(i) max_value else max_value
        else walk (i + 1) cum rest
    in
    walk 0 0 counts
  end

(* Sorted so the snapshot is independent of registration order — the same
   rule Stats.snapshot follows (HACKING.md, "Determinism rules"). *)
let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | M_counter c -> Counter c.count
        | M_gauge g -> Gauge g.level
        | M_histogram h ->
          let buckets = Array.to_list h.bounds in
          let counts = Array.to_list h.bucket_counts in
          let q =
            histogram_quantile ~buckets ~counts ~count:h.h_count ~max_value:h.h_max
          in
          Histogram
            {
              buckets;
              counts;
              count = h.h_count;
              sum = h.h_sum;
              max_value = h.h_max;
              p50 = q 0.5;
              p99 = q 0.99;
              p999 = q 0.999;
            }
      in
      (name, v) :: acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_snapshot ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter c -> Format.fprintf ppf "%s counter %d@." name c
      | Gauge g -> Format.fprintf ppf "%s gauge %d@." name g
      | Histogram { count; sum; max_value; _ } ->
        Format.fprintf ppf "%s histogram count=%d sum=%d max=%d@." name count sum max_value)
    snap

let json_int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

(* Metric names are code literals (rule R6), so they never need escaping —
   but escape anyway: a JSON emitter that can produce invalid JSON is a
   latent bug. *)
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

let json_of_snapshot snap =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      (match v with
      | Counter c ->
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"counter\",\"value\":%d}" (json_escape name)
             c)
      | Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"gauge\",\"value\":%d}" (json_escape name) g)
      | Histogram { buckets; counts; count; sum; max_value; p50; p99; p999 } ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"kind\":\"histogram\",\"buckets\":%s,\"counts\":%s,\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p99\":%d,\"p999\":%d}"
             (json_escape name) (json_int_list buckets) (json_int_list counts) count sum
             max_value p50 p99 p999)))
    snap;
  Buffer.add_string buf "]}";
  Buffer.contents buf
