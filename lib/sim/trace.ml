type body =
  | Send of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Deliver of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Drop of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
      reason : string;
    }
  | Crash of { at : Sim_time.t; pid : Pid.t }
  | Fd_view of {
      at : Sim_time.t;
      pid : Pid.t;
      component : string;
      suspected : Pid.Set.t;
      trusted : Pid.t option;
    }
  | Propose of { at : Sim_time.t; pid : Pid.t; value : int }
  | Decide of { at : Sim_time.t; pid : Pid.t; value : int; round : int }
  | Note of { at : Sim_time.t; pid : Pid.t; tag : string; detail : string }
  | Span_begin of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }
  | Span_end of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }

type event = { seq : int; lc : int; body : body }

(* Events live in a growable array, appended in order of occurrence, so
   [iter]/[to_seq] walk them with no per-read allocation (the previous
   reversed-list storage re-materialised the whole trace on every
   [events] call, and every derived view rescanned that copy).

   [clocks] is the per-process Lamport clock, grown on demand — the trace
   does not know [n], and hand-built test traces should not have to
   declare it.  [send_lc] maps an in-flight message id to its send stamp;
   the entry is consumed by the matching [Deliver] or [Drop], so the
   table's residency is bounded by in-flight messages, not run length. *)
type t = {
  mutable arr : event array;
  mutable count : int;
  mutable clocks : int array;
  send_lc : (int, int) Hashtbl.t;
}

let dummy_event = { seq = -1; lc = 0; body = Crash { at = Sim_time.zero; pid = 0 } }

let create () =
  { arr = [||]; count = 0; clocks = [||]; send_lc = Hashtbl.create 64 }

let clock t pid = if pid < Array.length t.clocks then t.clocks.(pid) else 0

let set_clock t pid v =
  let capacity = Array.length t.clocks in
  if pid >= capacity then begin
    let capacity' = Stdlib.max 8 (Stdlib.max (pid + 1) (2 * capacity)) in
    let clocks' = Array.make capacity' 0 in
    Array.blit t.clocks 0 clocks' 0 capacity;
    t.clocks <- clocks'
  end;
  t.clocks.(pid) <- v

let tick t pid =
  let c = clock t pid + 1 in
  set_clock t pid c;
  c

(* The clock rules (see trace.mli): Send ticks the sender and publishes
   its stamp under the message id; Deliver joins the receiver's clock with
   that stamp; Drop adopts the stamp without ticking anyone; every other
   event ticks the process it happens at. *)
let stamp t = function
  | Send { src; msg; _ } ->
    let c = tick t src in
    if msg >= 0 then Hashtbl.replace t.send_lc msg c;
    c
  | Deliver { dst; msg; _ } ->
    let sent =
      match Hashtbl.find_opt t.send_lc msg with
      | Some c ->
        Hashtbl.remove t.send_lc msg;
        c
      | None -> 0
    in
    let c = Stdlib.max (clock t dst) sent + 1 in
    set_clock t dst c;
    c
  | Drop { msg; _ } -> (
    match Hashtbl.find_opt t.send_lc msg with
    | Some c ->
      Hashtbl.remove t.send_lc msg;
      c
    | None -> 0)
  | Crash { pid; _ }
  | Fd_view { pid; _ }
  | Propose { pid; _ }
  | Decide { pid; _ }
  | Note { pid; _ }
  | Span_begin { pid; _ }
  | Span_end { pid; _ } -> tick t pid

let record t body =
  let capacity = Array.length t.arr in
  if t.count = capacity then begin
    let capacity' = Stdlib.max 64 (2 * capacity) in
    let arr' = Array.make capacity' dummy_event in
    Array.blit t.arr 0 arr' 0 capacity;
    t.arr <- arr'
  end;
  let lc = stamp t body in
  t.arr.(t.count) <- { seq = t.count; lc; body };
  t.count <- t.count + 1

let length t = t.count

let iter t f =
  for i = 0 to t.count - 1 do
    f t.arr.(i)
  done

let to_seq t =
  let rec node i () = if i >= t.count then Seq.Nil else Seq.Cons (t.arr.(i), node (i + 1)) in
  node 0

let events t = List.init t.count (fun i -> t.arr.(i))

let time_of = function
  | Send { at; _ }
  | Deliver { at; _ }
  | Drop { at; _ }
  | Crash { at; _ }
  | Fd_view { at; _ }
  | Propose { at; _ }
  | Decide { at; _ }
  | Note { at; _ }
  | Span_begin { at; _ }
  | Span_end { at; _ } -> at

let pid_of = function
  | Send { src; _ } -> Some src
  | Deliver { dst; _ } -> Some dst
  | Drop _ -> None
  | Crash { pid; _ }
  | Fd_view { pid; _ }
  | Propose { pid; _ }
  | Decide { pid; _ }
  | Note { pid; _ }
  | Span_begin { pid; _ }
  | Span_end { pid; _ } -> Some pid

let pp_trusted ppf = function
  | None -> Format.fprintf ppf "-"
  | Some q -> Pid.pp ppf q

let pp_body ppf = function
  | Send { at; src; dst; msg; component; tag } ->
    Format.fprintf ppf "[%a] send m%d %a->%a %s/%s" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag
  | Deliver { at; src; dst; msg; component; tag } ->
    Format.fprintf ppf "[%a] deliver m%d %a->%a %s/%s" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag
  | Drop { at; src; dst; msg; component; tag; reason } ->
    Format.fprintf ppf "[%a] drop m%d %a->%a %s/%s (%s)" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag reason
  | Crash { at; pid } -> Format.fprintf ppf "[%a] crash %a" Sim_time.pp at Pid.pp pid
  | Fd_view { at; pid; component; suspected; trusted } ->
    Format.fprintf ppf "[%a] %a %s: suspected=%a trusted=%a" Sim_time.pp at Pid.pp pid component
      Pid.pp_set suspected pp_trusted trusted
  | Propose { at; pid; value } ->
    Format.fprintf ppf "[%a] %a proposes %d" Sim_time.pp at Pid.pp pid value
  | Decide { at; pid; value; round } ->
    Format.fprintf ppf "[%a] %a decides %d (round %d)" Sim_time.pp at Pid.pp pid value round
  | Note { at; pid; tag; detail } ->
    Format.fprintf ppf "[%a] %a note %s: %s" Sim_time.pp at Pid.pp pid tag detail
  | Span_begin { at; pid; component; span; name } ->
    Format.fprintf ppf "[%a] %a span s%d begin %s/%s" Sim_time.pp at Pid.pp pid span component
      name
  | Span_end { at; pid; component; span; name } ->
    Format.fprintf ppf "[%a] %a span s%d end %s/%s" Sim_time.pp at Pid.pp pid span component name

let pp_event ppf e = Format.fprintf ppf "#%d @%d %a" e.seq e.lc pp_body e.body

let fold t f init =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let crashes t =
  List.rev
    (fold t
       (fun acc e ->
         match e.body with Crash { at; pid } -> (pid, at) :: acc | _ -> acc)
       [])

let decisions t =
  List.rev
    (fold t
       (fun acc e ->
         match e.body with
         | Decide { at; pid; value; round } -> (pid, value, round, at) :: acc
         | _ -> acc)
       [])

let proposals t =
  List.rev
    (fold t
       (fun acc e ->
         match e.body with Propose { pid; value; _ } -> (pid, value) :: acc | _ -> acc)
       [])

let fd_views ~component t =
  List.rev
    (fold t
       (fun acc e ->
         match e.body with
         | Fd_view { at; pid; component = c; suspected; trusted } when String.equal c component
           ->
           (at, pid, suspected, trusted) :: acc
         | _ -> acc)
       [])

let dump t oc =
  let ppf = Format.formatter_of_out_channel oc in
  iter t (fun e -> Format.fprintf ppf "%a@." pp_event e);
  Format.pp_print_flush ppf ()
