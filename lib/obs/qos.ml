(* Streaming Chen/Toueg-style QoS accounting over a detector run.

   The fold consumes an ordered stream of crash and view-change events
   (adapted from Sim.Trace by Sim.Trace_qos, whether the trace was kept
   by the run or imported from a JSONL export by ecfd-trace) and
   maintains, per (observer, subject)
   pair, the interval bookkeeping behind the paper-standard metrics:
   detection time, mistake count/duration, query accuracy, and the
   correctness intervals the SLA rollups (availability, downtime,
   longest outage) are computed from.  Everything is integer tick
   arithmetic over the deterministic event stream, so two byte-identical
   traces produce byte-identical reports. *)

type event =
  | Crash of { at : int; pid : int }
  | View of { at : int; observer : int; suspected : int list; trusted : int option }

type pair = {
  observer : int;
  subject : int;
  window : int;
  subject_crashed_at : int option;
  detection_time : int option;
  mistakes : int;
  mistake_time : int;
  longest_mistake : int;
  up_time : int;
  incorrect_time : int;
  longest_outage : int;
}

type leader = {
  l_observer : int;
  l_window : int;
  l_changes : int;
  l_steady_at : int option;
  l_final : int option;
}

type report = { n : int; horizon : int; pairs : pair list; leaders : leader list }

type t = {
  n : int;
  crashed_at : int option array;  (* per pid: crash instant *)
  (* Flattened (observer * n + subject) pair state. *)
  suspected : bool array;
  susp_since : int array;  (* start of the current suspicion interval *)
  mistake_open : int array;  (* -1 = no mistake accruing *)
  mistakes : int array;
  mistake_time : int array;
  longest_mistake : int array;
  incorrect_since : int array;  (* -1 = view of the subject currently correct *)
  incorrect_time : int array;
  longest_outage : int array;
  (* Per-observer leader (Omega) state. *)
  trusted : int array;  (* -1 = none *)
  trusted_seen : bool array;
  changes : int array;
  steady_at : int array;
}

let create ~n =
  if n < 1 then invalid_arg "Obs.Qos.create: n must be >= 1";
  let pairs = n * n in
  {
    n;
    crashed_at = Array.make n None;
    suspected = Array.make pairs false;
    susp_since = Array.make pairs 0;
    mistake_open = Array.make pairs (-1);
    mistakes = Array.make pairs 0;
    mistake_time = Array.make pairs 0;
    longest_mistake = Array.make pairs 0;
    incorrect_since = Array.make pairs (-1);
    incorrect_time = Array.make pairs 0;
    longest_outage = Array.make pairs 0;
    trusted = Array.make n (-1);
    trusted_seen = Array.make n false;
    changes = Array.make n 0;
    steady_at = Array.make n 0;
  }

let idx t o s = (o * t.n) + s

let close_outage t i ~at =
  if t.incorrect_since.(i) >= 0 then begin
    let d = at - t.incorrect_since.(i) in
    t.incorrect_time.(i) <- t.incorrect_time.(i) + d;
    if d > t.longest_outage.(i) then t.longest_outage.(i) <- d;
    t.incorrect_since.(i) <- -1
  end

let open_outage t i ~at = if t.incorrect_since.(i) < 0 then t.incorrect_since.(i) <- at

let close_mistake t i ~at =
  if t.mistake_open.(i) >= 0 then begin
    let d = at - t.mistake_open.(i) in
    t.mistake_time.(i) <- t.mistake_time.(i) + d;
    if d > t.longest_mistake.(i) then t.longest_mistake.(i) <- d;
    t.mistake_open.(i) <- -1
  end

let feed t event =
  match event with
  | Crash { at; pid = c } ->
    if c >= 0 && c < t.n && t.crashed_at.(c) = None then begin
      t.crashed_at.(c) <- Some at;
      (* As an observer, c's accounting window closes here: freeze every
         accruing interval of its pairs at the crash instant. *)
      for s = 0 to t.n - 1 do
        if s <> c then begin
          let i = idx t c s in
          close_mistake t i ~at;
          close_outage t i ~at
        end
      done;
      (* As a subject, the ground truth flips at every live observer:
         a standing suspicion stops being a mistake and becomes correct;
         a trusting view becomes incorrect until the observer reacts. *)
      for o = 0 to t.n - 1 do
        if o <> c && t.crashed_at.(o) = None then begin
          let i = idx t o c in
          if t.suspected.(i) then begin
            close_mistake t i ~at;
            close_outage t i ~at
          end
          else open_outage t i ~at
        end
      done
    end
  | View { at; observer = o; suspected; trusted } ->
    if o >= 0 && o < t.n && t.crashed_at.(o) = None then begin
      let now = Array.make t.n false in
      List.iter (fun s -> if s >= 0 && s < t.n then now.(s) <- true) suspected;
      for s = 0 to t.n - 1 do
        if s <> o then begin
          let i = idx t o s in
          if t.suspected.(i) <> now.(s) then begin
            let dead = t.crashed_at.(s) <> None in
            t.suspected.(i) <- now.(s);
            if now.(s) then begin
              t.susp_since.(i) <- at;
              if dead then close_outage t i ~at
              else begin
                t.mistakes.(i) <- t.mistakes.(i) + 1;
                t.mistake_open.(i) <- at;
                open_outage t i ~at
              end
            end
            else if dead then open_outage t i ~at
            else begin
              close_mistake t i ~at;
              close_outage t i ~at
            end
          end
        end
      done;
      let new_trusted = match trusted with Some l when l >= 0 && l < t.n -> l | _ -> -1 in
      if new_trusted <> t.trusted.(o) then begin
        t.trusted.(o) <- new_trusted;
        t.changes.(o) <- t.changes.(o) + 1;
        t.steady_at.(o) <- at;
        if new_trusted >= 0 then t.trusted_seen.(o) <- true
      end
    end

(* [finish] closes the still-open intervals virtually (no state mutation,
   so it can be called at several horizons over one fold). *)
let finish t ~horizon =
  let window_of o = match t.crashed_at.(o) with Some e -> Stdlib.min e horizon | None -> horizon in
  let pairs = ref [] in
  for o = t.n - 1 downto 0 do
    let window = window_of o in
    for s = t.n - 1 downto 0 do
      if s <> o then begin
        let i = idx t o s in
        let mistake_time, longest_mistake =
          if t.mistake_open.(i) >= 0 && t.mistake_open.(i) < window then begin
            let d = window - t.mistake_open.(i) in
            (t.mistake_time.(i) + d, Stdlib.max t.longest_mistake.(i) d)
          end
          else (t.mistake_time.(i), t.longest_mistake.(i))
        in
        let incorrect_time, longest_outage =
          if t.incorrect_since.(i) >= 0 && t.incorrect_since.(i) < window then begin
            let d = window - t.incorrect_since.(i) in
            (t.incorrect_time.(i) + d, Stdlib.max t.longest_outage.(i) d)
          end
          else (t.incorrect_time.(i), t.longest_outage.(i))
        in
        let subject_crashed_at = t.crashed_at.(s) in
        let detection_time =
          match (subject_crashed_at, t.crashed_at.(o)) with
          | Some tc, None when t.suspected.(i) && tc <= horizon ->
            Some (Stdlib.max 0 (t.susp_since.(i) - tc))
          | _ -> None
        in
        let up_time =
          match subject_crashed_at with Some c -> Stdlib.min c window | None -> window
        in
        pairs :=
          {
            observer = o;
            subject = s;
            window;
            subject_crashed_at;
            detection_time;
            mistakes = t.mistakes.(i);
            mistake_time;
            longest_mistake;
            up_time;
            incorrect_time;
            longest_outage;
          }
          :: !pairs
      end
    done
  done;
  let leaders =
    List.init t.n (fun o ->
        {
          l_observer = o;
          l_window = window_of o;
          l_changes = t.changes.(o);
          l_steady_at = (if t.trusted_seen.(o) then Some t.steady_at.(o) else None);
          l_final = (if t.trusted.(o) >= 0 then Some t.trusted.(o) else None);
        })
  in
  { n = t.n; horizon; pairs = !pairs; leaders }

let of_events ~n ~horizon events =
  let t = create ~n in
  List.iter (feed t) events;
  finish t ~horizon
