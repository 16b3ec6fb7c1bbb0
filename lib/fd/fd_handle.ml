type t = {
  engine : Sim.Engine.t;
  component : string;
  views : Fd_view.t array;
  changes : (Sim.Pid.t * Fd_view.t) Sim.Signal.t;
  (* p's span row, two ints per peer: [span_ids.(p).(q)] is the id of
     the "suspicion" span opened when p started suspecting q, or -1, and
     [opened_at.(p).(q)] its opening instant.  The span closes when the
     suspicion is rescinded, and stays open when q really crashed.
     Invariant: [span_ids.(p).(q) >= 0] exactly when q is in
     [views.(p).suspected].  Both rows are [[||]] until p first suspects
     someone: a module that never suspects costs no row.  Every detector
     built on a handle gets complete suspicion spans this way, whatever
     its mechanism. *)
  span_ids : int array array;
  opened_at : Sim.Sim_time.t array array;
}

let record t p =
  let v = t.views.(p) in
  Sim.Engine.record_fd_view t.engine ~component:t.component p ~suspected:v.Fd_view.suspected
    ~trusted:v.Fd_view.trusted

let make engine ~component =
  let n = Sim.Engine.n engine in
  let t =
    {
      engine;
      component;
      views = Array.make n Fd_view.empty;
      changes = Sim.Signal.create ();
      span_ids = Array.make n [||];
      opened_at = Array.make n [||];
    }
  in
  List.iter (fun p -> record t p) (Sim.Pid.all ~n);
  t

let component t = t.component

let query t p = t.views.(p)
let suspected t p = (query t p).Fd_view.suspected
let trusted t p = (query t p).Fd_view.trusted

let subscribe t f = Sim.Signal.subscribe t.changes (fun (p, v) -> f p v)

(* The suspected-set half of [set], for two sets that are not
   physically equal, so at least one is non-empty: p's row is allocated
   here on its first suspicion (an empty new set implies a non-empty old
   one, hence a row).  One [iter_diff] over new \ old opens a span for
   each fresh suspicion, then one over old \ new closes the rescinded
   ones, each in ascending order.  Both skip the subtrees the two sets
   share, so a view derived from the last one costs what changed.  Span
   bookkeeping comes before the view record, so a suspicion episode
   reads Span_begin -> Fd_view in the trace (and Span_end -> Fd_view on
   rescind).  Returns whether the set changed. *)
let diff_suspected t p ~old_set ~new_set =
  if Array.length t.span_ids.(p) = 0 then begin
    let n = Array.length t.views in
    t.span_ids.(p) <- Array.make n (-1);
    t.opened_at.(p) <- Array.make n Sim.Sim_time.zero
  end;
  let ids = t.span_ids.(p) and opened_at = t.opened_at.(p) in
  let changed = ref false in
  Sim.Pid.Set.iter_diff
    (fun q ->
      changed := true;
      ids.(q) <- Sim.Engine.open_span t.engine p ~component:t.component ~name:"suspicion";
      opened_at.(q) <- Sim.Engine.now t.engine)
    new_set old_set;
  Sim.Pid.Set.iter_diff
    (fun q ->
      changed := true;
      Sim.Engine.close_span t.engine p ~component:t.component ~name:"suspicion" ~span:ids.(q)
        ~opened_at:opened_at.(q);
      ids.(q) <- -1)
    old_set new_set;
  !changed

let set t p v =
  let old = t.views.(p) in
  (* Physically equal sets (two empties among them) need no walk, so
     republishing an unchanged view costs O(1) and allocates nothing. *)
  let suspected_changed =
    ((old.Fd_view.suspected != v.Fd_view.suspected)
    [@check.allow polycmp_t
      "physical identity, not set equality: a hit proves the sets equal, \
       a miss falls through to the diff"])
    && diff_suspected t p ~old_set:old.Fd_view.suspected ~new_set:v.Fd_view.suspected
  in
  if suspected_changed || not (Option.equal Sim.Pid.equal old.Fd_view.trusted v.Fd_view.trusted)
  then begin
    t.views.(p) <- v;
    record t p;
    Sim.Signal.emit t.changes (p, v)
  end

let update t p f = set t p (f t.views.(p))

let suspicion_span t p q =
  let ids = t.span_ids.(p) in
  if Array.length ids = 0 || ids.(q) < 0 then None else Some ids.(q)
