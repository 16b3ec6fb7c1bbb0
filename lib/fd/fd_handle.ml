(* p's span row: where the id and opening instant of the "suspicion"
   span p holds on each suspected q live.  The span closes when the
   suspicion is rescinded, and stays open when q really crashed.

   - [No_row] until p first suspects someone: a module that never
     suspects costs nothing.
   - [Batch] after that first suspicion, which opens one span per member
     of [members] in ascending order at one instant: the ids are
     consecutive, so q's id is [base] plus q's rank in [members], and
     every span opened at [opened].  [members] is physically the view's
     own suspected set, and the row stays a batch only while the view
     keeps that set, so a row costs three words however many p
     suspects.  A non-leader's first Leader_s view ("everybody except
     the candidate and me") stands for the whole of a steady run.
   - [Dense] from the first later change of p's suspected set, which
     densifies the batch: two n-int rows, [ids.(q)] the span id or -1
     and [opened_at.(q)] its opening instant.

   Invariant: q has a span id exactly when q is in
   [views.(p).suspected].  Every detector built on a handle gets
   complete suspicion spans this way, whatever its mechanism. *)
type row =
  | No_row
  | Batch of { members : Sim.Pid.Set.t; base : int; opened : Sim.Sim_time.t }
  | Dense of { ids : int array; opened_at : Sim.Sim_time.t array }

type t = {
  engine : Sim.Engine.t;
  component : string;
  views : Fd_view.t array;
  changes : (Sim.Pid.t * Fd_view.t) Sim.Signal.t;
  rows : row array;
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
      rows = Array.make n No_row;
    }
  in
  List.iter (fun p -> record t p) (Sim.Pid.all ~n);
  t

let component t = t.component

let query t p = t.views.(p)
let suspected t p = (query t p).Fd_view.suspected
let trusted t p = (query t p).Fd_view.trusted

let subscribe t f = Sim.Signal.subscribe t.changes (fun (p, v) -> f p v)

(* p's first suspicion: one span per member of [members], in ascending
   order, opened in one bulk write and recorded as a batch row. *)
let open_batch t p members =
  let base =
    Sim.Engine.open_spans t.engine p ~component:t.component ~name:"suspicion"
      ~count:(Sim.Pid.Set.cardinal members)
  in
  Batch { members; base; opened = Sim.Engine.now t.engine }

(* The dense rows a batch stands for, filled in one ascending walk. *)
let densify t ~members ~base ~opened =
  let n = Array.length t.views in
  let ids = Array.make n (-1) and opened_at = Array.make n Sim.Sim_time.zero in
  ignore
    (Sim.Pid.Set.fold
       (fun q id ->
         ids.(q) <- id;
         opened_at.(q) <- opened;
         id + 1)
       members base
      : int);
  (ids, opened_at)

(* The suspected-set half of [set] on a dense row.  One [iter_diff] over
   new \ old opens a span for each fresh suspicion, then one over
   old \ new closes the rescinded ones, each in ascending order.  Both
   skip the subtrees the two sets share, so a view derived from the last
   one costs what changed. *)
let diff_dense t p ~ids ~opened_at ~old_set ~new_set =
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

(* The suspected-set half of [set], for two sets that are not physically
   equal, so at least one is non-empty.  Without a row, the old set is
   empty (p never suspected), so the new one is not: its spans open as a
   batch.  A batch row's set is the old one, so any other set densifies
   it first.  Span bookkeeping comes before the view record, so a
   suspicion episode reads Span_begin -> Fd_view in the trace (and
   Span_end -> Fd_view on rescind).  Returns whether the set changed. *)
let diff_suspected t p ~old_set ~new_set =
  match t.rows.(p) with
  | No_row ->
    assert (Sim.Pid.Set.is_empty old_set);
    t.rows.(p) <- open_batch t p new_set;
    true
  | Batch { members; base; opened } ->
    let ids, opened_at = densify t ~members ~base ~opened in
    t.rows.(p) <- Dense { ids; opened_at };
    diff_dense t p ~ids ~opened_at ~old_set ~new_set
  | Dense { ids; opened_at } -> diff_dense t p ~ids ~opened_at ~old_set ~new_set

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
  match t.rows.(p) with
  | No_row -> None
  | Batch { members; base; _ } ->
    if Sim.Pid.Set.mem q members then
      Some (Sim.Pid.Set.fold (fun r id -> if r < q then id + 1 else id) members base)
    else None
  | Dense { ids; _ } -> if ids.(q) < 0 then None else Some ids.(q)
