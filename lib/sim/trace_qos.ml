(* The thin trace hook between the simulator and the QoS layer: Obs.Qos
   cannot depend on Sim (the dependency points the other way), so this
   adapter streams a finished trace's crash and view-change events into a
   Qos fold via Trace.iter_kinds — no materialised event list, and no
   other kind of event built. *)

let feed trace fold ~component =
  Trace.iter_kinds trace [ Trace.Kind.Crash; Trace.Kind.Fd_view ] (fun e ->
      match e.Trace.body with
      | Trace.Crash { at; pid } -> Obs.Qos.feed fold (Obs.Qos.Crash { at; pid })
      | Trace.Fd_view { at; pid; component = c; suspected; trusted }
        when String.equal c component ->
        Obs.Qos.feed fold
          (Obs.Qos.View
             { at; observer = pid; suspected = Pid.Set.elements suspected; trusted })
      | _ -> ())

let report ~component ~n ~horizon trace =
  let fold = Obs.Qos.create ~n in
  feed trace fold ~component;
  Obs.Qos.finish fold ~horizon

let components trace =
  let seen = Hashtbl.create 8 in
  Trace.iter_kinds trace [ Trace.Kind.Fd_view ] (fun e ->
      match e.Trace.body with
      | Trace.Fd_view { component; _ } ->
        if not (Hashtbl.mem seen component) then Hashtbl.add seen component ()
      | _ -> ());
  List.sort String.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])
