(** Adapter from {!Trace} to the {!Obs.Qos} fold.

    Streams one detector component's [Fd_view] events plus every [Crash]
    event, in trace order, into a QoS fold — via {!Trace.iter}, without
    materialising the event list. *)

val feed : Trace.t -> Obs.Qos.t -> component:string -> unit
(** Stream the trace's crash events and [component]'s view changes into
    the fold.  Other components' views are ignored (a stacked detector
    records one [Fd_view] stream per layer). *)

val report : component:string -> n:int -> horizon:int -> Trace.t -> Obs.Qos.report
(** [create] + [feed] + [finish]: the whole QoS report of one run. *)

val components : Trace.t -> string list
(** The distinct failure-detector components that recorded view changes,
    in name order — the tracequery [rollup] subcommand emits one
    scenario per entry. *)
