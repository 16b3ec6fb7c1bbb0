type t = ..

type t +=
  | Blank
    [@check.allow payload "contentless placeholder; constructed by the test harness, matched nowhere"]

type envelope = {
  src : Pid.t;
  dst : Pid.t;
  component : string;
  tag : string;
  payload : t;
  sent_at : Sim_time.t;
  msg : int;
      (** Engine-allocated message id shared by the Send/Deliver/Drop trace
          events; [-1] for local self-sends, which are not traced. *)
}

let pp_envelope ppf e =
  Format.fprintf ppf "%a->%a %s/%s (sent %a)" Pid.pp e.src Pid.pp e.dst e.component e.tag
    Sim_time.pp e.sent_at
