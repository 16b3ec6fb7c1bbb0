(** Trace exporters.

    Two formats, both deterministic byte-for-byte (a pure function of the
    trace, so exports fall under the byte-identity contract checked by the
    determinism tests and CI):

    - {b Chrome trace-event JSON} ({!chrome}): the [{"traceEvents": [...]}]
      dialect understood by Perfetto ([ui.perfetto.dev]) and
      [chrome://tracing].  One track per simulated process (the sim pid
      becomes the Chrome pid), spans as [B]/[E] duration slices, messages
      as instant events joined by flow arrows ([s]/[f]) keyed on the
      message id, sim ticks rendered as microseconds.

    - {b JSONL} ({!jsonl}): one flat JSON object per event, in seq order,
      carrying every field including the [seq]/[lc] stamps — the format
      the [ecfd-trace] query tool (tools/tracequery) reads back.  It is
      lossless: [ecfd-trace] imports each line as a [Trace.body] and
      re-stamps it through {!Trace.record}, rejecting a line whose
      [seq]/[lc] differ from the stamps it gets, and exporting the
      imported trace gives the input bytes back.

    Schemas for both live in [docs/schemas/] and are validated in CI. *)

val chrome : Buffer.t -> Trace.t -> unit
val chrome_string : Trace.t -> string

val jsonl : Buffer.t -> Trace.t -> unit
val jsonl_string : Trace.t -> string

val jsonl_event : Buffer.t -> Trace.event -> unit
(** One JSONL line including the trailing newline.  [ecfd-trace filter] and
    [ancestry --jsonl] print the events they select through it, so they
    re-emit an imported event exactly as the exporter wrote it. *)
