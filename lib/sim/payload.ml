type t = ..

type t +=
  | Blank
    [@check.allow payload "contentless placeholder; constructed by the test harness, matched nowhere"]
