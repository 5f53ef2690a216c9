(* Structured tracing with a pluggable sink.

   The simulator's hot loops guard every emission with [enabled], so with
   no sink installed no event value is ever allocated — the cost is one
   pointer load and branch per potential event.  Events carry a logical
   sequence number instead of wall-clock time, so two runs of the same
   protocol with the same seed produce byte-identical traces. *)

type payload =
  | Span_start of { name : string }
  | Span_end of { name : string }
  | Spawn of { id : int; n : int; input_bits : int }
  | Finish of { id : int }
  | Round_start of { round : int; n : int }
  | Round_end of { round : int; n : int; msg_bits : int }
  | Broadcast of { round : int; sender : int; value : int; msg_bits : int }
  | Unicast_send of { round : int; sender : int; messages : int; msg_bits : int }
  | Turn of { turn : int; speaker : int; bit : bool }
  | Rand_draw of { owner : int; op : string; bits : int }

type event = { seq : int; scope : string; payload : payload }

(* bcc-lint: allow par/global-mutable — traces are sequential-only: Par.tabulate degrades to a sequential loop whenever a sink is installed (docs/PARALLELISM.md) *)
let current : (event -> unit) option ref = ref None

(* bcc-lint: allow par/global-mutable — written only under an installed sink, i.e. on the sequential path; see [current] above *)
let seq = ref 0

let[@inline] enabled () = !current <> None

let emit ~scope payload =
  match !current with
  | None -> ()
  | Some f ->
      let e = { seq = !seq; scope; payload } in
      incr seq;
      f e

let set_sink f =
  seq := 0;
  current := Some f

let clear_sink () = current := None
