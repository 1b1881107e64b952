(* Wall-clock attribution for a traced run.

   Every span is stamped with [now_ns], a no-alloc clock_gettime.  The
   engine is driven one event at a time; node taps split each event's
   wall time between the node that did the work and the transit that
   carried a frame to it:

   - time up to a node's Rx tap is transit (engine dispatch and the
     link or patch-port delivery that handed it the frame);
   - time up to a node's Tx tap is that node's own work;
   - time after an event's last Tx tap is transit (link enqueue);
   - an event that touches no tapped node is charged to [engine].

   Spans around calls the benchmark makes into other layers (compile,
   push, fold, merge) take their time out of whatever they interrupt,
   so accounts never overlap and their sum can be compared with the
   measured phase: the remainder is what no span covers. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let transit = 0
let engine = 1
let host = 2
let legacy = 3
let ss1 = 4
let ss2 = 5
let compile = 6
let push = 7
let fold = 8
let merge = 9
let accounts = 10

type t = {
  ns : int array;  (** wall ns charged to each account *)
  calls : int array;  (** Rx taps per node account; calls per span account *)
  mutable in_step : bool;
  mutable last : int;
  mutable cur : int;  (** account owning the time since [last] *)
  mutable steps : int;
  mutable step_ns : int;
}

let create () =
  {
    ns = Array.make accounts 0;
    calls = Array.make accounts 0;
    in_step = false;
    last = 0;
    cur = engine;
    steps = 0;
    step_ns = 0;
  }

let charge t acct now =
  t.ns.(acct) <- t.ns.(acct) + (now - t.last);
  t.last <- now

let tap t acct dir (_ : int) (_ : Netpkt.Packet.t) =
  match dir with
  | Simnet.Node.Rx ->
      t.calls.(acct) <- t.calls.(acct) + 1;
      if t.in_step then begin
        charge t transit (now_ns ());
        t.cur <- acct
      end
  | Simnet.Node.Tx ->
      if t.in_step then begin
        charge t acct (now_ns ());
        t.cur <- transit
      end

let attach t acct node = Simnet.Node.add_tap node (tap t acct)

(* One engine event through the public run loop: [~max_events:1] runs
   exactly the event [Engine.run ~until] would run next, so a traced
   run executes the same event sequence as an untraced one. *)
let step t eng ~until =
  let before = Simnet.Engine.events_executed eng in
  let start = now_ns () in
  t.in_step <- true;
  t.last <- start;
  t.cur <- engine;
  Simnet.Engine.run eng ~until ~max_events:1;
  let stop = now_ns () in
  charge t t.cur stop;
  t.in_step <- false;
  let ran = Simnet.Engine.events_executed eng > before in
  if ran then begin
    t.steps <- t.steps + 1;
    t.step_ns <- t.step_ns + (stop - start)
  end;
  ran

let run_until t eng until =
  while step t eng ~until do
    ()
  done

let span t acct f =
  let start = now_ns () in
  if t.in_step then charge t t.cur start;
  let r = f () in
  let stop = now_ns () in
  t.ns.(acct) <- t.ns.(acct) + (stop - start);
  t.calls.(acct) <- t.calls.(acct) + 1;
  t.last <- stop;
  r

let total t = Array.fold_left ( + ) 0 t.ns

let per t acct =
  if t.calls.(acct) = 0 then 0.0
  else float_of_int t.ns.(acct) /. float_of_int t.calls.(acct)

(* Drive [eng] to [until], traced or not. *)
let run_engine tr eng until =
  match tr with
  | None -> Simnet.Engine.run eng ~until
  | Some t -> run_until t eng until

let with_span tr acct f = match tr with None -> f () | Some t -> span t acct f

(* The cost of one empty span: a tap-shaped closure call plus two clock
   reads, the floor under every per-layer time above. *)
let span_floor_ns () =
  let sink = ref 0 in
  let empty () =
    let a = now_ns () in
    let b = now_ns () in
    sink := !sink + (b - a)
  in
  let f = Sys.opaque_identity empty in
  let n = 200_000 in
  let start = now_ns () in
  for _ = 1 to n do
    f ()
  done;
  let stop = now_ns () in
  ignore (Sys.opaque_identity !sink);
  float_of_int (stop - start) /. float_of_int n
