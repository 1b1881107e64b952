(* observed-ping: a closed loop with one client.  Host 0 pings host 1
   one ping at a time on a warmed 4-host HARMLESS, with the program's
   own instruments on: the hop tracer collects every ping, the traces
   are folded into a Telemetry.Profile every [batch] pings (as
   `harmlessctl perf report` does), and a Flowrec on SS_2 feeds a
   Flow_collector merging on the sim clock. *)

open Simnet
module Trace = Telemetry.Trace

let num_hosts = 4
let pings = 2000
let batch = 25
let window = Sim_time.us 200
let think_mean_ns = 100_000.0
let merge_every = Sim_time.ms 10

type ctx = {
  sc : Scenario.t;
  seed : int;
  collector : Sdnctl.Flow_collector.t;
  mutable merge_ns : int;
  mutable tr : Tiling.t option;  (** the traced run's spans, once timed *)
}

let ping sc tr ~seq =
  Tiling.with_span tr Tiling.host (fun () ->
      Host.ping (Scenario.host sc 0) ~dst_mac:(Harmless.Deployment.host_mac 1)
        ~dst_ip:(Harmless.Deployment.host_ip 1) ~seq);
  Scenario.run_for tr sc window

let setup ~seed =
  let sc =
    Scenario.build ~num_hosts [ Experiments_lib.Common.proactive_l2 ~num_hosts ]
  in
  let engine = Scenario.engine sc in
  let collector =
    Sdnctl.Flow_collector.create
      ~config:{ Softswitch.Flowrec.default_config with seed }
      engine
  in
  Sdnctl.Flow_collector.add_switch collector sc.Scenario.ss2;
  let ctx = { sc; seed; collector; merge_ns = 0; tr = None } in
  Engine.schedule_every engine merge_every (fun () ->
      let t0 = Tiling.now_ns () in
      Tiling.with_span ctx.tr Tiling.merge (fun () ->
          Sdnctl.Flow_collector.merge_now collector);
      ctx.merge_ns <- ctx.merge_ns + (Tiling.now_ns () - t0);
      true);
  for seq = 1 to 2 do
    ping sc None ~seq
  done;
  ctx

(* A whole host-to-host walk that never detoured via the controller. *)
let complete (trace : Trace.trace) =
  match trace.Trace.hops with
  | [] | [ _ ] -> false
  | first :: _ ->
      let last = List.nth trace.Trace.hops (List.length trace.Trace.hops - 1) in
      first.Trace.layer = Trace.Host
      && first.Trace.stage = "tx"
      && last.Trace.layer = Trace.Host
      && last.Trace.stage = "rx"
      && List.for_all (fun (h : Trace.hop) -> h.Trace.layer <> Trace.Controller)
           trace.Trace.hops

let phase ctx ~tr (r : Round.t) =
  let sc = ctx.sc in
  ctx.tr <- tr;
  let rng = Rng.create ctx.seed in
  let h0 = Scenario.host sc 0 in
  let view = Harmless.Trace_view.of_deployment sc.Scenario.d in
  let profile = Telemetry.Profile.create () in
  let traces = Trace.Collector.create () in
  let merge0 = ctx.merge_ns in
  let merges0 = Sdnctl.Flow_collector.merges ctx.collector in
  let hops = ref 0 and fold_ns = ref 0 and answered = ref 0 in
  let times = Array.make batch 0 in
  Trace.Collector.install traces;
  for b = 0 to (pings / batch) - 1 do
    for i = 0 to batch - 1 do
      let replies = Host.echo_replies h0 in
      let t0 = Tiling.now_ns () in
      ping sc tr ~seq:(3 + (b * batch) + i);
      times.(i) <- Tiling.now_ns () - t0;
      if Host.echo_replies h0 = replies + 1 then incr answered;
      Scenario.run_for tr sc
        (int_of_float (Rng.exponential rng ~mean:think_mean_ns))
    done;
    let t0 = Tiling.now_ns () in
    let walks =
      Tiling.with_span tr Tiling.fold (fun () ->
          let walks = List.filter complete (Trace.Collector.traces traces) in
          Telemetry.Profile.record_traces
            ~stage_of:(Harmless.Trace_view.semantic view)
            profile walks;
          List.iter
            (fun (t : Trace.trace) -> hops := !hops + List.length t.Trace.hops)
            walks;
          Trace.Collector.clear traces;
          walks)
    in
    let fold = Tiling.now_ns () - t0 in
    fold_ns := !fold_ns + fold;
    Round.check r
      (List.length walks = 2 * batch)
      "batch %d: %d complete traces for %d pings" b (List.length walks) batch;
    Array.iter (fun ns -> r.Round.ops <- (ns + (fold / batch)) :: r.Round.ops) times
  done;
  Trace.Collector.uninstall traces;
  r.Round.attempted <- pings;
  r.Round.failed <- r.Round.failed + (pings - !answered);
  if !answered <> pings then
    Round.error r (Printf.sprintf "%d of %d pings answered" !answered pings);
  let lat_p50 =
    match Telemetry.Profile.e2e profile with
    | Some s -> s.Telemetry.Profile.p50
    | None -> 0
  in
  r.Round.outcome <-
    [ ("sent", pings); ("delivered", !answered); ("lat_p50_ns", lat_p50) ];
  let flowrec = Sdnctl.Flow_collector.seen ctx.collector in
  Round.layer r "telemetry.hops_per_ping"
    (float_of_int !hops /. float_of_int pings);
  Round.layer r "telemetry.fold_ms"
    (float_of_int !fold_ns /. float_of_int (pings / batch) /. 1e6);
  Round.layer r "softswitch.flowrec_sampled_ratio"
    (float_of_int (Sdnctl.Flow_collector.sampled ctx.collector)
    /. float_of_int (max 1 flowrec));
  let merges = Sdnctl.Flow_collector.merges ctx.collector - merges0 in
  Round.layer r "sdnctl.collector_merge_us"
    (if merges = 0 then 0.0
     else float_of_int (ctx.merge_ns - merge0) /. float_of_int merges /. 1e3)
