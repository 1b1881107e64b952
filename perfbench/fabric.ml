(* fabric-64b: E2's worst case.  Hosts 0-3 each send CBR 64-byte UDP at
   GbE line rate to hosts 4-7 across the 10G trunk, on proactive L2
   forwarding.  Per-packet work is almost all the cost; the policy
   compiler, the controller and the tracer stay idle. *)

open Simnet

let num_hosts = 8
let frame = 64
let line_rate_pps = 1e9 /. float_of_int (frame * 8)

(* One round's timed phase is [ticks] simulated ticks of [tick]; each
   tick's wall time is one operation.  The drain lets in-flight frames
   land before delivery is counted. *)
let ticks = 20
let tick = Sim_time.us 250
let drain = Sim_time.ms 1

type ctx = { sc : Scenario.t; seed : int }

let setup ~seed =
  let sc =
    Scenario.build ~num_hosts [ Experiments_lib.Common.proactive_l2 ~num_hosts ]
  in
  { sc; seed }

let phase ctx ~tr (r : Round.t) =
  let sc = ctx.sc in
  let engine = Scenario.engine sc in
  let rng = Rng.create ctx.seed in
  (* The seed picks the receiver of each sender, its UDP source port and
     the phase of its CBR clock inside one inter-frame gap. *)
  let receivers = [| 4; 5; 6; 7 |] in
  Rng.shuffle rng receivers;
  let gap_ns = int_of_float (1e9 /. line_rate_pps) in
  let now = Engine.now engine in
  let stop = Sim_time.add now (tick * ticks) in
  let streams =
    List.init 4 (fun s ->
        let dst = receivers.(s) in
        let start = Sim_time.add now (Sim_time.ns (Rng.int rng gap_ns)) in
        Traffic.udp_stream ~rng:(Rng.split rng) ~src:(Scenario.host sc s)
          ~dst_mac:(Harmless.Deployment.host_mac dst)
          ~dst_ip:(Harmless.Deployment.host_ip dst)
          ~src_port:(10000 + Rng.int rng 50000)
          ~start ~stop (Traffic.Cbr line_rate_pps) (Traffic.Fixed frame) ())
  in
  let udp0 = Experiments_lib.Common.total_udp_received sc.Scenario.d in
  for k = 1 to ticks do
    let t0 = Tiling.now_ns () in
    Tiling.run_engine tr engine (Sim_time.add now (tick * k));
    r.Round.ops <- (Tiling.now_ns () - t0) :: r.Round.ops
  done;
  Scenario.run_for tr sc drain;
  let sent = List.fold_left (fun acc s -> acc + Traffic.sent s) 0 streams in
  let delivered = Experiments_lib.Common.total_udp_received sc.Scenario.d - udp0 in
  r.Round.attempted <- sent;
  r.Round.failed <- sent - delivered;
  if delivered <> sent then
    Round.error r (Printf.sprintf "delivered %d of %d frames" delivered sent);
  Round.check r (Scenario.pmd_dropped sc = 0) "PMD dropped %d frames"
    (Scenario.pmd_dropped sc);
  r.Round.outcome <-
    [
      ("sent", sent);
      ("delivered", delivered);
      ("lat_p50_ns", Scenario.latency_p50 sc [ 4; 5; 6; 7 ]);
    ]
