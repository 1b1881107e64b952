(* gateway-churn: SS_2 runs the compiled residential gateway while the
   controller keeps editing it.  Subscribers 0-3 send Poisson IMIX UDP
   to every other host, DMZ VM 4 talks to VMs 5 (allowed) and 6
   (fenced), and host 7 sends HTTP GETs to the VIP balanced over
   backends 8-9.  Every [update_every] the controller swaps the oldest
   of [denied] parental deny entries for a new one and re-picks
   subscriber 0's rate limit, recompiles the gateway and replaces
   SS_2's table.  The deny list keeps its length, so every update
   compiles a table of about the same size whatever the seed. *)

open Simnet
open Netpkt
module D = Harmless.Deployment
module Gateway = Sdnctl.Gateway
module Compile = Policy.Compile

let num_hosts = 10
let updates = 20
let update_every = Sim_time.ms 10
let drain = Sim_time.ms 1
let subscriber_pps = 40_000.0
let dmz_pps = 20_000.0
let http_rps = 5_000.0
let vip_ip = Ipv4_addr.of_string "10.0.0.100"
let vip_mac = Mac_addr.make_local 0x100

let sites =
  List.init 6 (fun i ->
      (Printf.sprintf "site%d.example" i, Ipv4_addr.of_octets 203 0 113 (i + 1)))

let rates_kbps = [| 256; 512; 1024; 2048; 4096 |]
let denied = 3

(* The gateway over the deployment's own host addresses. *)
let gateway ~blocked ~rate_kbps =
  let vm i =
    { Sdnctl.Dmz.vm_ip = D.host_ip i; vm_mac = D.host_mac i; vm_port = i }
  in
  let backend i =
    {
      Sdnctl.Load_balancer.backend_ip = D.host_ip i;
      backend_mac = D.host_mac i;
      backend_port = i;
    }
  in
  {
    Gateway.subscribers =
      List.init 4 (fun i ->
          { Gateway.sub_ip = D.host_ip i; sub_mac = D.host_mac i; sub_port = i });
    dmz =
      {
        Sdnctl.Dmz.vms = [ vm 4; vm 5; vm 6 ];
        allowed = [ (D.host_ip 4, D.host_ip 5) ];
      };
    dmz_ports = [ 4; 5; 6 ];
    vip_ip;
    vip_mac;
    lb_ingress = 7;
    lb_backends = [ backend 8; backend 9 ];
    parental = Sdnctl.Parental_control.create ~sites ~blocked ();
    limits =
      [ { Sdnctl.Rate_limiter.subject = D.host_ip 0; rate_kbps; burst_kb = 16 } ];
    num_ports = num_hosts;
  }

type ctx = {
  sc : Scenario.t;
  rng : Rng.t;
  mutable blocked : (Ipv4_addr.t * string) list;  (** oldest first *)
  mutable compiled : Compile.t;  (** what SS_2 should be running *)
}

(* A (subscriber, site) pair not denied yet. *)
let rec fresh_entry rng blocked =
  let site = fst (List.nth sites (Rng.int rng (List.length sites))) in
  let entry = (D.host_ip (Rng.int rng 4), site) in
  if List.mem entry blocked then fresh_entry rng blocked else entry

let setup ~seed =
  let rng = Rng.create seed in
  let blocked =
    List.fold_left (fun acc () -> acc @ [ fresh_entry rng acc ]) []
      (List.init denied (fun _ -> ()))
  in
  let compiled =
    Compile.compile (Gateway.policy (gateway ~blocked ~rate_kbps:rates_kbps.(0)))
  in
  let sc = Scenario.build ~num_hosts [ Sdnctl.Policy_app.create compiled ] in
  Host.serve_http (Scenario.host sc 8) ~pages:[ "/"; "/index.html" ];
  Host.serve_http (Scenario.host sc 9) ~pages:[ "/"; "/index.html" ];
  { sc; rng; blocked; compiled }

let group_ids c =
  List.filter_map
    (function
      | Openflow.Of_message.Add_group { id; _ } -> Some id
      | Openflow.Of_message.Modify_group _ | Openflow.Of_message.Delete_group _ ->
          None)
    (Compile.group_mods c)

let meter_ids c =
  List.filter_map
    (function
      | Openflow.Of_message.Add_meter { id; _ } -> Some id
      | Openflow.Of_message.Modify_meter _ | Openflow.Of_message.Delete_meter _ ->
          None)
    (Compile.meter_mods c)

(* A full replace: every flow of the old table, every group and meter
   the previous compile created, then the new compile in dependency
   order.  [Policy_app.install_direct] over a live gateway leaves stale
   rules and re-adds existing group and meter ids, so it is not used. *)
let replace_messages ~previous next =
  let open Openflow in
  Of_message.Flow_mod
    (Of_message.delete_flow ~table_id:(Compile.table_id previous) Of_match.any)
  :: List.map
       (fun id -> Of_message.Group_mod (Of_message.Delete_group { id }))
       (group_ids previous)
  @ List.map
      (fun id -> Of_message.Meter_mod (Of_message.Delete_meter { id }))
      (meter_ids previous)
  @ Compile.messages next

let table_size sc c =
  Openflow.Flow_table.size
    (Openflow.Pipeline.table
       (Softswitch.Soft_switch.pipeline sc.Scenario.ss2)
       (Compile.table_id c))

let phase ctx ~tr (r : Round.t) =
  let sc = ctx.sc in
  let engine = Scenario.engine sc in
  let rng = ctx.rng in
  let now = Engine.now engine in
  let stop = Sim_time.add now (update_every * updates) in
  let dest i = (D.host_mac i, D.host_ip i) in
  let others i =
    Array.of_list (List.filter (( <> ) i) (List.init num_hosts Fun.id))
  in
  let streams =
    List.init 4 (fun s ->
        Traffic.multi_udp_stream ~rng:(Rng.split rng) ~src:(Scenario.host sc s)
          ~dests:(Array.map dest (others s)) ~stop (Traffic.Poisson subscriber_pps)
          Traffic.Imix ())
    @ [
        Traffic.multi_udp_stream ~rng:(Rng.split rng) ~src:(Scenario.host sc 4)
          ~dests:[| dest 5; dest 6 |] ~stop (Traffic.Poisson dmz_pps) Traffic.Imix
          ();
        Traffic.http_workload ~rng:(Rng.split rng)
          ~clients:[| Scenario.host sc 7 |] ~server_mac:vip_mac ~server_ip:vip_ip
          ~host:"www.example" ~paths:[| "/"; "/index.html" |] ~stop ~rate:http_rps
          ();
      ]
  in
  let udp0 = Experiments_lib.Common.total_udp_received sc.Scenario.d in
  let errors0 = List.length (Sdnctl.Controller.errors_received sc.Scenario.ctrl) in
  let recompiles0 = Scenario.stat sc.Scenario.ss2 "recompiles" in
  let compile_ns = ref 0 and compile_words = ref 0 and push_ns = ref 0 in
  let flow_mods = ref 0 in
  (* Checked once the previous update has crossed the control channel. *)
  let check_applied k =
    let size = table_size sc ctx.compiled in
    Round.check r
      (size = Compile.flow_count ctx.compiled)
      "update %d: SS_2 table holds %d rules, the compile has %d" k size
      (Compile.flow_count ctx.compiled);
    let errors = List.length (Sdnctl.Controller.errors_received sc.Scenario.ctrl) in
    Round.check r (errors = errors0) "update %d: switch reported %d errors" k
      (errors - errors0)
  in
  for k = 1 to updates do
    Tiling.run_engine tr engine (Sim_time.add now (update_every * k));
    if k > 1 then check_applied (k - 1);
    let entry = fresh_entry rng ctx.blocked in
    ctx.blocked <- List.tl ctx.blocked @ [ entry ];
    let rate_kbps = Rng.choose rng rates_kbps in
    let t0 = Tiling.now_ns () in
    let policy = Gateway.policy (gateway ~blocked:ctx.blocked ~rate_kbps) in
    let w0 = Gc.minor_words () in
    let c0 = Tiling.now_ns () in
    let next =
      Tiling.with_span tr Tiling.compile (fun () -> Compile.compile policy)
    in
    compile_ns := !compile_ns + (Tiling.now_ns () - c0);
    compile_words := !compile_words + int_of_float (Gc.minor_words () -. w0);
    let msgs = replace_messages ~previous:ctx.compiled next in
    flow_mods :=
      !flow_mods
      + List.length
          (List.filter
             (function Openflow.Of_message.Flow_mod _ -> true | _ -> false)
             msgs);
    let p0 = Tiling.now_ns () in
    Tiling.with_span tr Tiling.push (fun () ->
        Sdnctl.Controller.send_all sc.Scenario.ctrl sc.Scenario.dpid msgs);
    let t1 = Tiling.now_ns () in
    push_ns := !push_ns + (t1 - p0);
    r.Round.ops <- (t1 - t0) :: r.Round.ops;
    ctx.compiled <- next
  done;
  Tiling.run_engine tr engine (Sim_time.add stop drain);
  check_applied updates;
  r.Round.attempted <- updates;
  let sent = List.fold_left (fun acc s -> acc + Traffic.sent s) 0 streams in
  let udp = Experiments_lib.Common.total_udp_received sc.Scenario.d - udp0 in
  let http =
    List.length (Host.http_responses (Scenario.host sc 7))
  in
  r.Round.outcome <-
    [
      ("sent", sent);
      ("delivered", udp + http);
      ("lat_p50_ns", Scenario.latency_p50 sc (List.init num_hosts Fun.id));
    ];
  let per_update v = float_of_int v /. float_of_int updates in
  Round.layer r "policy.compile_ms" (per_update !compile_ns /. 1e6);
  Round.layer r "policy.compile_words" (per_update !compile_words);
  Round.layer r "policy.rules" (float_of_int (Compile.flow_count ctx.compiled));
  Round.layer r "sdnctl.push_us" (per_update !push_ns /. 1e3);
  Round.layer r "sdnctl.flow_mods_per_update" (per_update !flow_mods);
  Round.layer r "softswitch.recompiles_per_update"
    (per_update (Scenario.stat sc.Scenario.ss2 "recompiles" - recompiles0))
