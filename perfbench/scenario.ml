(* A HARMLESS deployment built through the public APIs, with the
   handles the benchmark taps and replays. *)

open Simnet
module D = Harmless.Deployment
module Common = Experiments_lib.Common

type t = {
  d : D.t;
  ctrl : Sdnctl.Controller.t;
  dpid : int64;
  legacy : Ethswitch.Legacy_switch.t;
  ss1 : Softswitch.Soft_switch.t;
  ss2 : Softswitch.Soft_switch.t;
  provision_ns : int;  (** [Deployment.build_harmless], i.e. Manager.provision *)
  handshake_ns : int;  (** controller attach, handshake and proactive installs *)
}

let engine t = t.d.D.engine

(* Build, provision, attach a controller running [apps] and warm the
   legacy MAC tables. *)
let build ~num_hosts apps =
  let engine = Engine.create () in
  let t0 = Tiling.now_ns () in
  let d =
    match
      D.build_harmless engine ~num_hosts
        ~dataplane:Softswitch.Soft_switch.Eswitch ()
    with
    | Ok d -> d
    | Error msg -> failwith ("provisioning failed: " ^ msg)
  in
  let t1 = Tiling.now_ns () in
  let ctrl = Common.attach_with_apps d apps in
  let t2 = Tiling.now_ns () in
  Common.warm_legacy d;
  match d.D.kind with
  | D.Harmless { legacy; prov; _ } ->
      let ss2 = prov.Harmless.Manager.ss2 in
      {
        d;
        ctrl;
        dpid = Softswitch.Soft_switch.datapath_id ss2;
        legacy;
        ss1 = prov.Harmless.Manager.ss1;
        ss2;
        provision_ns = t1 - t0;
        handshake_ns = t2 - t1;
      }
  | D.Legacy_only _ | D.Plain_openflow _ | D.Scaled _ ->
      failwith "build_harmless returned another kind of deployment"

let host t i = D.host t.d i

(* Frames delivered to every host NIC so far. *)
let host_rx t =
  Array.fold_left
    (fun acc h -> acc + Stats.Counter.get (Node.counters (Host.node h)) "rx")
    0 t.d.D.hosts

let attach_taps t tr =
  Array.iter (fun h -> Tiling.attach tr Tiling.host (Host.node h)) t.d.D.hosts;
  Tiling.attach tr Tiling.legacy (Ethswitch.Legacy_switch.node t.legacy);
  Tiling.attach tr Tiling.ss1 (Softswitch.Soft_switch.node t.ss1);
  Tiling.attach tr Tiling.ss2 (Softswitch.Soft_switch.node t.ss2)

let stat sw name =
  Option.value ~default:0 (List.assoc_opt name (Softswitch.Soft_switch.stats sw))

let pmd_dropped t = stat t.ss1 "pmd_dropped" + stat t.ss2 "pmd_dropped"

(* Median simulated one-way latency of the UDP probes [hosts] received. *)
let latency_p50 t hosts =
  let merged =
    List.fold_left
      (fun acc i -> Stats.Histogram.merge acc (Host.latency (host t i)))
      (Stats.Histogram.create ()) hosts
  in
  if Stats.Histogram.count merged = 0 then 0
  else Stats.Histogram.percentile merged 50.0

let run_for tr t span =
  let eng = engine t in
  Tiling.run_engine tr eng (Sim_time.add (Engine.now eng) span)
