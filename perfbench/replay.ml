(* Replays of the workload's own frames through single layers: the
   netpkt codec, Soft_switch.process_direct on the deployment's SS_1 and
   SS_2, and a Flowrec.  Frames are captured at the switches' receive
   taps during the traced phase and replayed after it. *)

open Netpkt

let keep = 256
let calls = 20_000

type capture = {
  ss1 : (int * Packet.t) list ref;  (** newest first, at most [keep] *)
  ss2 : (int * Packet.t) list ref;
}

let recorder node =
  let frames = ref [] and n = ref 0 in
  Simnet.Node.add_tap node (fun dir port pkt ->
      match dir with
      | Simnet.Node.Rx when !n < keep ->
          frames := (port, pkt) :: !frames;
          incr n
      | Simnet.Node.Rx | Simnet.Node.Tx -> ());
  frames

let capture (sc : Scenario.t) =
  {
    ss1 = recorder (Softswitch.Soft_switch.node sc.Scenario.ss1);
    ss2 = recorder (Softswitch.Soft_switch.node sc.Scenario.ss2);
  }

(* Wall ns and minor words per call of [f] over [items], cycled. *)
let measure items f =
  let n = Array.length items in
  if n = 0 then (0.0, 0.0)
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Tiling.now_ns () in
    for i = 0 to calls - 1 do
      f items.(i mod n)
    done;
    let t1 = Tiling.now_ns () in
    let w1 = Gc.minor_words () in
    let c = float_of_int calls in
    (float_of_int (t1 - t0) /. c, (w1 -. w0) /. c)
  end

let run (sc : Scenario.t) cap (r : Round.t) =
  let ss1 = Array.of_list (List.rev !(cap.ss1)) in
  let ss2 = Array.of_list (List.rev !(cap.ss2)) in
  let packets = Array.map snd (Array.append ss1 ss2) in
  let encoded = Array.map Packet.encode packets in
  let encode_ns, encode_words =
    measure packets (fun p -> ignore (Sys.opaque_identity (Packet.encode p)))
  in
  let decode_ns, decode_words =
    measure encoded (fun s -> ignore (Sys.opaque_identity (Packet.decode s)))
  in
  let fields_ns, _ =
    measure packets (fun p ->
        ignore (Sys.opaque_identity (Packet.Fields.of_packet p)))
  in
  let now_ns = Simnet.Sim_time.to_ns (Simnet.Engine.now (Scenario.engine sc)) in
  let process sw frames =
    measure frames (fun (in_port, p) ->
        ignore
          (Sys.opaque_identity
             (Softswitch.Soft_switch.process_direct sw ~now_ns ~in_port p)))
  in
  let ss1_ns, ss1_words = process sc.Scenario.ss1 ss1 in
  let ss2_ns, ss2_words = process sc.Scenario.ss2 ss2 in
  let flowrec = Softswitch.Flowrec.create () in
  let observe_ns, _ =
    measure ss2 (fun (in_port, p) ->
        Softswitch.Flowrec.observe flowrec ~now_ns ~in_port p)
  in
  let l = Round.layer r in
  l "netpkt.encode_ns" encode_ns;
  l "netpkt.encode_words" encode_words;
  l "netpkt.decode_ns" decode_ns;
  l "netpkt.decode_words" decode_words;
  l "netpkt.fields_ns" fields_ns;
  l "softswitch.ss1_process_ns" ss1_ns;
  l "softswitch.ss2_process_ns" ss2_ns;
  l "softswitch.process_words" ((ss1_words +. ss2_words) /. 2.0);
  l "softswitch.flowrec_observe_ns" observe_ns;
  if not (Hashtbl.mem r.Round.layers "softswitch.flowrec_sampled_ratio") then
    l "softswitch.flowrec_sampled_ratio"
      (float_of_int (Softswitch.Flowrec.sampled flowrec)
      /. float_of_int (max 1 (Softswitch.Flowrec.seen flowrec)))
