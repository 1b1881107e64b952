open Simnet

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* Sampled packet-ins counted per source address; never consumed, since
   the dataplane already forwarded the original. *)
let sample_counter () =
  let counts = Hashtbl.create 8 in
  let packet_in _ _ ~in_port:_ reason (pkt : Netpkt.Packet.t) =
    (match (reason, pkt.Netpkt.Packet.l3) with
    | Openflow.Of_message.Action_to_controller, Netpkt.Packet.Ip hdr ->
        let src = hdr.Netpkt.Ipv4.src in
        Hashtbl.replace counts src
          (1 + Option.value (Hashtbl.find_opt counts src) ~default:0)
    | _ -> ());
    false
  in
  (counts, { (Sdnctl.Controller.no_op_app "samples") with Sdnctl.Controller.packet_in })

let total counts = Hashtbl.fold (fun _ n acc -> acc + n) counts 0

let sampling_tests =
  [
    tc "every Nth packet is sampled to the controller" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let counts, app = sample_counter () in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [
               app;
               Experiments_lib.Common.proactive_l2 ~num_hosts:2;
             ]);
        Softswitch.Soft_switch.set_sampling
          (Harmless.Deployment.controller_switch d)
          ~rate:(Some 10);
        ignore
          (Traffic.udp_stream ~rng:(Rng.create 1)
             ~src:(Harmless.Deployment.host d 0)
             ~dst_mac:(Harmless.Deployment.host_mac 1)
             ~dst_ip:(Harmless.Deployment.host_ip 1)
             ~stop:(Sim_time.add (Engine.now engine) (Sim_time.ms 10))
             (Traffic.Cbr 100_000.0) (Traffic.Fixed 128) ());
        Experiments_lib.Common.run_for engine (Sim_time.ms 30);
        (* 1000 packets at rate 10 -> 100 samples *)
        check Alcotest.int "sample count" 100 (total counts);
        (* forwarding unaffected *)
        check Alcotest.int "all delivered" 1000
          (Host.udp_received (Harmless.Deployment.host d 1)));
    tc "ranking reflects relative rates" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let counts, app = sample_counter () in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [
               app;
               Experiments_lib.Common.proactive_l2 ~num_hosts:3;
             ]);
        Softswitch.Soft_switch.set_sampling
          (Harmless.Deployment.controller_switch d)
          ~rate:(Some 5);
        let stream src rate =
          ignore
            (Traffic.udp_stream ~rng:(Rng.create src)
               ~src:(Harmless.Deployment.host d src)
               ~dst_mac:(Harmless.Deployment.host_mac 2)
               ~dst_ip:(Harmless.Deployment.host_ip 2)
               ~stop:(Sim_time.add (Engine.now engine) (Sim_time.ms 20))
               (Traffic.Poisson rate) (Traffic.Fixed 128) ())
        in
        stream 0 90_000.0 (* heavy talker *);
        stream 1 10_000.0 (* light talker *);
        Experiments_lib.Common.run_for engine (Sim_time.ms 40);
        let of_host i =
          Option.value
            (Hashtbl.find_opt counts (Harmless.Deployment.host_ip i))
            ~default:0
        in
        check Alcotest.bool "host0 on top" true (of_host 0 > of_host 1);
        let share = float_of_int (of_host 0) /. float_of_int (total counts) in
        check Alcotest.bool "share ~0.9" true (share > 0.8 && share < 0.98));
    tc "bad rate rejected, None disables" (fun () ->
        let engine = Engine.create () in
        let sw = Softswitch.Soft_switch.create engine ~name:"s" ~ports:1 () in
        check Alcotest.bool "raises" true
          (try Softswitch.Soft_switch.set_sampling sw ~rate:(Some 0); false
           with Invalid_argument _ -> true);
        Softswitch.Soft_switch.set_sampling sw ~rate:None);
  ]

let suite = [ ("sampling", sampling_tests) ]
