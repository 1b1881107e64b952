open Simnet
open Openflow
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i

(* A controller rig: one plain OpenFlow switch with [n] recording stubs. *)
let rig ?(ports = 4) apps =
  let engine = Engine.create () in
  let sw = Softswitch.Soft_switch.create engine ~name:"sw" ~ports () in
  let received = Array.make ports [] in
  let stubs =
    Array.init ports (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "h%d" i) ~ports:1 in
        Node.set_handler n (fun _ ~in_port:_ pkt ->
            received.(i) <- pkt :: received.(i));
        ignore (Link.connect (n, 0) (Softswitch.Soft_switch.node sw, i));
        n)
  in
  let ctrl = Sdnctl.Controller.create engine () in
  List.iter (Sdnctl.Controller.add_app ctrl) apps;
  let dpid = Sdnctl.Controller.attach_switch ctrl sw in
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
  let send i pkt = Node.transmit stubs.(i) ~port:0 pkt in
  (engine, sw, ctrl, dpid, send, received)

(* An SS_2 app is a policy fragment installed through Policy_app. *)
let compiled name term = Sdnctl.Policy_app.(app (live ~name (fun () -> term)))

(* The rig's L2 band: stub [i] has MAC [i + 1]. *)
let stub_l2 = List.init 4 (fun i -> (mac (i + 1), i))

(* Parental control over the rig's L2 band, live-updatable. *)
let pc_rig pc =
  let live =
    Sdnctl.Policy_app.live ~name:"parental-control" (fun () ->
        Sdnctl.Parental_control.enforce pc (Sdnctl.Policy_app.l2_band stub_l2))
  in
  rig [ Sdnctl.Parental_control.app pc live ~l2:stub_l2; Sdnctl.Policy_app.app live ]

let udp_between i j =
  Packet.udp ~dst:(mac (j + 1)) ~src:(mac (i + 1))
    ~ip_src:(Ipv4_addr.of_octets 10 0 0 (i + 1))
    ~ip_dst:(Ipv4_addr.of_octets 10 0 0 (j + 1))
    ~src_port:(5000 + i) ~dst_port:(6000 + j) "app test payload"

let channel_tests =
  [
    tc "handshake triggers switch_up exactly once" (fun () ->
        let ups = ref 0 in
        let app =
          {
            (Sdnctl.Controller.no_op_app "probe") with
            Sdnctl.Controller.switch_up = (fun _ _ -> incr ups);
          }
        in
        let _ = rig [ app ] in
        check Alcotest.int "once" 1 !ups);
    tc "messages are delayed by channel latency" (fun () ->
        let engine = Engine.create () in
        let sw = Softswitch.Soft_switch.create engine ~name:"sw" ~ports:1 () in
        let arrived_at = ref Sim_time.zero in
        let ch =
          Sdnctl.Channel.connect engine ~latency:(Sim_time.us 500) ~switch:sw
            ~to_controller:(fun _ -> arrived_at := Engine.now engine)
            ()
        in
        Sdnctl.Channel.to_switch ch Of_message.Features_request;
        Engine.run engine;
        (* request: 500us there; reply: 500us back *)
        check Alcotest.int "1ms round trip" (Sim_time.ms 1)
          (Sim_time.to_ns !arrived_at));
  ]

let error_tests =
  [
    tc "flow-mod to a bad table surfaces as an error" (fun () ->
        let engine, _, ctrl, dpid, _, _ = rig [] in
        Sdnctl.Controller.install ctrl dpid
          (Of_message.add_flow ~table_id:42 ~match_:Of_match.any []);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 10));
        check Alcotest.bool "error recorded" true
          (Sdnctl.Controller.errors_received ctrl <> []));
    tc "flow_stats callback fires" (fun () ->
        let engine, _, ctrl, dpid, _, _ = rig [] in
        Sdnctl.Controller.install ctrl dpid
          (Of_message.add_flow ~match_:Of_match.any []);
        let got = ref (-1) in
        Sdnctl.Controller.flow_stats ctrl dpid ~on_reply:(fun stats ->
            got := List.length stats);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 10));
        check Alcotest.int "one entry" 1 !got);
  ]

let l2_tests =
  [
    tc "first packet floods, reply unicasts, then hardware path" (fun () ->
        let engine, sw, ctrl, _, send, received = rig [ Sdnctl.L2_learning.create () ] in
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "flooded to 1" 1 (List.length received.(1));
        check Alcotest.int "flooded to 2" 1 (List.length received.(2));
        send 1 (udp_between 1 0);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "unicast back" 1 (List.length received.(0));
        check Alcotest.int "2 saw nothing new" 1 (List.length received.(2));
        (* third packet 0->1: dst now known, installs the eth_dst flow *)
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 60));
        check Alcotest.int "delivered" 2 (List.length received.(1));
        (* fourth packet rides the installed flow: no further packet-in *)
        let before = Sdnctl.Controller.packet_ins_received ctrl in
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 80));
        check Alcotest.int "no new packet-in" before
          (Sdnctl.Controller.packet_ins_received ctrl);
        check Alcotest.int "delivered in hardware" 3 (List.length received.(1));
        check Alcotest.bool "flows installed" true
          (Flow_table.size (Pipeline.table (Softswitch.Soft_switch.pipeline sw) 0) >= 2));
  ]

let lb_tests =
  [
    tc "flows stick to backends; distinct flows spread" (fun () ->
        let vip_ip = Ipv4_addr.of_octets 10 0 0 100 in
        let vip_mac = mac 100 in
        let backends =
          List.map
            (fun b ->
              {
                Sdnctl.Load_balancer.backend_mac = mac (b + 1);
                backend_ip = Ipv4_addr.of_octets 10 0 0 (b + 1);
                backend_port = b;
              })
            [ 0; 1 ]
        in
        let app =
          compiled "load-balancer"
            (Sdnctl.Load_balancer.fragment ~vip_ip ~vip_mac ~ingress_port:3
               ~backends ())
        in
        let engine, _, _, _, send, received = rig [ app ] in
        let to_vip sport =
          Packet.tcp ~dst:vip_mac ~src:(mac 50)
            ~ip_src:(Ipv4_addr.of_octets 10 0 0 50) ~ip_dst:vip_ip ~src_port:sport
            ~dst_port:80 "GET"
        in
        (* same flow, three packets: all to one backend *)
        for _ = 1 to 3 do
          send 3 (to_vip 7777)
        done;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        let total0 = List.length received.(0) and total1 = List.length received.(1) in
        check Alcotest.int "three delivered" 3 (total0 + total1);
        check Alcotest.bool "sticky" true (total0 = 0 || total1 = 0);
        (* many distinct flows: both backends used, dst rewritten *)
        for sport = 1000 to 1063 do
          send 3 (to_vip sport)
        done;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 60));
        check Alcotest.bool "backend0 used" true (List.length received.(0) > 0);
        check Alcotest.bool "backend1 used" true (List.length received.(1) > 0);
        List.iter
          (fun (p : Packet.t) ->
            match p.Packet.l3 with
            | Packet.Ip hdr ->
                check Alcotest.string "ip rewritten" "10.0.0.1"
                  (Ipv4_addr.to_string hdr.Ipv4.dst)
            | _ -> ())
          received.(0));
    tc "return traffic rewritten to the VIP" (fun () ->
        let vip_ip = Ipv4_addr.of_octets 10 0 0 100 in
        let vip_mac = mac 100 in
        let backends =
          [
            {
              Sdnctl.Load_balancer.backend_mac = mac 1;
              backend_ip = Ipv4_addr.of_octets 10 0 0 1;
              backend_port = 0;
            };
          ]
        in
        let app =
          compiled "load-balancer"
            (Sdnctl.Load_balancer.fragment ~vip_ip ~vip_mac ~ingress_port:3
               ~backends ())
        in
        let engine, _, _, _, send, received = rig [ app ] in
        send 0
          (Packet.tcp ~dst:(mac 50) ~src:(mac 1)
             ~ip_src:(Ipv4_addr.of_octets 10 0 0 1)
             ~ip_dst:(Ipv4_addr.of_octets 10 0 0 50) ~src_port:80 ~dst_port:7777
             "HTTP/1.1 200 OK");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        match received.(3) with
        | [ p ] -> (
            check Alcotest.bool "src mac = vip" true (Mac_addr.equal p.Packet.src vip_mac);
            match p.Packet.l3 with
            | Packet.Ip hdr ->
                check Alcotest.string "src ip = vip" "10.0.0.100"
                  (Ipv4_addr.to_string hdr.Ipv4.src)
            | _ -> Alcotest.fail "not ip")
        | l -> Alcotest.failf "ingress got %d" (List.length l));
  ]

let dmz_tests =
  [
    tc "allows listed pairs both ways, blocks the rest" (fun () ->
        let vm i =
          {
            Sdnctl.Dmz.vm_ip = Ipv4_addr.of_octets 10 0 0 (i + 1);
            vm_mac = mac (i + 1);
            vm_port = i;
          }
        in
        let policy =
          {
            Sdnctl.Dmz.vms = List.init 4 vm;
            allowed = [ (Ipv4_addr.of_octets 10 0 0 1, Ipv4_addr.of_octets 10 0 0 2) ];
          }
        in
        let engine, _, _, _, send, received =
          rig [ compiled "dmz" (Sdnctl.Dmz.fragment policy ()) ]
        in
        send 0 (udp_between 0 1);
        send 1 (udp_between 1 0);
        send 0 (udp_between 0 2);
        send 2 (udp_between 2 3);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "0->1 allowed" 1 (List.length received.(1));
        check Alcotest.int "1->0 allowed" 1 (List.length received.(0));
        check Alcotest.int "others blocked" 0 (List.length received.(2));
        check Alcotest.int "others blocked'" 0 (List.length received.(3)));
    tc "arp still floods under dmz" (fun () ->
        let vm i =
          {
            Sdnctl.Dmz.vm_ip = Ipv4_addr.of_octets 10 0 0 (i + 1);
            vm_mac = mac (i + 1);
            vm_port = i;
          }
        in
        let policy = { Sdnctl.Dmz.vms = List.init 2 vm; allowed = [] } in
        let engine, _, _, _, send, received =
          rig [ compiled "dmz" (Sdnctl.Dmz.fragment policy ()) ]
        in
        send 0
          (Packet.arp_request ~src_mac:(mac 1)
             ~src_ip:(Ipv4_addr.of_octets 10 0 0 1)
             ~target_ip:(Ipv4_addr.of_octets 10 0 0 2));
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.bool "arp delivered" true (List.length received.(1) >= 1));
    tc "unknown vm in policy rejected at construction" (fun () ->
        let policy =
          {
            Sdnctl.Dmz.vms = [];
            allowed = [ (Ipv4_addr.of_octets 1 1 1 1, Ipv4_addr.of_octets 2 2 2 2) ];
          }
        in
        check Alcotest.bool "raises" true
          (try ignore (Sdnctl.Dmz.fragment policy ()); false
           with Invalid_argument _ -> true));
  ]

let pc_tests =
  [
    tc "proactive block installs drop rules" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let site = Ipv4_addr.of_octets 10 0 0 3 in
        let pc =
          Sdnctl.Parental_control.create
            ~sites:[ ("bad.example", site) ]
            ~blocked:[ (user, "bad.example") ]
            ()
        in
        let engine, _, _, _, send, received = pc_rig pc in
        (* user (port 0) sends HTTP to the site host (port 2) *)
        let http =
          Packet.tcp ~dst:(mac 3) ~src:(mac 1) ~ip_src:user ~ip_dst:site
            ~src_port:1234 ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host:"bad.example" "/"))
        in
        send 0 http;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "blocked" 0 (List.length received.(2));
        (* non-HTTP traffic from the same user still flows *)
        send 0 (udp_between 0 2);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "udp unaffected" 1 (List.length received.(2)));
    tc "reactive sniffing blocks unknown sites by Host header" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let pc =
          Sdnctl.Parental_control.create ~sites:[]
            ~blocked:[ (user, "sneaky.example") ]
            ()
        in
        let engine, _, _, _, send, received = pc_rig pc in
        let http ~server host =
          Packet.tcp ~dst:(mac (server + 1)) ~src:(mac 1) ~ip_src:user
            ~ip_dst:(Ipv4_addr.of_octets 10 0 0 (server + 1)) ~src_port:1234
            ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host "/"))
        in
        send 0 (http ~server:2 "sneaky.example");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "sniffed and dropped" 0 (List.length received.(2));
        check Alcotest.int "counted" 1 (Sdnctl.Parental_control.sniffed_drops pc);
        (* an allowed Host on a *different* server is sent on to the port
           the L2 band gives its MAC; the same server IP stays collaterally
           blocked by the pinned verdict *)
        send 0 (http ~server:3 "fine.example");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "allowed host forwarded" 1 (List.length received.(3)));
    tc "block and unblock at runtime" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let site = Ipv4_addr.of_octets 10 0 0 3 in
        let pc =
          Sdnctl.Parental_control.create ~sites:[ ("x.example", site) ] ~blocked:[] ()
        in
        let engine, _, ctrl, _, send, received = pc_rig pc in
        let http () =
          Packet.tcp ~dst:(mac 3) ~src:(mac 1) ~ip_src:user ~ip_dst:site
            ~src_port:1234 ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host:"x.example" "/"))
        in
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "initially allowed" 1 (List.length received.(2));
        Sdnctl.Parental_control.block pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 25));
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 45));
        check Alcotest.int "now blocked" 1 (List.length received.(2));
        Sdnctl.Parental_control.unblock pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 50));
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 70));
        check Alcotest.int "allowed again" 2 (List.length received.(2));
        check Alcotest.bool "list empty" true
          (Sdnctl.Parental_control.blocked_list pc = []));
  ]

(* ---- live policy updates ---- *)

module Compile = Policy.Compile

let rules pipeline =
  List.map
    (fun (e : Flow_entry.t) ->
      (e.Flow_entry.priority, e.Flow_entry.match_, e.Flow_entry.instructions))
    (Flow_table.entries (Pipeline.table pipeline 0))

let has_catch_all pipeline =
  List.exists (fun (p, m, _) -> p = 0 && Of_match.equal m Of_match.any) (rules pipeline)

(* Everything a switch holding exactly [c] shows: table 0 in order, and
   the group and meter tables (their sizes, and the content of every id
   [c] uses). *)
let state pipeline c =
  let groups = Pipeline.groups pipeline and meters = Pipeline.meters pipeline in
  let group_ids =
    List.filter_map
      (function Of_message.Add_group { id; _ } -> Some id | _ -> None)
      (Compile.group_mods c)
  and meter_ids =
    List.filter_map
      (function Of_message.Add_meter { id; _ } -> Some id | _ -> None)
      (Compile.meter_mods c)
  in
  ( rules pipeline,
    ( Group_table.size groups,
      List.map (fun id -> Group_table.find groups ~id) group_ids ),
    ( Meter_table.size meters,
      List.map (fun id -> Meter_table.band meters ~id) meter_ids ) )

let fresh_install c =
  let p = Pipeline.create () in
  Compile.install c ~now_ns:0 p;
  p

let policy_app_tests =
  [
    tc "live edits install a diff equal to a fresh compile, never missing the \
        catch-all"
      (fun () ->
        let g = ref (Sdnctl.Gateway.default ()) in
        let live =
          Sdnctl.Policy_app.live ~name:"gateway" (fun () ->
              Sdnctl.Gateway.policy !g)
        in
        let l2 =
          List.map
            (fun s -> (s.Sdnctl.Gateway.sub_mac, s.Sdnctl.Gateway.sub_port))
            !g.Sdnctl.Gateway.subscribers
        in
        let pc = !g.Sdnctl.Gateway.parental in
        let engine, sw, ctrl, _, _, _ =
          rig ~ports:!g.Sdnctl.Gateway.num_ports
            [ Sdnctl.Parental_control.app pc live ~l2; Sdnctl.Policy_app.app live ]
        in
        let pipeline = Softswitch.Soft_switch.pipeline sw in
        let agrees what =
          let c = Sdnctl.Policy_app.compiled live in
          check Alcotest.bool (what ^ ": switch = fresh install") true
            (state pipeline c = state (fresh_install c) c);
          check Alcotest.(list string) (what ^ ": no switch errors") []
            (Sdnctl.Controller.errors_received ctrl)
        in
        (* Edit, then step the engine one event at a time until the diff
           has crossed the channel, checking the table after each. *)
        let edit what f =
          f ();
          let until = Sim_time.add (Engine.now engine) (Sim_time.ms 5) in
          while Sim_time.(Engine.now engine < until) && Engine.step engine do
            if not (has_catch_all pipeline) then
              Alcotest.failf "%s: table lost its catch-all" what
          done;
          agrees what
        in
        agrees "switch-up";
        let update () = Sdnctl.Policy_app.update live ctrl in
        let limit ip rate_kbps =
          {
            Sdnctl.Rate_limiter.subject = Ipv4_addr.of_string ip;
            rate_kbps;
            burst_kb = 16;
          }
        in
        edit "deny-list add" (fun () ->
            Sdnctl.Parental_control.block pc ctrl
              ~user:(Ipv4_addr.of_string "10.1.0.3") ~host:"other.example");
        edit "deny-list remove" (fun () ->
            Sdnctl.Parental_control.unblock pc ctrl
              ~user:(Ipv4_addr.of_string "10.1.0.1") ~host:"blocked.example");
        edit "rate change" (fun () ->
            g := { !g with Sdnctl.Gateway.limits = [ limit "10.1.0.1" 2048 ] };
            update ());
        edit "second limit" (fun () ->
            g :=
              {
                !g with
                Sdnctl.Gateway.limits =
                  [ limit "10.1.0.1" 2048; limit "10.1.0.4" 256 ];
              };
            update ());
        edit "backend-pool change" (fun () ->
            g :=
              {
                !g with
                Sdnctl.Gateway.lb_backends = [ List.hd !g.Sdnctl.Gateway.lb_backends ];
              };
            update ());
        edit "limit removed" (fun () ->
            g := { !g with Sdnctl.Gateway.limits = [ limit "10.1.0.4" 256 ] };
            update ()));
    tc "an unchanged compile diffs to nothing; an edit leaves the rest alone"
      (fun () ->
        let g = Sdnctl.Gateway.default () in
        let before = Compile.compile (Sdnctl.Gateway.policy g) in
        check Alcotest.int "identical compiles" 0
          (List.length (Sdnctl.Policy_app.diff ~installed:before before));
        Sdnctl.Parental_control.block g.Sdnctl.Gateway.parental
          (Sdnctl.Controller.create (Engine.create ()) ())
          ~user:(Ipv4_addr.of_string "10.1.0.3") ~host:"other.example";
        let after = Compile.compile (Sdnctl.Gateway.policy g) in
        let adds, deletes =
          List.partition
            (fun (fm : Of_message.flow_mod) -> fm.Of_message.command = Of_message.Add)
            (List.filter_map
               (function Of_message.Flow_mod fm -> Some fm | _ -> None)
               (Sdnctl.Policy_app.diff ~installed:before after))
        in
        check Alcotest.bool "catch-all untouched" false
          (List.exists
             (fun (fm : Of_message.flow_mod) ->
               fm.Of_message.priority = 0
               && Of_match.equal fm.Of_message.match_ Of_match.any)
             (adds @ deletes));
        (* The new drop shifts the rules above it up one priority; the
           rules below it stay where they are and are not re-sent. *)
        check Alcotest.bool "not a full re-send" true
          (List.length adds < Compile.flow_count after);
        check Alcotest.int "one rule more" 1 (List.length adds - List.length deletes));
  ]

(* A crashed switch loses its groups and meters along with its flows; a
   switch that only loses its control channel keeps them.  Either way the
   controller's replay on reconnect restores exactly what was there,
   without an "id exists" error.  [outage] takes the switch down and
   brings it back. *)
let resync_after outage () =
  let engine = Engine.create () in
  let g = Sdnctl.Gateway.default () in
  let d =
    match
      Harmless.Deployment.build_harmless engine
        ~num_hosts:g.Sdnctl.Gateway.num_ports ()
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let ss2 = Harmless.Deployment.controller_switch d in
  let ctrl =
    Sdnctl.Controller.create engine
      ~channel_config:
        {
          Sdnctl.Channel.default_config with
          keepalive_interval = Some (Sim_time.ms 2);
          echo_timeout = Sim_time.ms 5;
          reconnect_base = Sim_time.ms 1;
          reconnect_max = Sim_time.ms 8;
        }
      ()
  in
  let live =
    Sdnctl.Policy_app.live ~name:"gateway" (fun () ->
        Sdnctl.Gateway.policy g)
  in
  let l2 =
    List.map
      (fun s -> (s.Sdnctl.Gateway.sub_mac, s.Sdnctl.Gateway.sub_port))
      g.Sdnctl.Gateway.subscribers
  in
  let pc = g.Sdnctl.Gateway.parental in
  Sdnctl.Controller.add_app ctrl (Sdnctl.Parental_control.app pc live ~l2);
  Sdnctl.Controller.add_app ctrl (Sdnctl.Policy_app.app live);
  let dpid = Sdnctl.Controller.attach_switch ctrl ss2 in
  let run_for ms =
    Engine.run engine
      ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms ms))
  in
  run_for 5;
  (* An edit, so the replayed log holds modifies and deletes too. *)
  Sdnctl.Parental_control.block pc ctrl
    ~user:(Ipv4_addr.of_string "10.1.0.3") ~host:"other.example";
  run_for 5;
  let pipeline = Softswitch.Soft_switch.pipeline ss2 in
  let c = Sdnctl.Policy_app.compiled live in
  let before = state pipeline c in
  check Alcotest.bool "installed = fresh install" true
    (before = state (fresh_install c) c);
  check Alcotest.bool "the gateway uses groups and meters" true
    (Group_table.size (Pipeline.groups pipeline) > 0
    && Meter_table.size (Pipeline.meters pipeline) > 0);
  outage ~ss2 ~channel:(Sdnctl.Controller.channel ctrl dpid) ~run_for;
  run_for 60;
  check Alcotest.bool "reconnected" true
    (Softswitch.Soft_switch.connected ss2);
  check Alcotest.bool "resynced" true (Sdnctl.Controller.resyncs ctrl > 0);
  check Alcotest.(list string) "no switch errors" []
    (Sdnctl.Controller.errors_received ctrl);
  check Alcotest.bool "flow, group and meter tables as before the outage"
    true
    (state pipeline c = before)

let crash_tests =
  [
    tc "a crashed SS_2 resyncs its compiled gateway: no errors, same tables"
      (resync_after (fun ~ss2 ~channel:_ ~run_for ->
           let pipeline = Softswitch.Soft_switch.pipeline ss2 in
           Softswitch.Soft_switch.crash ss2;
           check Alcotest.(pair int int) "groups and meters wiped" (0, 0)
             ( Group_table.size (Pipeline.groups pipeline),
               Meter_table.size (Pipeline.meters pipeline) );
           run_for 30;
           Softswitch.Soft_switch.restart ss2));
    tc "an SS_2 that only lost its channel resyncs: no errors, same tables"
      (resync_after (fun ~ss2 ~channel ~run_for ->
           let pipeline = Softswitch.Soft_switch.pipeline ss2 in
           Sdnctl.Channel.set_down channel true;
           run_for 30;
           check Alcotest.bool "groups and meters kept" true
             (Group_table.size (Pipeline.groups pipeline) > 0
             && Meter_table.size (Pipeline.meters pipeline) > 0);
           Sdnctl.Channel.set_down channel false));
  ]

let suite =
  [
    ("controller.channel", channel_tests @ error_tests);
    ("controller.l2", l2_tests);
    ("controller.load_balancer", lb_tests);
    ("controller.dmz", dmz_tests);
    ("controller.parental_control", pc_tests);
    ("controller.policy_app", policy_app_tests);
    ("controller.crash", crash_tests);
  ]
