open Simnet
open Openflow
open Softswitch
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i
let ip = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

let udp_pkt ?(dst = mac 2) ?(ip_dst = ip "10.0.0.2") ?(sport = 1000) () =
  Packet.udp ~dst ~src:(mac 1) ~ip_src:(ip "10.0.0.1") ~ip_dst ~src_port:sport
    ~dst_port:80 "payload..."

let entry ?(priority = 1000) match_ actions =
  Flow_entry.make ~priority ~match_ [ Flow_entry.Apply_actions actions ]

(* A representative mixed rule set: exact MAC forwarding, IP prefixes, an
   ARP wildcard, a drop fence. *)
let populate pipeline =
  let t = Pipeline.table pipeline 0 in
  for i = 1 to 32 do
    Flow_table.add t ~now_ns:0
      (entry ~priority:2000
         Of_match.(any |> eth_dst (mac (100 + i)))
         [ Of_action.output (i mod 8) ])
  done;
  Flow_table.add t ~now_ns:0
    (entry ~priority:1800
       Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.9.0.0/16"))
       [ Of_action.output 7 ]);
  Flow_table.add t ~now_ns:0
    (entry ~priority:1500 Of_match.(any |> eth_type 0x0806)
       [ Of_action.Output Of_action.Flood ]);
  Flow_table.add t ~now_ns:0
    (entry ~priority:1 Of_match.any [ Of_action.Drop ])

let workload () =
  let rng = Rng.create 21 in
  Array.init 500 (fun i ->
      if i mod 7 = 0 then
        Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
          ~target_ip:(ip "10.0.0.2")
      else if i mod 3 = 0 then
        udp_pkt ~ip_dst:(ip (Printf.sprintf "10.9.%d.1" (Rng.int rng 255))) ()
      else udp_pkt ~dst:(mac (100 + Rng.int rng 40)) ~sport:(Rng.int rng 60000) ())

let outputs_of result =
  List.map
    (function
      | Pipeline.Port (n, p) -> ("port" ^ string_of_int n, Packet.encode p)
      | Pipeline.In_port p -> ("in", Packet.encode p)
      | Pipeline.Flood p -> ("flood", Packet.encode p)
      | Pipeline.All_ports p -> ("all", Packet.encode p)
      | Pipeline.Controller (_, p) -> ("ctl", Packet.encode p))
    result.Pipeline.outputs

(* ---- Dataplane equivalence: the heart of the library ---- *)

let equivalence_tests =
  [
    tc "linear, ovs, ovs-noemc and eswitch agree on every packet" (fun () ->
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          populate p;
          p
        in
        (* separate pipelines so counters do not interfere *)
        let dps =
          [
            Linear.create (mk ());
            Ovs_like.create (mk ());
            Ovs_like.create
              ~config:{ Ovs_like.default_config with Ovs_like.emc_enabled = false }
              (mk ());
            Eswitch.create (mk ());
          ]
        in
        let packets = workload () in
        Array.iteri
          (fun idx pkt ->
            let results =
              List.map
                (fun (dp : Dataplane.t) ->
                  outputs_of (fst (dp.Dataplane.process ~now_ns:0 ~in_port:(idx mod 4) pkt)))
                dps
            in
            match results with
            | reference :: rest ->
                List.iteri
                  (fun j r ->
                    if r <> reference then
                      Alcotest.failf "packet %d: dataplane %d disagrees" idx j)
                  rest
            | [] -> ())
          packets);
    tc "eswitch compiles few templates for many rules" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Eswitch.create p in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ()));
        let templates = List.assoc "templates" (dp.Dataplane.stats ()) in
        (* 32 exact-mac rules -> 1 template; prefix + wildcard rules are residual *)
        check Alcotest.bool "few" true (templates <= 3));
    tc "eswitch recompiles on table change" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Eswitch.create p in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ()));
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry ~priority:3000 Of_match.(any |> eth_dst (mac 200)) [ Of_action.output 1 ]);
        (* The new rule must be visible immediately. *)
        let r, _ = dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ~dst:(mac 200) ()) in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (1, _) ] -> ()
        | _ -> Alcotest.fail "new rule not picked up");
        check Alcotest.bool "recompiled" true
          (List.assoc "recompiles" (dp.Dataplane.stats ()) >= 2));
  ]

(* ---- Caches ---- *)

let cache_tests =
  [
    tc "emc hits on repeated microflows" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Ovs_like.create p in
        let pkt = udp_pkt ~dst:(mac 101) () in
        for _ = 1 to 10 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt)
        done;
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "one upcall" 1 (List.assoc "upcalls" stats);
        check Alcotest.int "nine emc hits" 9 (List.assoc "emc_hits" stats));
    tc "megaflow absorbs varying untested fields" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        (* single rule keyed on ip_dst only; src ports untested *)
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.0.2/32"))
             [ Of_action.output 1 ]);
        let dp =
          Ovs_like.create
            ~config:{ Ovs_like.default_config with Ovs_like.emc_enabled = false }
            p
        in
        for sport = 1 to 50 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ~sport ()))
        done;
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "one upcall" 1 (List.assoc "upcalls" stats);
        check Alcotest.int "49 megaflow hits" 49 (List.assoc "megaflow_hits" stats));
    tc "cache invalidated by flow-mod" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.any [ Of_action.output 1 ]);
        let dp = Ovs_like.create p in
        let pkt = udp_pkt () in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        (* change the rule: cached result must not survive *)
        ignore
          (Flow_table.modify (Pipeline.table p 0) ~strict:true Of_match.any
             ~priority:1000
             [ Flow_entry.Apply_actions [ Of_action.output 9 ] ]);
        let r, _ = dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (9, _) ] -> ()
        | _ -> Alcotest.fail "stale cache served");
        check Alcotest.bool "invalidation counted" true
          (List.assoc "invalidations" (dp.Dataplane.stats ()) >= 1));
    tc "table miss is never cached" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        let dp = Ovs_like.create p in
        let pkt = udp_pkt () in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "both upcalled" 2 (List.assoc "upcalls" stats));
  ]

(* ---- PMD ---- *)

let pmd_tests =
  [
    tc "service time matches the cycle model" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.ghz = 1.0 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let done_at = ref (-1) in
        ignore
          (Pmd.submit pmd ~cycles:1000 (fun () ->
               done_at := Sim_time.to_ns (Engine.now engine)));
        Engine.run engine;
        let expected =
          Pmd.ns_of_cycles cfg (Pmd.packet_service_cycles cfg ~dataplane_cycles:1000)
        in
        check Alcotest.int "completion" expected !done_at);
    tc "back-to-back packets queue" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.ghz = 1.0 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let completions = ref [] in
        for _ = 1 to 3 do
          ignore
            (Pmd.submit pmd ~cycles:1000 (fun () ->
                 completions := Sim_time.to_ns (Engine.now engine) :: !completions))
        done;
        Engine.run engine;
        let service =
          Pmd.ns_of_cycles cfg (Pmd.packet_service_cycles cfg ~dataplane_cycles:1000)
        in
        check Alcotest.(list int) "spaced"
          [ service; 2 * service; 3 * service ]
          (List.rev !completions));
    tc "rx ring overflows drop" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.rx_ring = 4 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let accepted = ref 0 in
        for _ = 1 to 10 do
          if Pmd.submit pmd ~cycles:100 (fun () -> ()) then incr accepted
        done;
        check Alcotest.int "4 accepted" 4 !accepted;
        check Alcotest.int "6 dropped" 6 (Pmd.dropped pmd);
        Engine.run engine;
        check Alcotest.int "processed" 4 (Pmd.processed pmd));
    tc "larger batches amortize overhead" (fun () ->
        let small = { Pmd.default_config with Pmd.batch_size = 1 } in
        let big = { Pmd.default_config with Pmd.batch_size = 64 } in
        check Alcotest.bool "cheaper" true
          (Pmd.packet_service_cycles big ~dataplane_cycles:100
           < Pmd.packet_service_cycles small ~dataplane_cycles:100));
    tc "more cores serve faster" (fun () ->
        let one = { Pmd.default_config with Pmd.cores = 1 } in
        let four = { Pmd.default_config with Pmd.cores = 4 } in
        check Alcotest.bool "faster" true
          (Pmd.ns_of_cycles four 10_000 < Pmd.ns_of_cycles one 10_000));
  ]

(* ---- Patch ports and the switch agent ---- *)

let agent_tests =
  [
    tc "port stats equal what a tap on the node counts" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:3 () in
        let hosts =
          Array.init 3 (fun i ->
              let h =
                Host.create engine ~name:(Printf.sprintf "h%d" i) ~mac:(mac (i + 1))
                  ~ip:(Ipv4_addr.of_octets 10 0 0 (i + 1)) ()
              in
              ignore (Link.connect (Host.node h, 0) (Soft_switch.node sw, i));
              h)
        in
        (* Flood everything: every frame in on one port goes out the others. *)
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.Output Of_action.Flood ] ]));
        let tapped = Array.make_matrix 3 4 0 in
        Node.add_tap (Soft_switch.node sw) (fun dir port pkt ->
            let base = match dir with Node.Rx -> 0 | Node.Tx -> 2 in
            tapped.(port).(base) <- tapped.(port).(base) + 1;
            tapped.(port).(base + 1) <-
              tapped.(port).(base + 1) + Packet.wire_size pkt);
        Array.iteri
          (fun i h ->
            for k = 1 to 3 + i do
              Host.send h
                (Packet.udp ~dst:(mac 9) ~src:(Host.mac h) ~ip_src:(Host.ip h)
                   ~ip_dst:(ip "10.0.0.9") ~src_port:k ~dst_port:9
                   (String.make (100 * k) 'x'))
            done)
          hosts;
        Engine.run engine;
        let reply = ref [] in
        Soft_switch.set_controller sw (function
          | Of_message.Port_stats_reply stats -> reply := stats
          | _ -> ());
        Soft_switch.handle_message sw Of_message.Port_stats_request;
        check Alcotest.int "a row per port" 3 (List.length !reply);
        List.iter
          (fun (st : Of_message.port_stat) ->
            let t = tapped.(st.Of_message.port_no) in
            check Alcotest.(list int)
              (Printf.sprintf "port %d rx/tx packets and bytes" st.Of_message.port_no)
              [ t.(0); t.(1); t.(2); t.(3) ]
              [
                st.Of_message.rx_packets;
                st.Of_message.rx_bytes;
                st.Of_message.tx_packets;
                st.Of_message.tx_bytes;
              ];
            check Alcotest.bool "traffic both ways" true (t.(0) > 0 && t.(2) > 0))
          !reply);
    tc "patch port delivers same-instant" (fun () ->
        let engine = Engine.create () in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        let patch = Patch_port.connect (a, 0) (b, 0) in
        let got = ref 0 in
        Node.set_handler b (fun _ ~in_port:_ _ -> incr got);
        Node.transmit a ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "delivered" 1 !got;
        check Alcotest.int "counted" 1 (Patch_port.packets_a_to_b patch);
        check Alcotest.int "no clock advance" 0 (Sim_time.to_ns (Engine.now engine)));
    tc "flow_mod add/delete via agent" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.output 1 ] ]));
        check Alcotest.int "installed" 1
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.delete_flow Of_match.any));
        check Alcotest.int "deleted" 0
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0)));
    tc "bad table id and table-full surface as errors" (fun () ->
        let engine = Engine.create () in
        let sw =
          Soft_switch.create engine ~name:"s" ~ports:2 ~max_flow_entries:1 ()
        in
        let errors = ref [] in
        Soft_switch.set_controller sw (function
          | Of_message.Error e -> errors := e :: !errors
          | _ -> ());
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.add_flow ~table_id:99 ~match_:Of_match.any []));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:1 ~match_:Of_match.any []));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:2 ~match_:Of_match.any []));
        check Alcotest.int "two errors" 2 (List.length !errors));
    tc "table miss sends packet-in; drop mode stays silent" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 0));
        let pkt_ins = ref 0 in
        Soft_switch.set_controller sw (function
          | Of_message.Packet_in _ -> incr pkt_ins
          | _ -> ());
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "packet-in" 1 !pkt_ins;
        (* drop mode *)
        let sw2 =
          Soft_switch.create engine ~name:"s2" ~ports:2 ~miss:Soft_switch.Drop_on_miss ()
        in
        let stub2 = Node.create engine ~name:"stub2" ~ports:1 in
        ignore (Link.connect (stub2, 0) (Soft_switch.node sw2, 0));
        let pkt_ins2 = ref 0 in
        Soft_switch.set_controller sw2 (function
          | Of_message.Packet_in _ -> incr pkt_ins2
          | _ -> ());
        Node.transmit stub2 ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "silent" 0 !pkt_ins2;
        check Alcotest.int "counted" 1
          (Stats.Counter.get (Node.counters (Soft_switch.node sw2)) "drop_table_miss"));
    tc "packet_out executes actions" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 1));
        let got = ref [] in
        Node.set_handler stub (fun _ ~in_port:_ pkt -> got := pkt :: !got);
        Soft_switch.handle_message sw
          (Of_message.Packet_out
             {
               in_port = None;
               actions = [ Of_action.Set_eth_dst (mac 7); Of_action.output 1 ];
               packet = udp_pkt ();
             });
        Engine.run engine;
        match !got with
        | [ pkt ] -> check Alcotest.bool "rewritten" true (Mac_addr.equal pkt.Packet.dst (mac 7))
        | _ -> Alcotest.fail "expected one packet");
    tc "features and stats replies" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:3 () in
        let replies = ref [] in
        Soft_switch.set_controller sw (fun m -> replies := m :: !replies);
        Soft_switch.handle_message sw Of_message.Features_request;
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.add_flow ~match_:Of_match.any []));
        Soft_switch.handle_message sw (Of_message.Flow_stats_request { table_id = None });
        Soft_switch.handle_message sw Of_message.Port_stats_request;
        Soft_switch.handle_message sw (Of_message.Barrier_request 5);
        Soft_switch.handle_message sw (Of_message.Echo_request "x");
        let has pred = List.exists pred !replies in
        check Alcotest.bool "features" true
          (has (function Of_message.Features_reply { num_ports = 3; _ } -> true | _ -> false));
        check Alcotest.bool "flow stats" true
          (has (function Of_message.Flow_stats_reply [ _ ] -> true | _ -> false));
        check Alcotest.bool "port stats" true
          (has (function Of_message.Port_stats_reply l -> List.length l = 3 | _ -> false));
        check Alcotest.bool "barrier" true
          (has (function Of_message.Barrier_reply 5 -> true | _ -> false));
        check Alcotest.bool "echo" true
          (has (function Of_message.Echo_reply "x" -> true | _ -> false)));
    tc "hairpin requires In_port output" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 0));
        let got = ref 0 in
        Node.set_handler stub (fun _ ~in_port:_ _ -> incr got);
        (* Output to the ingress port via Physical is suppressed... *)
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.output 0 ] ]));
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "suppressed" 0 !got;
        (* ...but In_port hairpins. *)
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:2000 ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.Output Of_action.In_port ] ]));
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "hairpinned" 1 !got);
    tc "flow expiry runs via expire_flows" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:1 () in
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~hard_timeout_s:1 ~match_:Of_match.any []));
        check Alcotest.int "present" 1
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0));
        Engine.schedule_after engine (Sim_time.s 2) (fun () -> ());
        Engine.run engine;
        Soft_switch.expire_flows sw;
        check Alcotest.int "expired" 0
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0)));
  ]



(* ---- equivalence over fully random tables (reuses the codec's
   match/instruction generators) ---- *)

let random_table_gen =
  let open QCheck2.Gen in
  pair
    (list_size (int_range 1 25)
       (triple Test_codec.match_gen (int_range 1 3000)
          (list_size (int_bound 3) Test_codec.action_gen)))
    (list_size (int_range 1 40) Gen.packet_gen)

let random_equivalence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"all dataplanes agree on random tables and packets" ~count:60
         ~print:(fun (rules, packets) ->
           Printf.sprintf "%d rules, %d packets" (List.length rules)
             (List.length packets))
         random_table_gen
         (fun (rules, packets) ->
           let mk () =
             let p = Pipeline.create ~num_tables:1 () in
             List.iter
               (fun (m, priority, actions) ->
                 Flow_table.add (Pipeline.table p 0) ~now_ns:0
                   (Flow_entry.make ~priority ~match_:m
                      [ Flow_entry.Apply_actions actions ]))
               rules;
             p
           in
           let dps =
             [
               Linear.create (mk ());
               Ovs_like.create (mk ());
               Eswitch.create (mk ());
             ]
           in
           List.for_all
             (fun (idx, pkt) ->
               let results =
                 List.map
                   (fun (dp : Dataplane.t) ->
                     outputs_of
                       (fst (dp.Dataplane.process ~now_ns:0 ~in_port:(idx mod 5) pkt)))
                   dps
               in
               match results with
               | reference :: rest -> List.for_all (fun r -> r = reference) rest
               | [] -> true)
             (List.mapi (fun i pkt -> (i, pkt)) packets)));
  ]

(* ---- ESwitch against the ESwitch it replaced (Ref_eswitch) ---- *)

module Diff = Check.Differential

(* One random pipeline, installed identically into four pipelines (each
   backend ages its own counters and meters), then a packet stream: the
   new ESwitch must give the reference ESwitch's (result, cycles), and
   the same normalized result — matched entries and outputs — as Linear
   and the oracle. *)
let eswitch_against_reference seed =
  let rng = Rng.create seed in
  let tables = 1 + Rng.int rng 3 and ports = 2 + Rng.int rng 4 in
  let msgs =
    List.init (2 + Rng.int rng 3) (fun _ ->
        Of_message.Group_mod (Diff.gen_group_mod rng ~ports))
    @ List.init (5 + Rng.int rng 40) (fun _ ->
          Of_message.Flow_mod
            (Diff.gen_flow_mod rng ~tables ~ports ~force_add:true))
  in
  let mk () =
    let p = Pipeline.create ~num_tables:tables () in
    List.iter (Diff.apply_message p ~now_ns:0) msgs;
    p
  in
  let eswitch = Eswitch.create (mk ()) and reference = Ref_eswitch.create (mk ()) in
  let linear = Linear.create (mk ()) and oracle = mk () in
  let rec go i =
    i = 60
    ||
    let pkt = Diff.gen_packet rng and in_port = Rng.int rng ports in
    let now_ns = 1_000 * (i + 1) in
    let run (dp : Dataplane.t) = dp.Dataplane.process ~now_ns ~in_port pkt in
    let got, cycles = run eswitch and want, want_cycles = run reference in
    let lin = Diff.render_result (fst (run linear)) in
    let ora = Diff.render_result (Check.Oracle.execute oracle ~now_ns ~in_port pkt) in
    let got = Diff.render_result got and want = Diff.render_result want in
    if got = want && cycles = want_cycles && got = lin && got = ora then go (i + 1)
    else
      QCheck2.Test.fail_reportf
        "seed %d packet %d (in_port %d):@.eswitch %d cycles: %s@.reference %d \
         cycles: %s@.linear: %s@.oracle: %s"
        seed i in_port cycles got want_cycles want lin ora
  in
  go 0

let eswitch_reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"eswitch = reference eswitch = linear = oracle on random tables"
         ~count:200 ~print:string_of_int
         QCheck2.Gen.(int_bound 1_000_000)
         eswitch_against_reference);
    tc "keys that hash alike in one template are told apart" (fun () ->
        (* l4_src/l4_dst values (a, b), (a + 1, b - 31) and (a + 2, b - 62)
           hash alike, so they share a bucket whatever its size. *)
        let key k = [| 1000 + k; 2000 - (31 * k) |] in
        check Alcotest.bool "the keys collide" true
          (Eswitch.key_hash (key 0) = Eswitch.key_hash (key 1)
          && Eswitch.key_hash (key 0) = Eswitch.key_hash (key 2));
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          List.iter
            (fun k ->
              let v = key k in
              Flow_table.add (Pipeline.table p 0) ~now_ns:0
                (Flow_entry.make ~priority:(10 + k)
                   ~match_:Of_match.(any |> l4_src v.(0) |> l4_dst v.(1))
                   [ Flow_entry.Apply_actions [ Of_action.output (k + 1) ] ]))
            [ 0; 1 ];
          p
        in
        let eswitch = Eswitch.create (mk ()) and reference = Ref_eswitch.create (mk ()) in
        let oracle = mk () in
        List.iter
          (fun k ->
            let v = key k in
            let pkt =
              Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
                ~ip_dst:(ip "10.0.0.2") ~src_port:v.(0) ~dst_port:v.(1) "x"
            in
            let got, cycles = eswitch.Dataplane.process ~now_ns:0 ~in_port:0 pkt in
            let want, want_cycles =
              reference.Dataplane.process ~now_ns:0 ~in_port:0 pkt
            in
            let what = Printf.sprintf "key %d" k in
            check Alcotest.string (what ^ " = reference")
              (Diff.render_result want) (Diff.render_result got);
            check Alcotest.int (what ^ " cycles") want_cycles cycles;
            check Alcotest.string (what ^ " = oracle")
              (Diff.render_result
                 (Check.Oracle.execute oracle ~now_ns:0 ~in_port:0 pkt))
              (Diff.render_result got);
            check Alcotest.(list int) (what ^ " output")
              (if k < 2 then [ k + 1 ] else [])
              (List.filter_map
                 (function Pipeline.Port (p, _) -> Some p | _ -> None)
                 got.Pipeline.outputs))
          [ 0; 1; 2 ]);
    tc "a frame without IPv4 misses an exact 255.255.255.255 rule" (fun () ->
        (* The reference projected a missing address to -1l, which is
           255.255.255.255, so it sent this ARP request out of port 1. *)
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          Flow_table.add (Pipeline.table p 0) ~now_ns:0
            (Flow_entry.make ~priority:10
               ~match_:
                 Of_match.(any |> ip_dst (Ipv4_addr.Prefix.make Ipv4_addr.broadcast 32))
               [ Flow_entry.Apply_actions [ Of_action.output 1 ] ]);
          p
        in
        let pkt =
          Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        let dp = Eswitch.create (mk ()) in
        let got, _ = dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt in
        check Alcotest.string "eswitch = oracle"
          (Diff.render_result (Check.Oracle.execute (mk ()) ~now_ns:0 ~in_port:0 pkt))
          (Diff.render_result got);
        check Alcotest.bool "table miss" true got.Pipeline.table_miss);
  ]

let suite =
  [
    ("softswitch.equivalence", equivalence_tests);
    ("softswitch.random_equivalence", random_equivalence_tests);
    ("softswitch.eswitch_reference", eswitch_reference_tests);
    ("softswitch.caches", cache_tests);
    ("softswitch.pmd", pmd_tests);
    ("softswitch.agent", agent_tests);
  ]
