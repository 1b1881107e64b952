(* Test-side oracle for the traffic plane: exact per-source byte
   rankings read from Stats_poller flow counters.  The sketch-agreement
   tests rank sources with both this and the sampled top-k. *)

open Netpkt
open Openflow

(* One counting rule per tracked (src, dst) pair in table 0, plus an
   untracked default, all continuing to a table-1 forwarding app
   (e.g. Rate_limiter.table1_l2). *)
let pair_counters pairs =
  let switch_up ctrl dpid =
    List.iter
      (fun (src, dst) ->
        Sdnctl.Controller.install ctrl dpid
          (Of_message.add_flow ~priority:3000
             ~match_:
               Of_match.(
                 any
                 |> eth_type 0x0800
                 |> ip_src (Ipv4_addr.Prefix.make src 32)
                 |> ip_dst (Ipv4_addr.Prefix.make dst 32))
             [ Flow_entry.Goto_table 1 ]))
      pairs;
    Sdnctl.Controller.install ctrl dpid
      (Of_message.add_flow ~priority:1 ~match_:Of_match.any
         [ Flow_entry.Goto_table 1 ])
  in
  { (Sdnctl.Controller.no_op_app "pair-counters") with Sdnctl.Controller.switch_up }

(* Sources by cumulative bytes, descending, ties on address ascending:
   every flow matching a /32 ip_src attributes its latest byte counter
   to that source.  Counters are monotonic, so per (poller, rule) the
   largest reading is the freshest. *)
let byte_ranking pollers =
  let per_rule = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun (s : Of_message.flow_stat) ->
          match s.Of_message.stat_match.Of_match.ip_src with
          | Some prefix when Ipv4_addr.Prefix.length prefix = 32 ->
              let key =
                ( Ipv4_addr.Prefix.base prefix,
                  Sdnctl.Stats_poller.dpid p,
                  s.Of_message.stat_table_id,
                  s.Of_message.stat_priority,
                  s.Of_message.stat_match )
              in
              let prev = Option.value (Hashtbl.find_opt per_rule key) ~default:0 in
              Hashtbl.replace per_rule key (max prev s.Of_message.stat_bytes)
          | Some _ | None -> ())
        (Sdnctl.Stats_poller.latest_flows p))
    pollers;
  let per_src = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (src, _, _, _, _) bytes ->
      Hashtbl.replace per_src src
        (bytes + Option.value (Hashtbl.find_opt per_src src) ~default:0))
    per_rule;
  Hashtbl.fold (fun src bytes acc -> (src, bytes) :: acc) per_src []
  |> List.sort (fun (ia, a) (ib, b) ->
         match Int.compare b a with 0 -> Ipv4_addr.compare ia ib | c -> c)
