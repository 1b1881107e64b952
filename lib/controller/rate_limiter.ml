open Netpkt
open Openflow

type limit = {
  subject : Ipv4_addr.t;
  rate_kbps : int;
  burst_kb : int;
}

let fragment ~limits () =
  let open Policy.Syntax in
  let subject_pred limit =
    conj [ eth_type_is 0x0800; ip_src_is limit.subject ]
  in
  (* Exactly one branch applies per packet: a per-subject meter or the
     unmetered pass-through. *)
  unions
    (List.mapi
       (fun i limit ->
         seq
           (filter (subject_pred limit))
           (police ~meter_id:(i + 1) ~rate_kbps:limit.rate_kbps
              ~burst_kb:limit.burst_kb))
       limits
    @ [ filter (neg (disj (List.map subject_pred limits))) ])

let table1_messages ~num_hosts ?(table_id = 1) () =
  Of_message.Flow_mod
    (Of_message.add_flow ~table_id ~priority:1100
       ~match_:Of_match.(any |> eth_type 0x0806)
       [ Flow_entry.Apply_actions [ Of_action.Output Of_action.Flood ] ])
  :: List.init num_hosts (fun i ->
         Of_message.Flow_mod
           (Of_message.add_flow ~table_id ~priority:1000
              ~match_:Of_match.(any |> eth_dst (Mac_addr.make_local (i + 1)))
              [ Flow_entry.Apply_actions [ Of_action.output i ] ]))

let table1_l2 ~num_hosts =
  let switch_up ctrl dpid =
    Controller.send_all ctrl dpid (table1_messages ~num_hosts ())
  in
  { (Controller.no_op_app "table1-l2") with Controller.switch_up }
