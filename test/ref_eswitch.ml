(* The ESwitch dataplane as it shipped before its templates were probed
   through int-keyed buckets, kept as a differential reference: each
   template projects the packet onto a 12-field [key] record and probes
   a polymorphic [Hashtbl]; the residual goes through [Of_match.matches].
   [Softswitch.Eswitch] must give exactly what this gives: the same
   result and the same [(result, cycles)]. *)

open Netpkt
open Openflow

(* A template: the set of fields a group of entries all test exactly. *)
type tsig = {
  t_in_port : bool;
  t_eth_dst : bool;
  t_eth_src : bool;
  t_eth_type : bool;
  t_vlan_vid : bool;
  t_vlan_pcp : bool;
  t_ip_src : bool;
  t_ip_dst : bool;
  t_ip_proto : bool;
  t_ip_tos : bool;
  t_l4_src : bool;
  t_l4_dst : bool;
}

(* The projected key for a template: absent components are normalized so
   equal projections hash equally. *)
type key = {
  k_in_port : int;
  k_eth_dst : Mac_addr.t;
  k_eth_src : Mac_addr.t;
  k_eth_type : int;
  k_vlan_vid : int;
  k_vlan_pcp : int;
  k_ip_src : int32;
  k_ip_dst : int32;
  k_ip_proto : int;
  k_ip_tos : int;
  k_l4_src : int;
  k_l4_dst : int;
}

let full_mac_mask m = Mac_addr.equal m.Of_match.mask Mac_addr.broadcast

(* Classify a match: Some (sig, key) if every test is an exact full-field
   test, None if it needs the residual scan path. *)
let exact_signature (m : Of_match.t) =
  let ok = ref true in
  let t_eth_dst, k_eth_dst =
    match m.Of_match.eth_dst with
    | None -> (false, Mac_addr.zero)
    | Some mt ->
        if full_mac_mask mt then (true, mt.Of_match.value)
        else begin ok := false; (false, Mac_addr.zero) end
  in
  let t_eth_src, k_eth_src =
    match m.Of_match.eth_src with
    | None -> (false, Mac_addr.zero)
    | Some mt ->
        if full_mac_mask mt then (true, mt.Of_match.value)
        else begin ok := false; (false, Mac_addr.zero) end
  in
  let t_vlan_vid, k_vlan_vid =
    match m.Of_match.vlan with
    | None -> (false, -1)
    | Some (Of_match.Vid v) -> (true, v)
    | Some (Of_match.Absent | Of_match.Present) ->
        ok := false;
        (false, -1)
  in
  let prefix_exact p =
    if Ipv4_addr.Prefix.length p = 32 then
      Some (Ipv4_addr.to_int32 (Ipv4_addr.Prefix.base p))
    else begin ok := false; None end
  in
  let t_ip_src, k_ip_src =
    match Option.map prefix_exact m.Of_match.ip_src with
    | None -> (false, 0l)
    | Some (Some ip) -> (true, ip)
    | Some None -> (false, 0l)
  in
  let t_ip_dst, k_ip_dst =
    match Option.map prefix_exact m.Of_match.ip_dst with
    | None -> (false, 0l)
    | Some (Some ip) -> (true, ip)
    | Some None -> (false, 0l)
  in
  let opt_int o = match o with None -> (false, -1) | Some v -> (true, v) in
  let t_in_port, k_in_port = opt_int m.Of_match.in_port in
  let t_eth_type, k_eth_type = opt_int m.Of_match.eth_type in
  let t_vlan_pcp, k_vlan_pcp = opt_int m.Of_match.vlan_pcp in
  let t_ip_proto, k_ip_proto = opt_int m.Of_match.ip_proto in
  let t_ip_tos, k_ip_tos = opt_int m.Of_match.ip_tos in
  let t_l4_src, k_l4_src = opt_int m.Of_match.l4_src in
  let t_l4_dst, k_l4_dst = opt_int m.Of_match.l4_dst in
  if not !ok then None
  else
    Some
      ( {
          t_in_port;
          t_eth_dst;
          t_eth_src;
          t_eth_type;
          t_vlan_vid;
          t_vlan_pcp;
          t_ip_src;
          t_ip_dst;
          t_ip_proto;
          t_ip_tos;
          t_l4_src;
          t_l4_dst;
        },
        {
          k_in_port;
          k_eth_dst;
          k_eth_src;
          k_eth_type;
          k_vlan_vid;
          k_vlan_pcp;
          k_ip_src;
          k_ip_dst;
          k_ip_proto;
          k_ip_tos;
          k_l4_src;
          k_l4_dst;
        } )

(* Project a packet's fields onto a template's tested set. *)
let project (sig_ : tsig) ~in_port (f : Packet.Fields.t) =
  let or_else default = function Some v -> v | None -> default in
  {
    k_in_port = (if sig_.t_in_port then in_port else -1);
    k_eth_dst = (if sig_.t_eth_dst then f.Packet.Fields.eth_dst else Mac_addr.zero);
    k_eth_src = (if sig_.t_eth_src then f.Packet.Fields.eth_src else Mac_addr.zero);
    k_eth_type = (if sig_.t_eth_type then f.Packet.Fields.eth_type else -1);
    k_vlan_vid = (if sig_.t_vlan_vid then or_else (-2) f.Packet.Fields.vlan_vid else -1);
    k_vlan_pcp = (if sig_.t_vlan_pcp then or_else (-2) f.Packet.Fields.vlan_pcp else -1);
    k_ip_src =
      (if sig_.t_ip_src then
         match f.Packet.Fields.ip_src with
         | Some ip -> Ipv4_addr.to_int32 ip
         | None -> -1l
       else 0l);
    k_ip_dst =
      (if sig_.t_ip_dst then
         match f.Packet.Fields.ip_dst with
         | Some ip -> Ipv4_addr.to_int32 ip
         | None -> -1l
       else 0l);
    k_ip_proto = (if sig_.t_ip_proto then or_else (-2) f.Packet.Fields.ip_proto else -1);
    k_ip_tos = (if sig_.t_ip_tos then or_else (-2) f.Packet.Fields.ip_tos else -1);
    k_l4_src = (if sig_.t_l4_src then or_else (-2) f.Packet.Fields.l4_src else -1);
    k_l4_dst = (if sig_.t_l4_dst then or_else (-2) f.Packet.Fields.l4_dst else -1);
  }

(* A projected key can collide with a rule key through the [-2]
   "field absent in packet" sentinels only if some rule legitimately
   stores -2, which opt_int never produces; so probe hits are exact. *)

type template = { sig_ : tsig; index : (key, int * Flow_entry.t) Hashtbl.t }

type compiled_table = {
  templates : template list;
  residual : (int * Flow_entry.t) list; (* table order: best-first *)
}

let compile_table table =
  let templates : (tsig, template) Hashtbl.t = Hashtbl.create 8 in
  let residual = ref [] in
  List.iteri
    (fun order entry ->
      match exact_signature entry.Flow_entry.match_ with
      | None -> residual := (order, entry) :: !residual
      | Some (sig_, key) ->
          let template =
            match Hashtbl.find_opt templates sig_ with
            | Some template -> template
            | None ->
                let template = { sig_; index = Hashtbl.create 64 } in
                Hashtbl.replace templates sig_ template;
                template
          in
          (* Keep the best (earliest in table order) entry per key. *)
          (match Hashtbl.find_opt template.index key with
          | Some (existing, _) when existing < order -> ()
          | Some _ | None -> Hashtbl.replace template.index key (order, entry)))
    (Flow_table.entries table);
  {
    templates = Hashtbl.fold (fun _ template acc -> template :: acc) templates [];
    residual = List.rev !residual;
  }

let create pipeline =
  let compiled = ref [||] in
  let seen_version = ref (-1) in
  let recompiles = ref 0 in
  let packets = ref 0 in
  let recompile () =
    compiled :=
      Array.init (Pipeline.num_tables pipeline) (fun i ->
          compile_table (Pipeline.table pipeline i));
    incr recompiles
  in
  let probes = ref 0 in
  let residual_scans = ref 0 in
  let lookup table_id ~in_port fields =
    let ct = !compiled.(table_id) in
    let best = ref None in
    let consider order entry =
      match !best with
      | Some (existing, _) when existing <= order -> ()
      | Some _ | None -> best := Some (order, entry)
    in
    List.iter
      (fun template ->
        incr probes;
        match Hashtbl.find_opt template.index (project template.sig_ ~in_port fields) with
        | Some (order, entry) -> consider order entry
        | None -> ())
      ct.templates;
    List.iter
      (fun (order, entry) ->
        incr residual_scans;
        if Of_match.matches entry.Flow_entry.match_ ~in_port fields then
          consider order entry)
      ct.residual;
    Option.map snd !best
  in
  let process ~now_ns ~in_port pkt =
    let v = Pipeline.version pipeline in
    if v <> !seen_version then begin
      seen_version := v;
      recompile ()
    end;
    incr packets;
    probes := 0;
    residual_scans := 0;
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt in
    let cycles =
      Softswitch.Dataplane.Cost.parse
      + (!probes * Softswitch.Dataplane.Cost.eswitch_template)
      + (!residual_scans * Softswitch.Dataplane.Cost.linear_per_entry)
      + Softswitch.Dataplane.cycles_of_result result
    in
    (result, cycles)
  in
  let stats () =
    let template_count =
      Array.fold_left
        (fun acc ct -> acc + List.length ct.templates)
        0 !compiled
    in
    [
      ("packets", !packets);
      ("recompiles", !recompiles);
      ("templates", template_count);
    ]
  in
  { Softswitch.Dataplane.name = "ref-eswitch"; process; stats; tier = (fun () -> "specialized") }
