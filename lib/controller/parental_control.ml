open Netpkt
open Openflow

type t = {
  sites : (string * Ipv4_addr.t) list;
  mutable blocked : (Ipv4_addr.t * string) list;
  (* Verdicts of sniffed requests: (user, host, server) — the server
     stays blocked for the user until the host is unblocked. *)
  mutable pinned : (Ipv4_addr.t * string * Ipv4_addr.t) list;
  mutable live : Policy_app.t option;
  mutable sniffed_drops : int;
}

let create ?(sites = []) ~blocked () =
  { sites; blocked; pinned = []; live = None; sniffed_drops = 0 }

let is_blocked t ~user ~host =
  List.exists
    (fun (u, h) -> Ipv4_addr.equal u user && String.equal h host)
    t.blocked

let blocked_list t = t.blocked
let sniffed_drops t = t.sniffed_drops

let site_ip t host =
  List.find_map
    (fun (h, ip) -> if String.equal h host then Some ip else None)
    t.sites

(* Users with at least one blocked host we cannot resolve need the
   controller to see their HTTP requests. *)
let needs_sniffing t user =
  List.exists
    (fun (u, h) -> Ipv4_addr.equal u user && Option.is_none (site_ip t h))
    t.blocked

let users t = List.sort_uniq Ipv4_addr.compare (List.map fst t.blocked)

let drop_pred ~user ~site =
  let open Policy.Syntax in
  conj
    [
      eth_type_is 0x0800;
      ip_proto_is 6;
      ip_src_is user;
      ip_dst_is site;
      l4_dst_is 80;
    ]

let blocked_pred t =
  let open Policy.Syntax in
  disj
    (List.concat_map
       (fun user ->
         List.filter_map
           (fun (u, host) ->
             if Ipv4_addr.equal u user then
               Option.map (fun site -> drop_pred ~user ~site) (site_ip t host)
             else None)
           t.blocked)
       (users t)
    @ List.map (fun (user, _, site) -> drop_pred ~user ~site) t.pinned)

let sniff_pred t =
  let open Policy.Syntax in
  disj
    (List.filter_map
       (fun user ->
         if needs_sniffing t user then
           Some
             (conj
                [
                  eth_type_is 0x0800;
                  ip_proto_is 6;
                  ip_src_is user;
                  l4_dst_is 80;
                ])
         else None)
       (users t))

let fragment t =
  let open Policy.Syntax in
  seq
    (filter (And (Not (blocked_pred t), sniff_pred t)))
    (to_controller ())

let enforce t forwarding =
  let open Policy.Syntax in
  seq
    (filter (neg (blocked_pred t)))
    (orelse (seq (filter (sniff_pred t)) (to_controller ())) forwarding)

let refresh t ctrl =
  Option.iter (fun live -> Policy_app.update live ctrl) t.live

let app t live ~l2 =
  t.live <- Some live;
  let packet_in ctrl dpid ~in_port _reason (pkt : Packet.t) =
    match pkt.Packet.l3 with
    | Packet.Ip { Ipv4.src; dst; payload = Ipv4.Tcp seg; _ }
      when seg.Tcp.dst_port = 80 -> (
        match Http_lite.host_of_payload seg.Tcp.payload with
        | Some host when is_blocked t ~user:src ~host ->
            t.sniffed_drops <- t.sniffed_drops + 1;
            (* Pin the verdict so later packets of this flow drop in the
               dataplane; the request itself dies here. *)
            if not (List.mem (src, host, dst) t.pinned) then begin
              t.pinned <- t.pinned @ [ (src, host, dst) ];
              refresh t ctrl
            end;
            true
        | Some _ | None ->
            let out =
              match
                List.find_opt (fun (mac, _) -> Mac_addr.equal mac pkt.Packet.dst) l2
              with
              | Some (_, port) -> Of_action.output port
              | None -> Of_action.Output Of_action.Flood
            in
            Controller.packet_out ctrl dpid ~in_port ~actions:[ out ] pkt;
            true)
    | Packet.Ip _ | Packet.Arp _ | Packet.Raw _ -> false
  in
  { (Controller.no_op_app "parental-control") with Controller.packet_in }

let block t ctrl ~user ~host =
  if not (is_blocked t ~user ~host) then begin
    t.blocked <- (user, host) :: t.blocked;
    refresh t ctrl
  end

let unblock t ctrl ~user ~host =
  if is_blocked t ~user ~host then begin
    let entry u h = Ipv4_addr.equal u user && String.equal h host in
    t.blocked <- List.filter (fun (u, h) -> not (entry u h)) t.blocked;
    t.pinned <- List.filter (fun (u, h, _) -> not (entry u h)) t.pinned;
    refresh t ctrl
  end
