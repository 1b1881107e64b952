(** Use case (a) of the paper: an in-network load balancer.  Ingress web
    traffic addressed to a virtual IP is spread over backends by flow
    hash (a [Select] group, so a flow's packets stick to one
    backend — the "matching of the source IP address" behaviour of the
    demo), with destination MAC/IP rewritten per backend; return traffic
    is rewritten back to the VIP and sent to the ingress port. *)

type backend = {
  backend_mac : Netpkt.Mac_addr.t;
  backend_ip : Netpkt.Ipv4_addr.t;
  backend_port : int;  (** switch port the backend is reached through *)
}

val fragment :
  vip_ip:Netpkt.Ipv4_addr.t ->
  vip_mac:Netpkt.Mac_addr.t ->
  ingress_port:int ->
  backends:backend list ->
  ?vip_in_ports:int list ->
  unit ->
  Policy.Syntax.t
(** The app as a policy fragment, installed through {!Policy_app}: VIP
    traffic hash-balanced over the backends ([Balance], compiled to a
    [Select] group), return-traffic rewrites as the fallback branch, and
    ARP flooded on the app's own ports.  [vip_in_ports] scopes the VIP
    branch to those ingress ports — the return branch is already
    port-scoped by construction.
    @raise Invalid_argument on an empty backend list. *)
