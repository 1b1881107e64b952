(** Use case (b) of the paper: DMZ-style VM-level access policies in a
    multi-tenant cloud.  The controller knows where each VM sits (IP,
    MAC, switch port) and an allow-list of VM pairs; the app is a policy
    fragment, installed proactively through {!Policy_app}:

    - each allowed (a, b) pair is forwarded in both directions;
    - ARP floods (hosts must resolve each other);
    - all remaining traffic is dropped by the compiled table's
      catch-all. *)

type vm = {
  vm_ip : Netpkt.Ipv4_addr.t;
  vm_mac : Netpkt.Mac_addr.t;
  vm_port : int;
}

type policy = {
  vms : vm list;
  allowed : (Netpkt.Ipv4_addr.t * Netpkt.Ipv4_addr.t) list;
      (** unordered pairs; traffic is allowed both ways *)
}

val fragment :
  policy -> ?in_ports:int list -> unit -> Policy.Syntax.t
(** The app: a union of pair forwards plus the ARP flood, scoped to
    the [in_ports] ingress ports when given so it can share a switch
    with other apps.  The default-deny fence is implicit — unmatched
    packets already produce the empty set.
    @raise Invalid_argument if an allowed pair names an unknown VM. *)

val allows : policy -> Netpkt.Ipv4_addr.t -> Netpkt.Ipv4_addr.t -> bool
(** Whether the policy permits traffic between two addresses (symmetric;
    used by tests as the ground truth). *)
