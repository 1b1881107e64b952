(** A bandwidth-policing application — one more "standalone hardware
    appliance" (a traffic policer) the paper's demo argues HARMLESS can
    absorb into the network.

    Each policy entry caps one source host's IP traffic with an OpenFlow
    meter.  The app is a pass-through policy fragment sequenced before a
    forwarding policy and installed through {!Policy_app}; {!table1_l2}
    is a separate table-1 forwarding app for controllers that keep
    table 0 to themselves (see {!Dns_guard}). *)

type limit = {
  subject : Netpkt.Ipv4_addr.t;  (** source host to police *)
  rate_kbps : int;
  burst_kb : int;
}

val fragment : limits:limit list -> unit -> Policy.Syntax.t
(** The metering stage as a pass-through policy fragment: each subject's
    IP traffic goes through [Police] with meter id [index + 1];
    everything else passes unmetered.  Sequence it before a forwarding
    policy chained [orelse discard], so traffic the forwarding drops
    still bills the meter.  Subjects must be distinct — a duplicate
    subject would meter a packet twice. *)

val table1_l2 : num_hosts:int -> Controller.app
(** A proactive destination-MAC forwarding app for {e table 1}, matching
    the {!Harmless.Deployment} host conventions — the forwarding layer
    under a table-0 app such as {!Dns_guard}. *)
