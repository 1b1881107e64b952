(** An ESwitch-like dataplane (Molnár et al., SIGCOMM 2016 — the software
    switch the HARMLESS demo ran): the flow table is {e compiled} into a
    small set of specialized matchers ("templates").

    Entries whose match tests a set of fields exactly are grouped per
    field-set into a template; the few entries with prefixes, masks or
    presence-tests fall into a residual list.  A lookup probes each
    template (one hash probe each) plus the residual, then keeps the
    highest-priority candidate.  Since real OpenFlow programs use a
    handful of rule shapes, the per-packet cost is near-constant in the
    number of rules — the property experiment E5 reproduces.

    A template files each entry under {!key_hash} of its tested values
    in a power-of-two bucket array of int-keyed slots.  A probe hashes
    the packet's values field by field, straight from
    [Netpkt.Packet.Fields.t], and confirms a candidate against the
    slot's stored values, so a warm lookup allocates nothing beyond what
    [Openflow.Pipeline.execute_with] itself does.

    The compilation is redone whenever the pipeline version changes;
    stats expose ["recompiles"], ["templates"], ["packets"]. *)

val create : Openflow.Pipeline.t -> Dataplane.t

val key_hash : int array -> int
(** The hash a template files an entry under.  The array holds the
    entry's tested values in field order: in_port, eth_dst, eth_src,
    eth_type, VLAN id, VLAN PCP, ip_src, ip_dst, ip_proto, ip_tos,
    l4_src, l4_dst — MACs as 48-bit ints ({!Netpkt.Mac_addr.to_int}),
    IPv4 addresses unsigned.  Entries whose values hash equal share a
    bucket and are told apart by their stored values. *)
