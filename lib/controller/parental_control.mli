(** Use case (c) of the paper: per-user web-page blocking, changeable
    on-the-fly.

    Two enforcement paths, both part of the policy term ({!enforce}):
    - {b proactive}: when the blocked site's address is known (it appears
      in [sites]), the (user, site, TCP/80) traffic is dropped;
    - {b reactive}: otherwise the user's HTTP traffic is steered to the
      controller, which sniffs the [Host] header of each GET; a blocked
      request is dropped and its (user, server) pair pinned into the
      drop set, an allowed one is sent on.

    {!block} and {!unblock} update a running deployment through the
    {!Policy_app} update path — the "deny access on-the-fly" part of the
    demo. *)

type t
(** The app's mutable control handle. *)

val create :
  ?sites:(string * Netpkt.Ipv4_addr.t) list ->
  blocked:(Netpkt.Ipv4_addr.t * string) list ->
  unit ->
  t
(** [sites] maps hostnames to server addresses (the controller's "DNS").
    [blocked] is the initial (user-IP, hostname) deny list. *)

val fragment : t -> Policy.Syntax.t
(** The app alone as a policy fragment:
    [filter (not blocked && sniff); to_controller].  Drops are absence
    here; {!enforce} makes them explicit in front of a forwarding
    policy. *)

val enforce : t -> Policy.Syntax.t -> Policy.Syntax.t
(** [enforce t forwarding]: blocked traffic dropped, sniffed HTTP to the
    controller, everything else handed to [forwarding]. *)

val app :
  t -> Policy_app.t -> l2:(Netpkt.Mac_addr.t * int) list -> Controller.app
(** The sniffing half: handles the HTTP packet-ins the {!fragment}
    sends to the controller.  The {!Policy_app.t} must be the installed
    policy that {!enforce}s this handle; {!block}, {!unblock} and pinned
    verdicts update it.  An allowed sniffed request is sent out of the
    port [l2] (the policy's L2 band) gives its destination MAC, or
    flooded if the MAC is not listed. *)

val block : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Add a deny entry and push the updated policy. *)

val unblock : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Remove the entry, and the verdicts pinned for it, and push the
    updated policy. *)

val blocked_list : t -> (Netpkt.Ipv4_addr.t * string) list
val sniffed_drops : t -> int
(** Requests dropped via the reactive (Host-sniffing) path. *)
