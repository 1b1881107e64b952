(** Network nodes: anything with ports that sends and receives frames
    (hosts, legacy switches, software-switch servers).

    A node's behaviour is its {e handler}, invoked whenever a frame is
    delivered to one of its ports.  Transmission goes out through whatever
    a {!Link} attached to the port. *)

type t

type handler = t -> in_port:int -> Netpkt.Packet.t -> unit

val create : Engine.t -> name:string -> ports:int -> t
(** A node with ports numbered [0 .. ports-1] and a no-op handler.
    @raise Invalid_argument if [ports < 0]. *)

val name : t -> string
val engine : t -> Engine.t
val port_count : t -> int

val add_ports : t -> int -> int
(** [add_ports t n] appends [n] fresh ports, returning the index of the
    first new one. *)

val set_handler : t -> handler -> unit

val transmit : t -> port:int -> Netpkt.Packet.t -> unit
(** Send a frame out of [port].  If nothing is attached the frame is
    dropped and counted under ["tx_drop_unattached"].
    @raise Invalid_argument on a bad port number. *)

val deliver : t -> port:int -> Netpkt.Packet.t -> unit
(** Hand a frame to the node as if it arrived on [port]; links call this,
    and tests may too.  Runs taps, updates counters, then the handler. *)

val attach : t -> port:int -> (Netpkt.Packet.t -> unit) -> unit
(** Wire the port's transmit side to a link endpoint.  Used by {!Link}.
    @raise Invalid_argument if already attached. *)

val detach : t -> port:int -> unit
val attached : t -> port:int -> bool

val set_carrier : t -> port:int -> bool -> unit
(** Force the port's carrier signal (default up).  Dropping carrier on an
    attached port fires the {!on_attachment_change} watchers with
    [up = false] — the same signal a cable pull produces — and makes
    {!transmit} drop frames (counted ["tx_drop_no_carrier"]).  Faults use
    this to take a link down without tearing the attachment itself off,
    so the link can come back later. *)

val carrier : t -> port:int -> bool
(** [attached] and carrier up. *)

val counters : t -> Stats.Counter.t
(** Per-node named counters: the totals ["rx"] and ["tx"], and drop
    reasons.  Per-port counts are not named here; see
    {!port_counters}. *)

type port_counters = {
  rx_packets : int;
  tx_packets : int;
  rx_bytes : int;  (** wire sizes — what OpenFlow port stats report *)
  tx_bytes : int;
}

val port_counters : t -> port:int -> port_counters
(** Frames delivered to and sent out of [port], and their bytes, kept
    in per-port int arrays so counting a frame formats and hashes no
    name.  Frames dropped on transmit are not counted here.
    @raise Invalid_argument on a bad port number. *)

type direction = Rx | Tx

val add_tap : t -> (direction -> int -> Netpkt.Packet.t -> unit) -> unit
(** Observe every frame the node receives or transmits (direction, port,
    frame).  Taps run before the handler and must not modify state other
    than their own. *)

val on_attachment_change : t -> (port:int -> up:bool -> unit) -> unit
(** Notify whenever a port is attached to or detached from a link — the
    simulator's carrier-detect signal.  Fires on {!attach} and {!detach}
    (links detach both ends on disconnect). *)
