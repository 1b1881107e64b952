(** The flight recorder: one bounded recorder for per-packet {e hops}
    and control-plane {e events}.

    Every forwarding component (host NIC, legacy switch, soft switch,
    controller) emits hops with {!emit}; every control-plane subsystem
    (channel connect/drop/reconnect, retry attempts, WAL appends,
    migration stage boundaries, failover activations, poller rounds,
    fault injections, alert transitions) emits typed, leveled events
    with {!event}.  Both land in the one installed {!Collector}, which
    stamps them from one sequence counter and one clock.

    The default state is {e off}: no recorder installed, and a call site
    guarded by {!enabled} pays one ref read and allocates exactly zero
    minor words (pinned by tests).

    {2 Retention}

    Events are kept in one bounded ring per stream, so a chatty
    subsystem (per-message channel drops under loss) can never evict
    the quiet one that holds the root cause (the single fault
    injection).  Hops are kept until {!Collector.clear}: the profiles
    and dashboards fold every hop of a run.  A hop is cheap (a few
    dozen minor words): it holds the frame itself, rendered only when
    a report asks for text, and usually reuses the previous hop's key.
    Bounding hops in a per-component ring is still open, because it
    would change the profiles that fold every hop.

    {2 Correlation}

    Packets are immutable values, copied and re-tagged as they cross
    the fabric, so hops correlate on {!key_of_packet} — a hash of the
    frame with its VLAN stack stripped.  The HARMLESS tag
    push/pop/rewrite path preserves the key; L3-header rewrites start a
    new trace and byte-identical frames share one.  Each recorder
    remembers the last frame it keyed: a frame whose [dst], [src] and
    [l3] are physically those of that frame (a re-tagged copy) reuses
    its key, anything else is hashed afresh, so every [trace_key] is
    exactly {!key_of_packet} of the hop's frame.

    Events carry a correlation id: a plain int, [0] meaning
    "uncorrelated".  Instrumentation derives ids deterministically from
    stable names via {!corr_of_string} (a migration machine uses its
    txn id, a channel its switch name, an alert rule its rule name), so
    a same-seed rerun produces the same ids.  Packet-correlated events
    use {!key_of_packet} directly, which is what joins a control-plane
    decision to the hops of the packet that triggered it.

    {2 Cycle model}

    Every hop site reports a modelled per-packet processing cost via
    [~cycles] — either a measured value, a fixed estimate, or an
    {e explicit} [0] meaning "free by design in this model", never an
    accidental default.  Costs are CPU-equivalent cycles at the trace
    clock (the PMD's configured frequency, 2.6 GHz by default; for the
    legacy ASIC they are CPU-equivalent figures, not real ASIC cycles).
    The current model:

    - Host [tx]/[rx]: [0] — endpoint stack cost is out of scope.
    - Legacy [ingress]: [90] (VLAN classify + MAC learn + lookup);
      [tag_push]/[tag_pop]: [12] each (one 802.1Q rewrite);
      [egress] (delivery that never carried a tag): [0].
    - Soft switch [rx]: the PMD's [per_packet_io_cycles] (50 by
      default), consistent with the capacity model;
      [pipeline]: the dataplane's {e measured} lookup cycles;
      [tx]: [20] (egress queueing); [punt]: [150] (Packet_in
      encapsulation); [standalone]: [120] (local L2 slow path);
      [drop] (rx ring full): [0] — the cost was never spent.
    - Controller [packet_in]/[packet_out]: [0] — control-plane CPU is
      not part of the datapath model (its latency shows up in
      sim-time, not cycles).

    Profile/flame-graph tooling treats [cycles = 0] as "no self cost",
    so stages stay visible in traces without skewing attribution. *)

type layer =
  | Host
  | Legacy       (** the legacy Ethernet switch dataplane *)
  | Switch       (** a software (or hardware-model) OpenFlow switch *)
  | Controller
  | Manager
  | Other of string

val layer_name : layer -> string

type hop = {
  seq : int;            (** per-recorder emission order, 1-based *)
  ts_ns : int;          (** sim-time timestamp *)
  component : string;   (** emitting node, e.g. ["legacy0"], ["sw-ss1"] *)
  layer : layer;
  stage : string;       (** e.g. ["ingress"], ["tag_push"], ["pipeline"] *)
  port : int option;    (** port involved, when meaningful *)
  trace_key : int;
  packet : Netpkt.Packet.t;
      (** the frame as emitted (frames are immutable, so the hop keeps
          a reference); reports render it with [Netpkt.Packet.pp] *)
  bytes : int;          (** wire size *)
  cycles : int;         (** processing cost, 0 when not modelled *)
  words : int;
      (** cumulative minor-heap words ([Gc.minor_words]) captured at
          emission; consecutive hops' deltas attribute real allocation
          to stages (the recorder's own tax included), exactly as
          timestamps attribute latency.  [0] in hand-built hops that
          never went through {!emit}. *)
  detail : string;
}

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  seq : int;  (** per-recorder emission order, shared with hops *)
  ts_ns : int;
  level : level;
  stream : string;  (** emitting subsystem, a token: ["channel"], ["txn"], … *)
  name : string;  (** short verb token: ["reconnect"], ["rollback"], … *)
  corr : int;  (** correlation id; [0] = uncorrelated *)
  detail : string;  (** free text, single line *)
}

type trace = { key : int; hops : hop list }
(** One packet's life, hops ordered by [(ts_ns, seq)]. *)

val enabled : unit -> bool
(** True iff a recorder is installed.  Instrumentation sites guard
    their emit (and any detail-string formatting) behind this. *)

val key_of_packet : Netpkt.Packet.t -> int
(** The VLAN-stack-invariant correlation key. *)

val corr_of_string : string -> int
(** A stable, non-zero correlation id for a name.  Same hash family as
    {!key_of_packet}, so the two id spaces render identically. *)

val emit :
  ts_ns:int -> component:string -> layer:layer -> stage:string ->
  ?port:int -> ?cycles:int -> ?detail:string -> Netpkt.Packet.t -> unit
(** Record one hop in the installed recorder; a no-op (no allocation
    beyond the caller's arguments) when none is installed. *)

val event :
  ?level:level ->
  ?ts_ns:int ->
  ?corr:int ->
  ?detail:string ->
  stream:string ->
  string ->
  unit
(** [event ~stream name] records one control event ([level] defaults
    to [Info], [corr] to [0], [ts_ns] to the recorder's clock); a no-op
    when no recorder is installed.  Newlines in [detail] become spaces
    (events are single lines).
    @raise Invalid_argument if [stream] or [name] is empty or contains
    whitespace — they must be tokens. *)

(** The recorder: hops kept until {!Collector.clear}, events in one
    bounded ring per stream, one sequence counter for both. *)
module Collector : sig
  type t

  val create : ?stream_capacity:int -> ?clock:(unit -> int) -> unit -> t
  (** A fresh recorder.  Each event stream keeps at most
      [stream_capacity] events (default 512); older ones are evicted
      and counted in {!dropped}.  [clock] stamps events recorded
      without [~ts_ns] (default: always [0]); rigs pass their engine's
      clock.  @raise Invalid_argument if [stream_capacity < 2]. *)

  val install : t -> unit
  (** Make this the process-wide recorder. *)

  val uninstall : t -> unit
  (** Remove the recorder if [t] is the one installed. *)

  val clear : t -> unit
  (** Forget every hop and event, and restart the sequence at 1. *)

  val last_seq : t -> int
  (** The sequence number of the newest hop or event ([0] when empty):
      a watermark for {!traces}' [after]. *)

  val hops : t -> hop list
  (** In emission order. *)

  val traces : ?after:int -> t -> trace list
  (** Hops grouped per packet, traces ordered by first appearance;
      with [after], only hops whose [seq] is greater. *)

  val events : ?stream:string -> ?min_level:level -> t -> event list
  (** The retained events, merged across streams in [(ts_ns, seq)]
      order, optionally restricted to one stream and/or to levels at or
      above [min_level]. *)

  val streams : t -> string list
  (** Streams that have recorded at least one event, sorted. *)

  val recorded : t -> int
  (** Events ever recorded, including evicted ones. *)

  val dropped : t -> int
  (** Events evicted by ring wrap-around. *)
end

val with_collector :
  ?stream_capacity:int ->
  ?clock:(unit -> int) ->
  (Collector.t -> 'a) ->
  'a * trace list
(** Run [f] with a fresh recorder installed, restoring the previously
    installed one afterwards (also on exceptions); returns [f]'s result
    and the assembled traces. *)

val event_to_string : event -> string
(** ["event <seq> <ts_ns> <level> <stream> <corr-hex8> <name> [detail]"]
    — the snapshot line format, parsed back by {!event_of_string}. *)

val event_of_string : string -> (event, string) result
(** Accepts exactly the lines {!event_to_string} writes. *)

val pp_time : Format.formatter -> int -> unit
(** Nanoseconds, human-readable (["12.500us"]). *)

val pp_hop : Format.formatter -> hop -> unit
val pp_trace : Format.formatter -> trace -> unit

val pp_event : Format.formatter -> event -> unit
(** Human-readable: time, level, stream.name, corr, detail. *)
