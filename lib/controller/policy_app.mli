(** The one way an SS_2 app reaches the dataplane: a policy term,
    compiled into a single flow table ({!Policy.Compile}) and pushed by
    one controller app.

    On switch-up the app installs the compile whole — meters, groups,
    then flows.  A live edit goes through {!update}: the source term is
    recompiled and each datapath receives only the difference against
    the compile it last got, so a rule that did not change is never
    touched and the table never loses its priority-0 catch-all (a
    wipe-and-reload would send every packet to a table miss for the
    length of the reload). *)

type t
(** A live compiled policy: its source, its current compile, and per
    datapath the compile last installed there. *)

val live : name:string -> (unit -> Policy.Syntax.t) -> t
(** Compile [source ()] into table 0 now.  The source is re-read on
    every {!update}, so apps keep their state in their own handles and
    the term is rebuilt from it.
    @raise Invalid_argument as {!Policy.Compile.compile} does. *)

val app : t -> Controller.app
(** Installs the current compile on switch-up.  A datapath that comes
    back (a reconnect re-runs the handshake) already had its state
    replayed by the controller, so it gets only the difference. *)

val update : t -> Controller.t -> unit
(** Recompile the source and push the {!diff} to every datapath the app
    has installed on, in datapath-id order. *)

val compiled : t -> Policy.Compile.t
(** The current compile — what every datapath holds once the last
    {!update} has crossed the control channel. *)

val diff :
  installed:Policy.Compile.t -> Policy.Compile.t -> Openflow.Of_message.t list
(** The messages that turn a table holding [installed] into one holding
    the new compile, in dependency order: meters added or modified by
    id, groups added or modified by id, new or changed flow rules added
    (an add replaces the rule with the same priority and match), flow
    rules that are gone strict-deleted, then groups and meters that are
    gone deleted.  Identical compiles give [[]]. *)

val create : ?name:string -> Policy.Compile.t -> Controller.app
(** The app of a policy nobody updates: {!app} of a {!live} handle whose
    source is the compile's own policy. *)

val l2_band : (Netpkt.Mac_addr.t * int) list -> Policy.Syntax.t
(** The proactive L2 band compiled policies sit on: ARP floods, and a
    frame to one of the listed MACs goes out of its port.  The flood
    outranks the per-MAC forwards ([orelse]), so one broadcast-domain
    rule covers every port.  Compiled tables are total, so a reactive
    learning app cannot sit beneath them; this band is the forwarding
    layer instead. *)
