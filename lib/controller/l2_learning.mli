(** The classic reactive L2-learning controller application: learn source
    MAC → port from packet-ins, install an exact destination-MAC flow once
    the destination is known, flood otherwise.  The reactive forwarding
    layer of the demos and rigs; compiled use-case apps carry the
    proactive {!Policy_app.l2_band} instead, because their total tables
    leave nothing for a learning app to see. *)

val create : ?priority:int -> ?idle_timeout_s:int -> unit -> Controller.app
(** Defaults: priority 1000, 300 s idle timeout on installed flows.
    Reacts to port-down events by flushing the addresses learned behind
    the port and withdrawing the flows that output to it. *)
