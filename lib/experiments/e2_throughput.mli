(** E2 — "no major performance penalty": offered vs delivered throughput
    across frame sizes for legacy, COTS hardware and three HARMLESS
    dataplanes. *)

type row = {
  deployment : string;
  frame : int;
  offered_pps : float;
  delivered_pps : float;
  delivered_bps : float;
  loss : float;
}

val num_hosts : int

val build_legacy : unit -> Harmless.Deployment.t
(** Pre-migration baseline with warmed MAC tables. *)

val build_cots : unit -> Harmless.Deployment.t
(** Hardware-dataplane OpenFlow switch with proactive forwarding. *)

val build_harmless :
  ?extra_apps:Sdnctl.Controller.app list ->
  Softswitch.Soft_switch.dataplane_kind ->
  unit ->
  Harmless.Deployment.t

val rows : unit -> row list
val run : unit -> row list
