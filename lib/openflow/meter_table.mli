(** OpenFlow meter table: per-flow rate policing via token buckets.

    Only the drop band type is modelled (OFPMBT_DROP) — the one the
    "replace a standalone policer appliance" use case needs.  Token
    buckets are refilled lazily from the packet timestamps, so the meters
    are exact in simulated time with no periodic events. *)

type band = { rate_kbps : int; burst_kb : int }

type t

val create : unit -> t

val add : t -> id:int -> band -> unit
(** @raise Invalid_argument if the id exists or the band has a
    non-positive rate or burst. *)

val modify : t -> id:int -> band -> unit
(** Replaces the band and resets the bucket. @raise Not_found if absent. *)

val remove : t -> id:int -> unit

val clear : t -> unit
(** Remove every meter. *)

val mem : t -> id:int -> bool
val size : t -> int

val band : t -> id:int -> band option
(** A meter's band as installed. *)

val apply : t -> id:int -> now_ns:int -> bytes:int -> [ `Pass | `Drop ]
(** Offer a packet of [bytes] to meter [id] at [now_ns].  Unknown meters
    pass (matching OpenFlow's behaviour of treating a dangling meter
    instruction as a no-op once the meter is deleted). *)

val stats : t -> id:int -> (int * int) option
(** (passed, dropped) packet counts. *)
