(** Priority queue of timestamped events (binary min-heap).

    Ties are broken by insertion order, so events scheduled for the same
    instant run in FIFO order — important for deterministic replays. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty queue.  [filler] takes the place of each
    popped value in the heap, so the queue keeps no popped value
    reachable. *)

val length : 'a t -> int
val push : 'a t -> Sim_time.t -> 'a -> unit

val top_time : 'a t -> Sim_time.t
(** Time of the earliest event.
    @raise Invalid_argument when the queue is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its value.
    @raise Invalid_argument when the queue is empty. *)

val clear : 'a t -> unit
