(** Log-bucketed value histogram (HDR-style): values 0..63 exact, then
    16 sub-buckets per power of two, so <= ~6% relative error.  The one
    histogram of the tree: [Simnet.Stats.Histogram] is this module, and
    each {!Registry.Histogram} series holds one. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record a non-negative sample (nanoseconds by convention).
    @raise Invalid_argument on a negative sample. *)

val count : t -> int
val sum : t -> float

val min : t -> int
(** @raise Invalid_argument when empty. *)

val max : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t 99.0] — the smallest recorded bucket value at or above
    the given percentile.  @raise Invalid_argument when empty or p
    outside (0, 100]. *)

val merge : t -> t -> t
(** A fresh histogram holding both inputs' samples. *)

val reset : t -> unit
