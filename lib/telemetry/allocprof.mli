(** Per-site allocation attribution: the telemetry-side face of the
    {!Alloc_probe} library.

    Instrumented hot paths (netpkt decode/encode, dataplane lookup,
    the translator, PMD submission, [Trace.emit], engine dispatch)
    bracket themselves with {!mark}/{!record}; installing a recorder
    turns those brackets into per-site minor-words histograms, and this
    module folds a recorder into exact percentile stats, a
    deterministic text table, and registry histograms — the memory
    mirror of {!Profile}'s latency attribution.

    All of {!Alloc_probe} is re-exported, so call sites inside
    libraries that already depend on telemetry can use
    [Telemetry.Allocprof.mark]/[record] directly; only the bottom of
    the dependency graph (netpkt) needs the raw library. *)

include module type of Alloc_probe
(** @inline *)

type site_stats = Profile.stats = {
  count : int;
  p50 : int;  (** words, exact nearest-rank *)
  p95 : int;
  p99 : int;
  mean : float;
  max : int;
  total : int;  (** summed words across all samples *)
}

val stats : t -> string -> site_stats option
(** Exact stats for one site ({!Profile.exact_stats}); [None] for an
    unknown site. *)

val table : t -> string
(** Deterministic text table: one row per site (first-appearance
    order) with count, p50/p95/max words per call and total words, and
    a footer with the grand total. *)

val publish : ?registry:Registry.t -> ?prefix:string -> t -> unit
(** Mirror every site's samples into registry histograms
    [<prefix>_alloc_words{site=…}] (prefix default ["harmless"]). *)
