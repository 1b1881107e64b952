(* Exact per-stage distributions.

   Samples are appended to growable int arrays per stage key;
   percentiles sort a copy on demand (profiles are read rarely and
   written per-trace, so the write path stays allocation-light and the
   read path stays exact).  Stage keys come from the span derivation,
   suffixed #2/#3/... on repeats within a trace so a stage key appears
   at most once per trace — that is what makes per-stage p50s sum to
   the e2e p50 on a homogeneous workload. *)

type stats = {
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  mean : float;
  max : int;
  total : int;
}

module Samples = Alloc_probe.Samples

let nearest_rank sorted n p =
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let exact_stats sorted =
  match Array.length sorted with
  | 0 -> None
  | n ->
      Array.sort compare sorted;
      let total = Array.fold_left ( + ) 0 sorted in
      Some
        {
          count = n;
          p50 = nearest_rank sorted n 50.0;
          p95 = nearest_rank sorted n 95.0;
          p99 = nearest_rank sorted n 99.0;
          mean = float_of_int total /. float_of_int n;
          max = sorted.(n - 1);
          total;
        }

let stats_of samples = exact_stats (Samples.to_array samples)

type t = {
  latency : (string, Samples.t) Hashtbl.t;
  cycles : (string, Samples.t) Hashtbl.t;
  alloc : (string, Samples.t) Hashtbl.t;
  mutable stage_order : string list;  (* reversed first-appearance *)
  e2e_samples : Samples.t;
  e2e_alloc_samples : Samples.t;
  mutable traces : int;
}

let create () =
  {
    latency = Hashtbl.create 32;
    cycles = Hashtbl.create 32;
    alloc = Hashtbl.create 32;
    stage_order = [];
    e2e_samples = Samples.create ();
    e2e_alloc_samples = Samples.create ();
    traces = 0;
  }

let stage_samples t key =
  match Hashtbl.find_opt t.latency key with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.latency key s;
      t.stage_order <- key :: t.stage_order;
      s

let cycle_samples t key =
  match Hashtbl.find_opt t.cycles key with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.cycles key s;
      s

let alloc_samples t key =
  match Hashtbl.find_opt t.alloc key with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.alloc key s;
      s

let record_trace ?stage_of t trace =
  match Span.of_trace ?stage_of trace with
  | [] -> ()
  | root :: children ->
      t.traces <- t.traces + 1;
      Samples.push t.e2e_samples (Span.duration_ns root);
      Samples.push t.e2e_alloc_samples (Span.alloc_words root);
      (* Leaves only: stage spans (have a component) and transit spans;
         visit spans would double-count their stages. *)
      let parents = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.t) ->
          match s.Span.parent with
          | Some p -> Hashtbl.replace parents p ()
          | None -> ())
        children;
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.t) ->
          if not (Hashtbl.mem parents s.Span.id) then begin
            let occurrence =
              match Hashtbl.find_opt seen s.Span.name with
              | None ->
                  Hashtbl.replace seen s.Span.name 1;
                  1
              | Some k ->
                  Hashtbl.replace seen s.Span.name (k + 1);
                  k + 1
            in
            let key =
              if occurrence = 1 then s.Span.name
              else Printf.sprintf "%s#%d" s.Span.name occurrence
            in
            Samples.push (stage_samples t key) (Span.duration_ns s);
            Samples.push (alloc_samples t key) (Span.alloc_words s);
            if s.Span.cycles > 0 then
              Samples.push (cycle_samples t key) s.Span.cycles
          end)
        children

let record_traces ?stage_of t traces =
  List.iter (record_trace ?stage_of t) traces

let traces_recorded t = t.traces
let stages t = List.rev t.stage_order

let stage_stats t ~stage =
  Option.bind (Hashtbl.find_opt t.latency stage) stats_of

let stage_cycles t ~stage =
  Option.bind (Hashtbl.find_opt t.cycles stage) stats_of

let stage_alloc t ~stage =
  Option.bind (Hashtbl.find_opt t.alloc stage) stats_of

let e2e t = stats_of t.e2e_samples
let e2e_alloc t = stats_of t.e2e_alloc_samples

let p50_sum_ns t =
  List.fold_left
    (fun acc stage ->
      match stage_stats t ~stage with Some s -> acc + s.p50 | None -> acc)
    0 (stages t)

let alloc_p50_sum_words t =
  List.fold_left
    (fun acc stage ->
      match stage_alloc t ~stage with Some s -> acc + s.p50 | None -> acc)
    0 (stages t)

let publish ?(registry = Registry.default) ?(prefix = "harmless") t =
  let observe_all name ?labels samples =
    let h = Registry.Histogram.v ~registry ?labels name in
    Samples.iter (Registry.Histogram.observe h) samples
  in
  List.iter
    (fun stage ->
      (match Hashtbl.find_opt t.latency stage with
      | Some s ->
          observe_all
            (prefix ^ "_stage_latency_ns")
            ~labels:[ ("stage", stage) ]
            s
      | None -> ());
      (match Hashtbl.find_opt t.cycles stage with
      | Some s ->
          observe_all (prefix ^ "_stage_cycles") ~labels:[ ("stage", stage) ] s
      | None -> ());
      match Hashtbl.find_opt t.alloc stage with
      | Some s ->
          observe_all
            (prefix ^ "_stage_alloc_words")
            ~labels:[ ("stage", stage) ]
            s
      | None -> ())
    (stages t);
  observe_all (prefix ^ "_e2e_latency_ns") t.e2e_samples;
  observe_all (prefix ^ "_e2e_alloc_words") t.e2e_alloc_samples

(* ---- the attribution table ---- *)

let pp_ns ns =
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.2fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%.3fms" (float_of_int ns /. 1e6)

let pp_words w = Printf.sprintf "%dw" w

let attribution_table t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sum = p50_sum_ns t in
  add "%-28s %6s %10s %10s %10s %7s %8s\n" "stage" "count" "p50" "p95" "p99"
    "share" "wds/pkt";
  add "%s\n" (String.make 85 '-');
  List.iter
    (fun stage ->
      match stage_stats t ~stage with
      | None -> ()
      | Some s ->
          let share =
            if sum = 0 then 0.0
            else 100.0 *. float_of_int s.p50 /. float_of_int sum
          in
          add "%-28s %6d %10s %10s %10s %6.1f%% %8s\n" stage s.count
            (pp_ns s.p50) (pp_ns s.p95) (pp_ns s.p99) share
            (match stage_alloc t ~stage with
            | Some a -> pp_words a.p50
            | None -> "-"))
    (stages t);
  add "%s\n" (String.make 85 '-');
  (match e2e t with
  | None -> add "no traces recorded\n"
  | Some e ->
      let cover =
        if e.p50 = 0 then 100.0
        else 100.0 *. float_of_int sum /. float_of_int e.p50
      in
      add "%-28s %6d %10s %10s %10s %7s %8s\n" "end-to-end (measured)" e.count
        (pp_ns e.p50) (pp_ns e.p95) (pp_ns e.p99) ""
        (match e2e_alloc t with
        | Some a -> pp_words a.p50
        | None -> "-");
      add "stage p50 sum %s attributes %.1f%% of the measured e2e p50 %s\n"
        (pp_ns sum) cover (pp_ns e.p50);
      match e2e_alloc t with
      | Some a when a.p50 > 0 ->
          let asum = alloc_p50_sum_words t in
          add
            "stage alloc p50 sum %s attributes %.1f%% of the measured e2e \
             alloc p50 %s\n"
            (pp_words asum)
            (100.0 *. float_of_int asum /. float_of_int a.p50)
            (pp_words a.p50)
      | Some _ | None -> ());
  Buffer.contents buf
