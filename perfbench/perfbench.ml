(* The end-to-end HARMLESS benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   The parent process runs rounds of workload W, each in a fresh child
   process (the dpid counter, the FDD tables and the trace sink are
   process-global, so a round never inherits another's state), until S
   seconds have passed.  Every round rebuilds the deployment from the
   seed, runs a fixed simulated phase and checks its simulated outcome
   against the values stored in expected.txt.  Before each round the
   parent times the reference workload (reference.ml), and the round's
   times are reported scaled by it.  With --trace 0 the last
   line is the end-to-end metrics; with --trace 1 untraced and traced
   rounds alternate and the last line is the per-layer metrics.  Exit
   status 1 means a simulated outcome was wrong. *)

let workloads =
  [
    ( "fabric-64b",
      fun ~seed ->
        let c = Fabric.setup ~seed in
        (c.Fabric.sc, Fabric.phase c) );
    ( "gateway-churn",
      fun ~seed ->
        let c = Churn.setup ~seed in
        (c.Churn.sc, Churn.phase c) );
    ( "observed-ping",
      fun ~seed ->
        let c = Ping.setup ~seed in
        (c.Ping.sc, Ping.phase c) );
  ]

(* Each seed selects one of [variants] input sets; expected.txt stores
   the simulated outcome of every one. *)
let variants = 64
let variant seed = ((seed mod variants) + variants) mod variants

let end_to_end =
  [
    ("setup_s", "s");
    ("frames_per_s", "frames/s");
    ("alloc_words_per_frame", "words");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("peak_heap_mb", "MB");
  ]

let probe_sites =
  [
    "wire.decode";
    "wire.encode";
    "wire.fields";
    "lookup.eswitch";
    "switch.process";
    "pmd.submit";
    "engine.dispatch";
    "trace.emit";
    "flowrec.sample";
  ]

(* Metrics only some workloads exercise; the others report 0. *)
let zero_by_default =
  [
    "policy.compile_ms";
    "policy.compile_words";
    "policy.rules";
    "sdnctl.push_us";
    "sdnctl.flow_mods_per_update";
    "softswitch.recompiles_per_update";
    "telemetry.hops_per_ping";
    "telemetry.fold_ms";
    "sdnctl.collector_merge_us";
  ]

let per_layer =
  [
    ("netpkt.decode_ns", "ns");
    ("netpkt.encode_ns", "ns");
    ("netpkt.fields_ns", "ns");
    ("netpkt.decode_words", "words");
    ("netpkt.encode_words", "words");
    ("simnet.events_per_frame", "count");
    ("simnet.step_ns", "ns");
    ("simnet.transit_ns", "ns");
    ("ethswitch.hop_ns", "ns");
    ("softswitch.ss1_hop_ns", "ns");
    ("softswitch.ss2_hop_ns", "ns");
    ("softswitch.ss1_process_ns", "ns");
    ("softswitch.ss2_process_ns", "ns");
    ("softswitch.process_words", "words");
    ("softswitch.recompiles_per_update", "count");
    ("openflow.table_rules", "count");
    ("softswitch.flowrec_observe_ns", "ns");
    ("softswitch.flowrec_sampled_ratio", "ratio");
    ("sdnctl.collector_merge_us", "us");
    ("policy.compile_ms", "ms");
    ("policy.compile_words", "words");
    ("policy.rules", "count");
    ("sdnctl.push_us", "us");
    ("sdnctl.flow_mods_per_update", "count");
    ("sdnctl.handshake_ms", "ms");
    ("harmless.provision_ms", "ms");
    ("telemetry.hops_per_ping", "count");
    ("telemetry.trace_words_per_hop", "words");
    ("telemetry.fold_ms", "ms");
  ]
  @ List.concat_map
      (fun site ->
        [
          ("alloc." ^ site ^ ".words_per_call", "words");
          ("alloc." ^ site ^ ".calls_per_frame", "count");
        ])
      probe_sites
  @ [
      ("bench.unattributed_frac", "ratio");
      ("bench.span_floor_ns", "ns");
      ("bench.trace_overhead_frac", "ratio");
      ("bench.ref_ms", "ms");
      ("bench.wall_frames_per_s", "frames/s");
    ]

(* ---- one round, in a child process ---- *)

let traced_layers (sc : Scenario.t) tr alloc (r : Round.t) =
  let l = Round.layer r in
  let frames = float_of_int (max 1 r.Round.frames) in
  let rx =
    List.fold_left (fun acc a -> acc + tr.Tiling.calls.(a)) 0
      [ Tiling.host; Tiling.legacy; Tiling.ss1; Tiling.ss2 ]
  in
  l "simnet.events_per_frame" (float_of_int tr.Tiling.steps /. frames);
  l "simnet.step_ns"
    (float_of_int tr.Tiling.step_ns /. float_of_int (max 1 tr.Tiling.steps));
  l "simnet.transit_ns"
    (float_of_int tr.Tiling.ns.(Tiling.transit) /. float_of_int (max 1 rx));
  l "ethswitch.hop_ns" (Tiling.per tr Tiling.legacy);
  l "softswitch.ss1_hop_ns" (Tiling.per tr Tiling.ss1);
  l "softswitch.ss2_hop_ns" (Tiling.per tr Tiling.ss2);
  l "bench.unattributed_frac"
    (1.0 -. (float_of_int (Tiling.total tr) /. float_of_int r.Round.phase_ns));
  List.iter
    (fun site ->
      let samples = Alloc_probe.samples alloc site in
      let n = Array.length samples in
      let words = Array.fold_left ( + ) 0 samples in
      l ("alloc." ^ site ^ ".words_per_call")
        (if n = 0 then 0.0 else float_of_int words /. float_of_int n);
      l ("alloc." ^ site ^ ".calls_per_frame") (float_of_int n /. frames))
    probe_sites;
  l "telemetry.trace_words_per_hop"
    (Hashtbl.find r.Round.layers "alloc.trace.emit.words_per_call");
  l "harmless.provision_ms" (float_of_int sc.Scenario.provision_ns /. 1e6);
  l "sdnctl.handshake_ms" (float_of_int sc.Scenario.handshake_ns /. 1e6);
  l "openflow.table_rules"
    (float_of_int
       (Openflow.Flow_table.size
          (Openflow.Pipeline.table
             (Softswitch.Soft_switch.pipeline sc.Scenario.ss2)
             0)));
  l "bench.span_floor_ns" (Tiling.span_floor_ns ());
  List.iter
    (fun name -> if not (Hashtbl.mem r.Round.layers name) then l name 0.0)
    zero_by_default

let child ~workload ~seed ~traced =
  let prepare = List.assoc workload workloads in
  let r = Round.create () in
  let t0 = Tiling.now_ns () in
  let sc, phase = prepare ~seed in
  r.Round.setup_ns <- Tiling.now_ns () - t0;
  let tr = if traced then Some (Tiling.create ()) else None in
  let cap = if traced then Some (Replay.capture sc) else None in
  let alloc = Alloc_probe.create () in
  Option.iter
    (fun tr ->
      Scenario.attach_taps sc tr;
      Alloc_probe.install alloc)
    tr;
  let rx0 = Scenario.host_rx sc in
  let w0 = Gc.minor_words () in
  let p0 = Tiling.now_ns () in
  phase ~tr r;
  let p1 = Tiling.now_ns () in
  let w1 = Gc.minor_words () in
  Alloc_probe.uninstall ();
  r.Round.phase_ns <- p1 - p0;
  r.Round.words <- int_of_float (w1 -. w0);
  r.Round.frames <- Scenario.host_rx sc - rx0;
  r.Round.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  (match (tr, cap) with
  | Some tr, Some cap ->
      traced_layers sc tr alloc r;
      Replay.run sc cap r
  | _ -> ());
  Round.print stdout r

(* ---- the parent: rounds, checks, aggregation ---- *)

let run_child ~workload ~seed ~mode =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "--child"; mode; "--workload"; workload; "--seed"; string_of_int seed;
      |]
  in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Round.parse lines
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith
        (Printf.sprintf "%s round (%s) exited with status %d" workload mode n)

let load_expected path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | w :: v :: fields when line.[0] <> '#' ->
            let kv =
              List.map
                (fun f ->
                  match String.split_on_char '=' f with
                  | [ k; x ] -> (k, int_of_string x)
                  | _ -> failwith ("malformed field in " ^ path ^ ": " ^ f))
                fields
            in
            go (((w, int_of_string v), kv) :: acc)
        | _ -> go acc)
    | exception End_of_file ->
        close_in ic;
        acc
  in
  go []

let outcome_line workload v (r : Round.t) =
  String.concat " "
    (workload :: string_of_int v
    :: List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) r.Round.outcome)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* Every reported time is a wall time rescaled to a machine on which the
   reference runs in [Reference.nominal_ns], by the reference run timed
   just before its round (see reference.ml). *)
let scaled (r : Round.t) =
  float_of_int Reference.nominal_ns /. float_of_int r.Round.ref_ns

(* Ns per delivered frame over all of [rounds] together. *)
let ns_per_frame ?(scale = scaled) rounds =
  let frames = List.fold_left (fun acc r -> acc + r.Round.frames) 0 rounds in
  List.fold_left
    (fun acc r -> acc +. (float_of_int r.Round.phase_ns *. scale r))
    0.0 rounds
  /. float_of_int (max 1 frames)

let parent ~workload ~seed ~seconds ~trace ~expected_path =
  let v = variant seed in
  let expected =
    match List.assoc_opt (workload, v) (load_expected expected_path) with
    | Some kv -> kv
    | None ->
        failwith (Printf.sprintf "no stored outcome for %s variant %d" workload v)
  in
  let start = Tiling.now_ns () in
  let plain = ref [] and traced = ref [] in
  let correct = ref true in
  let check mode (r : Round.t) =
    List.iter (fun e -> prerr_endline (workload ^ ": " ^ e)) r.Round.errors;
    if r.Round.errors <> [] || r.Round.failed > 0 then correct := false;
    if r.Round.outcome <> expected then begin
      correct := false;
      Printf.eprintf
        "%s %s round: simulated outcome\n  got      %s\n  expected %s\n" workload
        mode (outcome_line workload v r)
        (outcome_line workload v { r with Round.outcome = expected })
    end
  in
  let round mode acc =
    let ref_ns = Reference.time () in
    let r = run_child ~workload ~seed:v ~mode in
    r.Round.ref_ns <- ref_ns;
    check mode r;
    acc := r :: !acc
  in
  let elapsed () = float_of_int (Tiling.now_ns () - start) /. 1e9 in
  let ops rounds =
    List.fold_left (fun acc r -> acc + List.length r.Round.ops) 0 rounds
  in
  while
    elapsed () < seconds
    || List.length !plain < 4
    || ops !plain < 200
    || (trace && List.length !traced < 4)
  do
    round "plain" plain;
    if trace then round "traced" traced
  done;
  let all = !plain @ !traced in
  let attempted = List.fold_left (fun acc r -> acc + r.Round.attempted) 0 all in
  let failed = List.fold_left (fun acc r -> acc + r.Round.failed) 0 all in
  let of_rounds rs f = median (List.map f rs) in
  let distinct f = List.sort_uniq compare (List.map f !plain) in
  if List.length (distinct (fun r -> (r.Round.words, r.Round.frames))) > 1 then
    prerr_endline (workload ^ ": allocation differed between identical rounds");
  let metrics =
    if trace then begin
      let overhead = (ns_per_frame !traced /. ns_per_frame !plain) -. 1.0 in
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "bench.trace_overhead_frac" -> overhead
            | "bench.ref_ms" ->
                of_rounds all (fun r -> float_of_int r.Round.ref_ns /. 1e6)
            | "bench.wall_frames_per_s" ->
                1e9 /. ns_per_frame ~scale:(fun _ -> 1.0) !plain
            | _ ->
                of_rounds !traced (fun r ->
                    match Hashtbl.find_opt r.Round.layers name with
                    | Some x -> x
                    | None -> failwith ("traced round did not report " ^ name))
          in
          (name, unit, v))
        per_layer
    end
    else begin
      let pooled =
        List.concat_map
          (fun r -> List.map (fun ns -> float_of_int ns *. scaled r) r.Round.ops)
          !plain
      in
      let value = function
        | "setup_s" ->
            of_rounds !plain (fun r -> float_of_int r.Round.setup_ns *. scaled r /. 1e9)
        | "frames_per_s" -> 1e9 /. ns_per_frame !plain
        | "alloc_words_per_frame" ->
            of_rounds !plain (fun r ->
                float_of_int r.Round.words /. float_of_int (max 1 r.Round.frames))
        | "op_ms_p50" -> percentile 50.0 pooled /. 1e6
        | "op_ms_p90" -> percentile 90.0 pooled /. 1e6
        | "peak_heap_mb" ->
            of_rounds !plain (fun r ->
                float_of_int (r.Round.top_heap_words * (Sys.word_size / 8))
                /. 1048576.0)
        | name -> failwith ("unknown metric " ^ name)
      in
      List.map (fun (name, unit) -> (name, unit, value name)) end_to_end
    end
  in
  Printf.eprintf "%s seed %d (variant %d): %d plain + %d traced rounds in %.1f s\n"
    workload seed v (List.length !plain) (List.length !traced) (elapsed ());
  print_result ~correct:!correct ~attempted ~failed metrics;
  if not !correct then exit 1

(* Print the stored-outcome table: one untraced round per variant of
   each workload named (all when none is). *)
let record_expected names =
  List.iter
    (fun (workload, _) ->
      if names = [] || List.mem workload names then
        for v = 0 to variants - 1 do
          let r = run_child ~workload ~seed:v ~mode:"plain" in
          print_endline (outcome_line workload v r)
        done)
    workloads

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and child_mode = ref "" and record = ref false in
  let expected_path = ref "perfbench/expected.txt" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--expected",
        Arg.Set_string expected_path,
        "FILE stored simulated outcomes" );
      ("--record-expected", Arg.Set record, " print the stored-outcome table");
      ( "--child",
        Arg.Set_string child_mode,
        "plain|traced run one round (internal)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !record then
    record_expected (if !workload = "" then [] else [ !workload ])
  else if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("unknown workload " ^ !workload ^ "; one of: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end
  else
    match !child_mode with
    | "" ->
        parent ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~expected_path:!expected_path
    | "plain" -> child ~workload:!workload ~seed:!seed ~traced:false
    | "traced" -> child ~workload:!workload ~seed:!seed ~traced:true
    | m ->
        prerr_endline ("unknown --child mode " ^ m);
        exit 2
