(* The flight recorder's control events and the post-mortem plane:
   per-stream ring bounds, the zero-cost disabled path, event line
   round-trips, hops and events sharing one recorder (sequence, clock,
   seq-watermarked trace selection), the corr-id join with the packet
   hops through the Chrome trace export, capture-at-finalize semantics,
   snapshot serialization and its canonical-only parser, and the
   canary-breach root-cause golden. *)

open Telemetry

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_contains what ~needle hay =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle hay

let count_occurrences hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i acc =
    if i + ln > lh then acc
    else if String.sub hay i ln = needle then go (i + ln) (acc + 1)
    else go (i + 1) acc
  in
  if ln = 0 then 0 else go 0 0

let words () = int_of_float (Gc.minor_words ())

let test_pkt =
  Netpkt.Packet.udp
    ~dst:(Netpkt.Mac_addr.make_local 4)
    ~src:(Netpkt.Mac_addr.make_local 3)
    ~ip_src:(Netpkt.Ipv4_addr.of_string "10.9.0.1")
    ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.9.0.2")
    ~src_port:7 ~dst_port:8 "y"

(* Run [f] under a fresh recorder; returns its result and the retained
   events. *)
let recording ?stream_capacity f =
  fst
    (Trace.with_collector ?stream_capacity (fun r ->
         let result = f r in
         (result, Trace.Collector.events r)))

let hop_at ts = Trace.emit ~ts_ns:ts ~component:"h" ~layer:Trace.Host ~stage:"tx"

(* ---- the recorder itself ---- *)

let recorder_tests =
  [
    tc "per-stream ring wraps, keeps the newest, counts evictions"
      (fun () ->
        let (), retained =
          recording ~stream_capacity:4 (fun r ->
              for i = 1 to 10 do
                Trace.event ~ts_ns:i ~stream:"s"
                  ~detail:(Printf.sprintf "n%d" i) "tick"
              done;
              check Alcotest.int "recorded counts evicted too" 10
                (Trace.Collector.recorded r);
              check Alcotest.int "dropped = overflow" 6 (Trace.Collector.dropped r))
        in
        check Alcotest.int "ring retains capacity" 4 (List.length retained);
        check
          Alcotest.(list int)
          "newest survive, in order" [ 7; 8; 9; 10 ]
          (List.map (fun (e : Trace.event) -> e.Trace.seq) retained));
    tc "streams are bounded independently and merge by (ts, seq)"
      (fun () ->
        let (), retained =
          recording ~stream_capacity:2 (fun r ->
              Trace.event ~ts_ns:5 ~stream:"b" "one";
              Trace.event ~ts_ns:1 ~stream:"a" "one";
              Trace.event ~ts_ns:9 ~stream:"a" "two";
              Trace.event ~ts_ns:3 ~stream:"a" "three";
              (* "a" wrapped (capacity 2); "b" did not. *)
              check Alcotest.int "one eviction" 1 (Trace.Collector.dropped r);
              check
                Alcotest.(list string)
                "streams sorted" [ "a"; "b" ] (Trace.Collector.streams r);
              check Alcotest.int "stream filter" 2
                (List.length (Trace.Collector.events ~stream:"a" r)))
        in
        check
          Alcotest.(list string)
          "merged (ts, seq) order" [ "three"; "one"; "two" ]
          (List.map (fun (e : Trace.event) -> e.Trace.name) retained));
    tc "min_level filters, levels order debug < info < warn < error"
      (fun () ->
        let (), _ =
          recording (fun r ->
              Trace.event ~level:Trace.Debug ~ts_ns:1 ~stream:"s" "d";
              Trace.event ~level:Trace.Info ~ts_ns:2 ~stream:"s" "i";
              Trace.event ~level:Trace.Warn ~ts_ns:3 ~stream:"s" "w";
              Trace.event ~level:Trace.Error ~ts_ns:4 ~stream:"s" "e";
              check Alcotest.int "warn and up" 2
                (List.length (Trace.Collector.events ~min_level:Trace.Warn r)))
        in
        ());
    tc "stream and name must be tokens" (fun () ->
        let (), _ =
          recording (fun _ ->
              Alcotest.check_raises "space in stream"
                (Invalid_argument
                   "Trace.event: stream must be a non-empty token: \"a b\"")
                (fun () -> Trace.event ~stream:"a b" "x");
              Alcotest.check_raises "empty name"
                (Invalid_argument
                   "Trace.event: event name must be a non-empty token: \"\"")
                (fun () -> Trace.event ~stream:"s" ""))
        in
        ());
    tc "corr_of_string is stable and never zero" (fun () ->
        let c = Trace.corr_of_string "channel:chaos-legacy-ss2" in
        check Alcotest.int "same name, same id" c
          (Trace.corr_of_string "channel:chaos-legacy-ss2");
        check Alcotest.bool "nonzero" true (c <> 0));
    tc "guarded no-op Event recording allocates exactly zero minor words"
      (fun () ->
        check Alcotest.bool "no recorder" false (Trace.enabled ());
        let emit_guarded () =
          if Trace.enabled () then
            Trace.event ~ts_ns:0 ~stream:"recorder" "noop"
        in
        emit_guarded ();
        let before = words () in
        for _ = 1 to 10_000 do
          emit_guarded ()
        done;
        check Alcotest.int "minor words delta over 10k emits" 0
          (words () - before));
    tc "event line round-trips through to_string/of_string" (fun () ->
        let (), retained =
          recording (fun _ ->
              Trace.event ~level:Trace.Warn ~ts_ns:4_200_000
                ~corr:(Trace.corr_of_string "trunk:primary")
                ~detail:"trunk:primary degrade loss=0.95" ~stream:"fault"
                "degrade")
        in
        let e = List.hd retained in
        let line = Trace.event_to_string e in
        match Trace.event_of_string line with
        | Error msg -> Alcotest.failf "parse failed: %s (%s)" msg line
        | Ok e' ->
            check Alcotest.string "line is a fixpoint" line
              (Trace.event_to_string e');
            check Alcotest.int "corr preserved" e.Trace.corr
              e'.Trace.corr;
            check Alcotest.string "detail preserved" e.Trace.detail
              e'.Trace.detail);
    tc "event lines accept only what the renderer writes" (fun () ->
        let line = "event 12 4200000 warn fault 0017c56f down channel down" in
        check Alcotest.bool "canonical line parses" true
          (Result.is_ok (Trace.event_of_string line));
        List.iter
          (fun bad ->
            match Trace.event_of_string bad with
            | Ok _ -> Alcotest.failf "accepted non-canonical %S" bad
            | Error _ -> ())
          [
            "event 1_2 4200000 warn fault 0017c56f down channel down";
            "event +12 4200000 warn fault 0017c56f down channel down";
            "event 12 0b101 warn fault 0017c56f down channel down";
            "event 12 4200000 warn fault 17c56f down channel down";
            "event 12 4200000 warn fault 0017_c56f down channel down";
            " event 12 4200000 warn fault 0017c56f down channel down";
            "event 12 4200000 warn fault 0017c56f down ";
          ]);
  ]

(* ---- hops and events in one recorder ---- *)

let shared_tests =
  [
    tc "hops and events share one sequence; clear restarts it" (fun () ->
        let (), _ =
          Trace.with_collector (fun r ->
              hop_at 1 test_pkt;
              Trace.event ~ts_ns:2 ~stream:"s" "between";
              hop_at 3 test_pkt;
              check
                Alcotest.(list int)
                "hop seqs skip the event's" [ 1; 3 ]
                (List.map (fun (h : Trace.hop) -> h.Trace.seq)
                   (Trace.Collector.hops r));
              check
                Alcotest.(list int)
                "event seq" [ 2 ]
                (List.map (fun (e : Trace.event) -> e.Trace.seq)
                   (Trace.Collector.events r));
              check Alcotest.int "last_seq" 3 (Trace.Collector.last_seq r);
              Trace.Collector.clear r;
              check Alcotest.int "cleared" 0
                (List.length (Trace.Collector.hops r)
                + List.length (Trace.Collector.events r)
                + Trace.Collector.recorded r);
              hop_at 4 test_pkt;
              check
                Alcotest.(list int)
                "sequence restarts at 1" [ 1 ]
                (List.map (fun (h : Trace.hop) -> h.Trace.seq)
                   (Trace.Collector.hops r)))
        in
        ());
    tc "the clock given at creation stamps events without ts_ns" (fun () ->
        let now = ref 7_000 in
        let (), _ =
          Trace.with_collector
            ~clock:(fun () -> !now)
            (fun r ->
              Trace.event ~stream:"s" "clocked";
              now := 9_000;
              Trace.event ~ts_ns:1 ~stream:"s" "explicit";
              Trace.event ~stream:"s" "later";
              check
                Alcotest.(list int)
                "stamps" [ 1; 7_000; 9_000 ]
                (List.map (fun (e : Trace.event) -> e.Trace.ts_ns)
                   (Trace.Collector.events r)))
        in
        let (), _ =
          Trace.with_collector (fun r ->
              Trace.event ~stream:"s" "unclocked";
              check
                Alcotest.(list int)
                "no clock: 0" [ 0 ]
                (List.map (fun (e : Trace.event) -> e.Trace.ts_ns)
                   (Trace.Collector.events r)))
        in
        ());
    tc "traces ~after keeps an earlier byte-identical frame out" (fun () ->
        (* The chaos probe's case: the storm sent the same frame before
           the watermark, so both share one trace key. *)
        let (), _ =
          Trace.with_collector (fun r ->
              hop_at 1 test_pkt;
              hop_at 2 test_pkt;
              let mark = Trace.Collector.last_seq r in
              hop_at 10 test_pkt;
              Trace.event ~ts_ns:11 ~stream:"s" "noise";
              hop_at 12 test_pkt;
              (match Trace.Collector.traces r with
              | [ all ] ->
                  check Alcotest.int "unfiltered: one key, every hop" 4
                    (List.length all.Trace.hops)
              | ts -> Alcotest.failf "expected 1 trace, got %d" (List.length ts));
              match Trace.Collector.traces ~after:mark r with
              | [ probe ] ->
                  check
                    Alcotest.(list int)
                    "only the hops past the watermark" [ 10; 12 ]
                    (List.map (fun (h : Trace.hop) -> h.Trace.ts_ns)
                       probe.Trace.hops)
              | ts -> Alcotest.failf "expected 1 trace, got %d" (List.length ts))
        in
        ());
  ]

(* ---- the recorder's trace-key memo against key_of_packet ---- *)

(* Each step emits one frame, built from the frames emitted so far
   (picked by index, so flows interleave), or clears the recorder. *)
type frame_op =
  | Fresh of int  (** a new frame; small ids repeat byte-identical frames *)
  | Push of int * int  (** push a VLAN tag *)
  | Pop of int
  | Set_vid of int * int
  | Ttl of int  (** rewrite the IP header *)
  | Set_dst of int * int  (** rewrite a MAC, keeping the l3 *)
  | Set_src of int * int
  | Copy of int  (** byte-identical, physically distinct *)
  | Clear

let print_frame_op = function
  | Fresh n -> Printf.sprintf "fresh %d" n
  | Push (i, v) -> Printf.sprintf "push %d vid %d" i v
  | Pop i -> Printf.sprintf "pop %d" i
  | Set_vid (i, v) -> Printf.sprintf "set_vid %d %d" i v
  | Ttl i -> Printf.sprintf "ttl %d" i
  | Set_dst (i, m) -> Printf.sprintf "set_dst %d %d" i m
  | Set_src (i, m) -> Printf.sprintf "set_src %d %d" i m
  | Copy i -> Printf.sprintf "copy %d" i
  | Clear -> "clear"

let frame_op_gen =
  let open QCheck2.Gen in
  let i = int_bound 20 and vid = int_range 1 4094 and mac = int_range 1 3 in
  frequency
    [
      (4, map (fun n -> Fresh n) (int_bound 5));
      (3, map2 (fun i v -> Push (i, v)) i vid);
      (2, map (fun i -> Pop i) i);
      (2, map2 (fun i v -> Set_vid (i, v)) i vid);
      (2, map (fun i -> Ttl i) i);
      (1, map2 (fun i m -> Set_dst (i, m)) i mac);
      (1, map2 (fun i m -> Set_src (i, m)) i mac);
      (2, map (fun i -> Copy i) i);
      (1, return Clear);
    ]

let fresh_frame n =
  Netpkt.Packet.udp
    ~dst:(Netpkt.Mac_addr.make_local 2)
    ~src:(Netpkt.Mac_addr.make_local 1)
    ~ip_src:(Netpkt.Ipv4_addr.of_string "10.7.0.1")
    ~ip_dst:
      (Netpkt.Ipv4_addr.of_string (Printf.sprintf "10.7.0.%d" (2 + (n mod 2))))
    ~src_port:n ~dst_port:80 "z"

(* The frame an op emits, given the frames emitted before it, newest
   first; [None] for [Clear]. *)
let apply_frame_op pool op =
  let open Netpkt in
  let pick i = List.nth pool (i mod List.length pool) in
  match (op, pool) with
  | Clear, _ -> None
  | Fresh n, _ -> Some (fresh_frame n)
  | _, [] -> Some (fresh_frame 0)
  | Push (i, v), _ -> Some (Packet.push_vlan (Vlan.make v) (pick i))
  | Pop i, _ -> (
      match Packet.pop_vlan (pick i) with
      | Some (_, p) -> Some p
      | None -> Some (pick i))
  | Set_vid (i, v), _ -> (
      let p = pick i in
      match p.Packet.vlans with
      | [] -> Some p
      | _ -> Some (Packet.set_outer_vid v p))
  | Ttl i, _ -> (
      let p = pick i in
      match p.Packet.l3 with
      | Packet.Ip ip ->
          Some { p with Packet.l3 = Packet.Ip { ip with Ipv4.ttl = ip.Ipv4.ttl - 1 } }
      | _ -> Some p)
  | Set_dst (i, m), _ ->
      Some { (pick i) with Packet.dst = Mac_addr.make_local m }
  | Set_src (i, m), _ ->
      Some { (pick i) with Packet.src = Mac_addr.make_local m }
  | Copy i, _ -> Some (Packet.decode (Packet.encode (pick i)))

(* [Collector.traces]' grouping, rebuilt from recomputed keys: hops were
   emitted with rising timestamps, so emission order is trace order. *)
let grouped_by_recomputed_keys hops =
  let keys = ref [] and members = Hashtbl.create 16 in
  List.iter
    (fun (h : Trace.hop) ->
      let k = Trace.key_of_packet h.Trace.packet in
      match Hashtbl.find_opt members k with
      | Some seqs -> Hashtbl.replace members k (h.Trace.seq :: seqs)
      | None ->
          keys := k :: !keys;
          Hashtbl.replace members k [ h.Trace.seq ])
    hops;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find members k))) !keys

let keys_as_recomputed r =
  let hops = Trace.Collector.hops r in
  List.for_all
    (fun (h : Trace.hop) ->
      h.Trace.trace_key = Trace.key_of_packet h.Trace.packet)
    hops
  && List.map
       (fun (t : Trace.trace) ->
         (t.Trace.key, List.map (fun (h : Trace.hop) -> h.Trace.seq) t.Trace.hops))
       (Trace.Collector.traces r)
     = grouped_by_recomputed_keys hops

let memo_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:
           "memoised trace keys equal key_of_packet; traces group as \
            recomputed keys do"
         ~print:(fun ops -> String.concat "; " (List.map print_frame_op ops))
         QCheck2.Gen.(list_size (int_range 1 60) frame_op_gen)
         (fun ops ->
           let r = Trace.Collector.create () in
           Trace.Collector.install r;
           Fun.protect
             ~finally:(fun () -> Trace.Collector.uninstall r)
             (fun () ->
               let pool = ref [] and ok = ref true and ts = ref 0 in
               List.iter
                 (fun op ->
                   match apply_frame_op !pool op with
                   | None ->
                       ok := !ok && keys_as_recomputed r;
                       Trace.Collector.clear r
                   | Some frame ->
                       incr ts;
                       hop_at !ts frame;
                       pool := frame :: !pool)
                 ops;
               !ok && keys_as_recomputed r)));
  ]

(* ---- the corr-id join with the packet tracer ---- *)

let join_tests =
  [
    tc "event and hop share one trace_key through the Chrome export"
      (fun () ->
        let key = Trace.key_of_packet test_pkt in
        let hops, events =
          recording (fun r ->
              Trace.emit ~ts_ns:10 ~component:"host0" ~layer:Trace.Host
                ~stage:"tx" ~cycles:0 test_pkt;
              Trace.event ~level:Trace.Debug ~ts_ns:20 ~corr:key
                ~detail:"dpid:2 port=0" ~stream:"controller" "packet-in";
              Trace.Collector.hops r)
        in
        let out = Chrome_trace.to_string ~events hops in
        let needle = Printf.sprintf "\"%08x\"" key in
        check Alcotest.int
          "trace_key appears in both the hop and the instant event" 2
          (count_occurrences out needle);
        check_contains "instant phase present" ~needle:"\"ph\":\"i\"" out;
        check_contains "per-stream pseudo thread"
          ~needle:"events:controller" out);
  ]

(* ---- capture-at-finalize and snapshot serialization ---- *)

let postmortem_tests =
  [
    tc "uneventful recording captures nothing" (fun () ->
        let snap, _ =
          recording (fun r ->
              Trace.event ~ts_ns:1 ~stream:"channel" "connect";
              Postmortem.capture ~scenario:"quiet" ~seed:1 ~captured_ns:10 r)
        in
        check Alcotest.bool "no trigger, no snapshot" true (snap = None));
    tc "capture windows events around the first trigger" (fun () ->
        let snap, _ =
          recording (fun r ->
              Trace.event ~ts_ns:1_000_000 ~stream:"channel" "connect";
              Trace.event ~ts_ns:20_000_000 ~stream:"channel" "drop";
              Trace.event ~level:Trace.Warn ~ts_ns:30_000_000
                ~corr:(Trace.corr_of_string "trunk:primary")
                ~detail:"trunk:primary down" ~stream:"fault" "down";
              Trace.event ~level:Trace.Error ~ts_ns:31_000_000
                ~corr:(Trace.corr_of_string "slo") ~detail:"slo value=0"
                ~stream:"alert" "firing";
              Postmortem.capture ~scenario:"windowed" ~seed:7
                ~captured_ns:40_000_000 r)
        in
        match snap with
        | None -> Alcotest.fail "expected a snapshot"
        | Some s ->
            check Alcotest.int "window start = trigger - 5ms" 25_000_000
              s.Postmortem.window_start_ns;
            check Alcotest.int "pre-trigger noise excluded" 2
              (List.length s.Postmortem.events);
            check Alcotest.int "one trigger each kind" 2
              (List.length s.Postmortem.triggers);
            let tl = Postmortem.analyze s in
            (match tl.Postmortem.root_cause with
            | Some e ->
                check Alcotest.string "root cause is the fault" "fault"
                  e.Trace.stream
            | None -> Alcotest.fail "expected a root cause");
            (* serialization round-trip is a fixpoint *)
            let text = Postmortem.to_string s in
            (match Postmortem.of_string text with
            | Error msg -> Alcotest.failf "snapshot parse failed: %s" msg
            | Ok s' ->
                check Alcotest.string "to_string fixpoint" text
                  (Postmortem.to_string s'));
            check_contains "render names the root cause"
              ~needle:"root cause: fault down" (Postmortem.render s));
  ]

(* ---- the snapshot parser at the trust boundary ----

   [harmlessctl postmortem FILE] reads snapshots back, so the parser must
   be total and accept only canonical text: every input it accepts
   re-renders to the same bytes.  Mutations of a real snapshot (the
   default [harmlessctl chaos --seed 42] run) in 1-3 bytes, biased
   towards the characters that make numbers non-canonical. *)

let chaos_snapshot =
  lazy
    (let engine = Simnet.Engine.create () in
     let script =
       "5ms channel down\n12ms mgmt flaky 2\n20ms channel up\n\
        30ms trunk:primary down\n"
     in
     match Harmless.Chaos.build engine ~num_hosts:3 ~seed:42 () with
     | Error e -> failwith e
     | Ok rig -> (
         match
           Harmless.Chaos.run rig ~script ~duration:(Simnet.Sim_time.ms 60) ()
         with
         | Ok { Harmless.Chaos.postmortem = Some s; _ } -> Postmortem.to_string s
         | Ok _ -> failwith "the chaos run captured no post-mortem"
         | Error e -> failwith e))

type mutation = Replace of int * char | Insert of int * char | Delete of int

let mutate text ms =
  List.fold_left
    (fun t m ->
      let n = String.length t in
      match m with
      | Replace (i, c) when n > 0 ->
          String.mapi (fun j d -> if j = i mod n then c else d) t
      | Insert (i, c) ->
          let i = i mod (n + 1) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t i (n - i)
      | Delete i when n > 0 ->
          let i = i mod n in
          String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
      | Replace _ | Delete _ -> t)
    text ms

let print_mutation = function
  | Replace (i, c) -> Printf.sprintf "replace %d %C" i c
  | Insert (i, c) -> Printf.sprintf "insert %d %C" i c
  | Delete i -> Printf.sprintf "delete %d" i

let mutation_gen =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  let chr =
    oneof [ oneofl [ '_'; '+'; '-'; '0'; '1'; '9'; 'x'; 'b'; 'o'; ' '; '\n' ]; char ]
  in
  list_size (int_range 1 3)
    (oneof
       [
         map2 (fun i c -> Replace (i, c)) pos chr;
         map2 (fun i c -> Insert (i, c)) pos chr;
         map (fun i -> Delete i) pos;
       ])

let parser_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"mutated snapshots: no exception, accepted = canonical"
         ~print:(fun ms -> String.concat "; " (List.map print_mutation ms))
         mutation_gen
         (fun ms ->
           let text = mutate (Lazy.force chaos_snapshot) ms in
           match Postmortem.of_string text with
           | Error _ -> true
           | Ok snap -> Postmortem.to_string snap = text));
    tc "the unmutated snapshot is accepted" (fun () ->
        let text = Lazy.force chaos_snapshot in
        match Postmortem.of_string text with
        | Error msg -> Alcotest.failf "rejected: %s" msg
        | Ok snap ->
            check Alcotest.string "fixpoint" text (Postmortem.to_string snap));
  ]

(* ---- the golden: the injected fault is the timeline's root cause ---- *)

let golden_tests =
  [
    tc "canary breach post-mortem names the trunk degrade as root cause"
      (fun () ->
        match Harmless.Migration_rig.canary_breach ~seed:42 () with
        | Error msg -> Alcotest.failf "breach scenario failed: %s" msg
        | Ok br -> (
            match br.Harmless.Migration_rig.postmortem with
            | None -> Alcotest.fail "breach must capture a post-mortem"
            | Some s ->
                let tl = Postmortem.analyze s in
                (match tl.Postmortem.root_cause with
                | None -> Alcotest.fail "expected a root cause"
                | Some e ->
                    check Alcotest.string "fault stream" "fault"
                      e.Trace.stream;
                    check Alcotest.string "degrade action" "degrade"
                      e.Trace.name;
                    check_contains "the injected target"
                      ~needle:"trunk:sw0" e.Trace.detail);
                let report = Postmortem.render s in
                check_contains "causal chain reaches the rollback"
                  ~needle:"migration.rollback sw0" report;
                check_contains "causal chain reaches the fleet abort"
                  ~needle:"fleet.abort" report;
                check_contains "liveness breach on the timeline"
                  ~needle:"alert.firing probe-liveness" report));
    tc "same seed, same snapshot (modulo process-global dpids)" (fun () ->
        (* Datapath ids come from a process-global counter, so two
           in-process runs disagree on them (and on the poller corr
           derived from them); byte-for-byte identity across fresh
           processes is what CI's cmp checks.  Everything else must
           match exactly. *)
        let normalize s =
          let s =
            Str.global_replace (Str.regexp "dpid:[0-9a-f]+") "dpid:_" s
          in
          Str.global_replace
            (Str.regexp "\\(poller \\)[0-9a-f]+")
            "\\1________" s
        in
        let snap_of () =
          match Harmless.Migration_rig.canary_breach ~seed:1337 () with
          | Error msg -> Alcotest.failf "breach scenario failed: %s" msg
          | Ok br -> (
              match br.Harmless.Migration_rig.postmortem with
              | None -> Alcotest.fail "breach must capture a post-mortem"
              | Some s -> normalize (Postmortem.to_string s))
        in
        check Alcotest.string "deterministic capture" (snap_of ())
          (snap_of ()));
  ]

let suite =
  [
    ("eventlog recorder", recorder_tests);
    ("eventlog trace join", join_tests);
    ("recorder shared", shared_tests);
    ("recorder key memo", memo_tests);
    ("postmortem capture", postmortem_tests);
    ("postmortem parser", parser_tests);
    ("postmortem golden", golden_tests);
  ]
