(* The transactional migration engine: circuit breaker, WAL semantics,
   the staged state machine, crash recovery, the fleet orchestrator, and
   the two acceptance scenarios (crash sweep, canary breach).

   The crash-sweep seeds honour QCHECK_SEED so the CI migration-chaos
   job can run the property under two different seeds. *)

open Simnet

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let env_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

(* ---- Breaker ---- *)

let breaker_tests =
  [
    tc "trips after threshold consecutive failures" (fun () ->
        let b =
          Harmless.Migration.Breaker.create ~threshold:2
            ~cooldown:(Sim_time.ms 10) ()
        in
        let at ms = Sim_time.of_ns (Sim_time.ms ms) in
        check Alcotest.bool "starts closed" true
          (Harmless.Migration.Breaker.allow b ~now:(at 0));
        Harmless.Migration.Breaker.record b ~now:(at 0) ~ok:false;
        check Alcotest.bool "one failure keeps it closed" true
          (Harmless.Migration.Breaker.allow b ~now:(at 1));
        Harmless.Migration.Breaker.record b ~now:(at 1) ~ok:false;
        check Alcotest.bool "second failure opens it" false
          (Harmless.Migration.Breaker.allow b ~now:(at 2));
        check Alcotest.int "one trip" 1 (Harmless.Migration.Breaker.trips b);
        check
          Alcotest.(option int)
          "reopens when the cooldown ends"
          (Some (Sim_time.to_ns (at 11)))
          (Option.map Sim_time.to_ns
             (Harmless.Migration.Breaker.reopen_at b)));
    tc "half-open probe success closes; failure re-trips" (fun () ->
        let b =
          Harmless.Migration.Breaker.create ~threshold:1
            ~cooldown:(Sim_time.ms 10) ()
        in
        let at ms = Sim_time.of_ns (Sim_time.ms ms) in
        Harmless.Migration.Breaker.record b ~now:(at 0) ~ok:false;
        check Alcotest.bool "open during cooldown" false
          (Harmless.Migration.Breaker.allow b ~now:(at 5));
        check Alcotest.bool "half-open after cooldown" true
          (Harmless.Migration.Breaker.allow b ~now:(at 10));
        Harmless.Migration.Breaker.record b ~now:(at 10) ~ok:false;
        check Alcotest.bool "probe failure re-opens" false
          (Harmless.Migration.Breaker.allow b ~now:(at 11));
        check Alcotest.int "two trips" 2 (Harmless.Migration.Breaker.trips b);
        check Alcotest.bool "half-open again after second cooldown" true
          (Harmless.Migration.Breaker.allow b ~now:(at 20));
        Harmless.Migration.Breaker.record b ~now:(at 20) ~ok:true;
        Harmless.Migration.Breaker.record b ~now:(at 21) ~ok:true;
        check Alcotest.bool "success closes it" true
          (Harmless.Migration.Breaker.allow b ~now:(at 21));
        check Alcotest.int "consecutive failures reset" 0
          (Harmless.Migration.Breaker.consecutive_failures b));
  ]

(* ---- WAL ---- *)

let breach_wal =
  lazy
    (match Harmless.Migration_rig.canary_breach ~seed:42 () with
    | Ok br -> Mgmt.Txn.to_string br.Harmless.Migration_rig.wal
    | Error e -> failwith e)

let wal_tests =
  [
    tc "round-trips through to_string/of_string" (fun () ->
        let w = Mgmt.Txn.create () in
        ignore (Mgmt.Txn.append w ~txn:"sw0" (Mgmt.Txn.Begin "device=sw0"));
        ignore (Mgmt.Txn.append w ~txn:"sw0" (Mgmt.Txn.Stage_start "precheck"));
        ignore (Mgmt.Txn.append w ~txn:"sw0" (Mgmt.Txn.Stage_done "precheck"));
        ignore (Mgmt.Txn.append w ~txn:"sw0" (Mgmt.Txn.Note "breadcrumb here"));
        ignore (Mgmt.Txn.append w ~txn:"sw1" (Mgmt.Txn.Begin "device=sw1"));
        ignore (Mgmt.Txn.append w ~txn:"sw0" Mgmt.Txn.Committed);
        match Mgmt.Txn.of_string (Mgmt.Txn.to_string w) with
        | Error e -> Alcotest.fail e
        | Ok w' ->
            check Alcotest.int "same length" (Mgmt.Txn.length w)
              (Mgmt.Txn.length w');
            check
              Alcotest.(list string)
              "same txns" (Mgmt.Txn.txns w) (Mgmt.Txn.txns w');
            check Alcotest.string "byte-identical re-serialization"
              (Mgmt.Txn.to_string w) (Mgmt.Txn.to_string w'));
    tc "resolve classifies every log shape" (fun () ->
        let w = Mgmt.Txn.create () in
        let res txn = Format.asprintf "%a" Mgmt.Txn.pp_resolution
            (Mgmt.Txn.resolve w ~txn) in
        check Alcotest.bool "no records -> fresh" true
          (Mgmt.Txn.resolve w ~txn:"ghost" = Mgmt.Txn.Fresh);
        ignore (Mgmt.Txn.append w ~txn:"a" (Mgmt.Txn.Begin "d"));
        check Alcotest.bool "begin only -> needs rollback" true
          (match Mgmt.Txn.resolve w ~txn:"a" with
          | Mgmt.Txn.Needs_rollback _ -> true
          | _ -> false);
        ignore (Mgmt.Txn.append w ~txn:"a" (Mgmt.Txn.Stage_start "shadow"));
        check Alcotest.bool "mid-stage names the stage" true
          (contains (res "a") "shadow");
        ignore (Mgmt.Txn.append w ~txn:"a" (Mgmt.Txn.Rollback "slo breach"));
        check Alcotest.bool "rollback without rolled-back -> needs rollback"
          true
          (match Mgmt.Txn.resolve w ~txn:"a" with
          | Mgmt.Txn.Needs_rollback why -> contains why "rollback"
          | _ -> false);
        ignore (Mgmt.Txn.append w ~txn:"a" Mgmt.Txn.Rolled_back);
        check Alcotest.bool "terminal rollback" true
          (match Mgmt.Txn.resolve w ~txn:"a" with
          | Mgmt.Txn.Rolled_back_ why -> contains why "slo breach"
          | _ -> false);
        ignore (Mgmt.Txn.append w ~txn:"b" (Mgmt.Txn.Begin "d"));
        ignore (Mgmt.Txn.append w ~txn:"b" Mgmt.Txn.Committed);
        check Alcotest.bool "committed is terminal" true
          (Mgmt.Txn.resolve w ~txn:"b" = Mgmt.Txn.Committed_));
    tc "armed crash fires after persisting the record" (fun () ->
        let w = Mgmt.Txn.create () in
        Mgmt.Txn.arm_crash w ~after:2;
        ignore (Mgmt.Txn.append w ~txn:"x" (Mgmt.Txn.Begin "d"));
        (try
           ignore (Mgmt.Txn.append w ~txn:"x" (Mgmt.Txn.Stage_start "precheck"));
           Alcotest.fail "expected Crashed"
         with Mgmt.Txn.Crashed -> ());
        check Alcotest.int "the fatal record was persisted first" 2
          (Mgmt.Txn.length w);
        check Alcotest.bool "crash disarmed after firing" false
          (Mgmt.Txn.crash_armed w));
    tc "of_string rejects non-increasing sequence numbers" (fun () ->
        match Mgmt.Txn.of_string "txn a 1 begin d\ntxn a 1 committed\n" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e -> check Alcotest.bool "names the line" true (contains e "2"));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"mutated canary-breach WAL: accepted = canonical"
         ~print:(fun ms ->
           String.concat "; " (List.map Test_recorder.print_mutation ms))
         Test_recorder.mutation_gen
         (fun ms ->
           let text = Test_recorder.mutate (Lazy.force breach_wal) ms in
           match Mgmt.Txn.of_string text with
           | Error _ -> true
           | Ok w -> Mgmt.Txn.to_string w = text));
  ]

(* ---- single machine ---- *)

let machine_rig () =
  let engine = Engine.create () in
  let legacy = Ethswitch.Legacy_switch.create engine ~name:"m0" ~ports:3 () in
  let device = Mgmt.Device.create ~switch:legacy ~vendor:Mgmt.Device.Cisco_like () in
  let wal = Mgmt.Txn.create () in
  (engine, device, wal)

let machine_tests =
  [
    tc "gateless run commits and journals ten records" (fun () ->
        let engine, device, wal = machine_rig () in
        let before = Mgmt.Device.running_config device in
        let plan =
          { Harmless.Migration.device; trunk_port = 2; access_ports = [ 0; 1 ];
            base_vid = None }
        in
        let m = Harmless.Migration.create engine ~wal plan in
        let seen = ref [] in
        Harmless.Migration.on_stage m (fun s ->
            seen := Harmless.Migration.stage_name s :: !seen);
        let st = Harmless.Migration.run m in
        check Alcotest.bool "committed" true (st = Harmless.Migration.Committed);
        check
          Alcotest.(list string)
          "stages in order"
          [ "precheck"; "shadow"; "canary"; "commit" ]
          (List.rev !seen);
        check Alcotest.int "ten WAL records" 10
          (List.length (Mgmt.Txn.records_of wal ~txn:"m0"));
        check Alcotest.bool "port map computed" true
          (Harmless.Migration.port_map m <> None);
        let map = Option.get (Harmless.Migration.port_map m) in
        let want =
          Harmless.Manager.candidate_config ~device ~trunk_port:2 ~map ()
        in
        check Alcotest.bool "running config is the candidate" true
          (Mgmt.Device_config.equal_modes
             (Mgmt.Device.running_config device)
             want);
        check Alcotest.bool "config actually changed" false
          (Mgmt.Device_config.equal_modes before
             (Mgmt.Device.running_config device)));
    tc "shadow hook failure rolls the device back" (fun () ->
        let engine, device, wal = machine_rig () in
        let before = Mgmt.Device.running_config device in
        let plan =
          { Harmless.Migration.device; trunk_port = 2; access_ports = [ 0; 1 ];
            base_vid = None }
        in
        let hooks =
          { Harmless.Migration.no_hooks with
            on_shadow = (fun _ -> Error "no soft-switch capacity") }
        in
        let m = Harmless.Migration.create engine ~wal ~hooks plan in
        (match Harmless.Migration.run m with
        | Harmless.Migration.Rolled_back why ->
            check Alcotest.bool "reason kept" true
              (contains why "no soft-switch capacity")
        | st ->
            Alcotest.failf "expected rollback, got %a"
              Harmless.Migration.pp_status st);
        check Alcotest.int "one rollback" 1 (Harmless.Migration.rollbacks m);
        check Alcotest.bool "device untouched" true
          (Mgmt.Device_config.equal_modes before
             (Mgmt.Device.running_config device));
        check Alcotest.bool "rollback journaled" true
          (List.exists
             (fun (r : Mgmt.Txn.record) ->
               match r.entry with Mgmt.Txn.Rolled_back -> true | _ -> false)
             (Mgmt.Txn.records_of wal ~txn:"m0")));
    tc "canary gate breach triggers rollback" (fun () ->
        let engine, device, wal = machine_rig () in
        let before = Mgmt.Device.running_config device in
        let plan =
          { Harmless.Migration.device; trunk_port = 2; access_ports = [ 0; 1 ];
            base_vid = None }
        in
        let probes = ref 0 in
        let gate =
          Harmless.Migration.gate
            ~interval:(Sim_time.ms 1) ~warmup:(Sim_time.ms 2)
            ~window:(Sim_time.ms 10)
            ~probe:(fun () -> incr probes)
            ~healthy:(fun ~now_ns:_ ->
              if !probes >= 4 then Error "latency SLO breach" else Ok ())
            ()
        in
        let m = Harmless.Migration.create engine ~wal ~gate plan in
        (match Harmless.Migration.run m with
        | Harmless.Migration.Rolled_back why ->
            check Alcotest.bool "slo reason surfaced" true
              (contains why "latency SLO breach")
        | st ->
            Alcotest.failf "expected rollback, got %a"
              Harmless.Migration.pp_status st);
        check Alcotest.bool "device restored" true
          (Mgmt.Device_config.equal_modes before
             (Mgmt.Device.running_config device)));
    tc "recover is a no-op on a committed transaction" (fun () ->
        let engine, device, wal = machine_rig () in
        let plan =
          { Harmless.Migration.device; trunk_port = 2; access_ports = [ 0; 1 ];
            base_vid = None }
        in
        let m = Harmless.Migration.create engine ~wal plan in
        ignore (Harmless.Migration.run m);
        let len = Mgmt.Txn.length wal in
        match Harmless.Migration.recover ~wal ~txn_id:"m0" ~device () with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check Alcotest.bool "stays committed" true
              (r.Harmless.Migration.status = Harmless.Migration.Committed);
            check Alcotest.int "no new records" len (Mgmt.Txn.length wal));
  ]

(* ---- acceptance scenarios ---- *)

let sweep_seeds = [ env_seed; 1337 ]

let check_sweep seed =
  match Harmless.Migration_rig.crash_sweep ~seed () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.bool
        (Printf.sprintf "baseline committed (seed %d)" seed)
        true
        (s.Harmless.Migration_rig.baseline_status = "committed"
        && s.Harmless.Migration_rig.baseline_probe_ok);
      List.iter
        (fun (p : Harmless.Migration_rig.point) ->
          let label what =
            Printf.sprintf "crash@%d (seed %d): %s" p.crash_after seed what
          in
          check Alcotest.bool (label "config consistent") true p.consistent;
          check Alcotest.bool (label "recovery idempotent") true p.idempotent;
          check Alcotest.bool (label "probes answered") true p.probe_ok)
        s.Harmless.Migration_rig.points;
      check Alcotest.bool (Printf.sprintf "sweep verdict (seed %d)" seed) true
        s.Harmless.Migration_rig.ok

let scenario_tests =
  [
    tc "crash sweep recovers at every WAL boundary (two seeds)" (fun () ->
        List.iter check_sweep sweep_seeds);
    tc "same seed yields a byte-identical sweep report" (fun () ->
        let render () =
          match Harmless.Migration_rig.crash_sweep ~seed:env_seed () with
          | Error e -> Alcotest.fail e
          | Ok s -> Harmless.Migration_rig.render_sweep s
        in
        check Alcotest.string "deterministic report" (render ()) (render ()));
    tc "canary SLO breach rolls back and aborts the fleet" (fun () ->
        match Harmless.Migration_rig.canary_breach ~seed:42 () with
        | Error e -> Alcotest.fail e
        | Ok b ->
            check Alcotest.string "pinned rollback reason"
              "canary SLO breach: probe-liveness"
              b.Harmless.Migration_rig.rollback_reason;
            check Alcotest.bool "fleet aborted" true
              b.Harmless.Migration_rig.aborted;
            check Alcotest.int "remaining switches untouched" 2
              b.Harmless.Migration_rig.skipped;
            check Alcotest.int "exactly one rollback" 1
              b.Harmless.Migration_rig.rollbacks_total;
            check Alcotest.bool "connectivity restored" true
              b.Harmless.Migration_rig.probe_ok;
            check Alcotest.bool "verdict" true b.Harmless.Migration_rig.ok);
  ]

(* ---- fleet ---- *)

let fleet_tests =
  [
    tc "fleet migrates every switch under concurrency 1" (fun () ->
        match Harmless.Migration_rig.build ~num_switches:3 ~seed:7 () with
        | Error e -> Alcotest.fail e
        | Ok t ->
            let fl = Harmless.Migration_rig.fleet ~concurrency:1 t in
            Harmless.Migration.Fleet.run fl;
            let r = Harmless.Migration.Fleet.report fl in
            check Alcotest.int "all committed" 3
              r.Harmless.Migration.Fleet.committed;
            check Alcotest.bool "fleet done" true
              (Harmless.Migration.Fleet.state fl = Harmless.Migration.Fleet.Done);
            check Alcotest.bool "probes pass end to end" true
              (Harmless.Migration_rig.probe_all t);
            let panel =
              Harmless.Dashboard.render_migration
                ~wal:(Harmless.Migration_rig.wal t) fl
            in
            check Alcotest.bool "panel shows fleet progress" true
              (contains panel "3/3 committed");
            check Alcotest.bool "panel shows breaker state" true
              (contains panel "breaker: closed");
            check Alcotest.bool "panel summarises the WAL" true
              (contains panel "3 transaction(s)"));
    tc "pause holds the queue; resume drains it" (fun () ->
        match Harmless.Migration_rig.build ~num_switches:3 ~seed:7 () with
        | Error e -> Alcotest.fail e
        | Ok t ->
            let eng = Harmless.Migration_rig.engine t in
            let fl = Harmless.Migration_rig.fleet ~concurrency:1 t in
            Harmless.Migration.Fleet.start fl;
            Harmless.Migration.Fleet.pause fl;
            Engine.run eng
              ~until:(Sim_time.add (Engine.now eng) (Sim_time.ms 200));
            let done_while_paused =
              List.length
                (List.filter
                   (fun ((_, st) : string * Harmless.Migration.Fleet.member_status) ->
                     match st with
                     | Harmless.Migration.Fleet.Done _ -> true
                     | _ -> false)
                   (Harmless.Migration.Fleet.progress fl))
            in
            check Alcotest.int "only the in-flight member finished" 1
              done_while_paused;
            check Alcotest.bool "paused" true
              (Harmless.Migration.Fleet.state fl
              = Harmless.Migration.Fleet.Paused);
            check Alcotest.int "nothing in flight" 0
              (Harmless.Migration.Fleet.in_flight fl);
            Harmless.Migration.Fleet.resume fl;
            Engine.run eng
              ~until:(Sim_time.add (Engine.now eng) (Sim_time.ms 500));
            let r = Harmless.Migration.Fleet.report fl in
            check Alcotest.int "rest completed after resume" 3
              r.Harmless.Migration.Fleet.committed);
    tc "abort skips the queue and reports why" (fun () ->
        match Harmless.Migration_rig.build ~num_switches:3 ~seed:7 () with
        | Error e -> Alcotest.fail e
        | Ok t ->
            let eng = Harmless.Migration_rig.engine t in
            let fl = Harmless.Migration_rig.fleet ~concurrency:1 t in
            Harmless.Migration.Fleet.start fl;
            Harmless.Migration.Fleet.abort fl ~reason:"operator stop";
            Engine.run eng
              ~until:(Sim_time.add (Engine.now eng) (Sim_time.ms 200));
            let r = Harmless.Migration.Fleet.report fl in
            check Alcotest.bool "aborted with the reason" true
              (match r.Harmless.Migration.Fleet.aborted with
              | Some why -> contains why "operator stop"
              | None -> false);
            check Alcotest.int "queued members skipped" 2
              r.Harmless.Migration.Fleet.skipped;
            check Alcotest.bool "panel renders the abort" true
              (contains (Harmless.Migration.Fleet.render fl) "operator stop"));
  ]

let suite =
  [
    ("migration breaker", breaker_tests);
    ("migration wal", wal_tests);
    ("migration machine", machine_tests);
    ("migration scenarios", scenario_tests);
    ("migration fleet", fleet_tests);
  ]
