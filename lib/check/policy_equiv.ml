open Netpkt
module P = Openflow.Pipeline
module Rng = Simnet.Rng
module Syn = Policy.Syntax

type spec = {
  spec_name : string;
  ports : int;
  policy : Syn.t;
  table : Openflow.Of_message.t list;
  mac_pool : Mac_addr.t list;
  ip_pool : Ipv4_addr.t list;
  l4_pool : int list;
}

type step = { now_ns : int; in_port : int; pkt : Packet.t }
type case = { spec : spec; steps : step list }

type divergence = {
  impl : string;
  step_index : int;
  expected : string;
  actual : string;
  case : case;
}

(* ---- the built-in specs ---- *)

let ip = Ipv4_addr.of_string
let mac = Mac_addr.make_local
let compiled policy = Policy.Compile.messages (Policy.Compile.compile policy)

let dmz_spec () =
  let vm i = { Sdnctl.Dmz.vm_ip = ip (Printf.sprintf "10.0.0.%d" i);
               vm_mac = mac (0x20 + i); vm_port = i - 1 } in
  let vm1 = vm 1 and vm2 = vm 2 and vm3 = vm 3 in
  let dmz =
    { Sdnctl.Dmz.vms = [ vm1; vm2; vm3 ];
      allowed =
        [ (vm1.Sdnctl.Dmz.vm_ip, vm2.Sdnctl.Dmz.vm_ip);
          (vm1.Sdnctl.Dmz.vm_ip, vm3.Sdnctl.Dmz.vm_ip) ] }
  in
  let policy = Sdnctl.Dmz.fragment dmz () in
  {
    spec_name = "dmz";
    ports = 4;
    policy;
    table = compiled policy;
    mac_pool =
      [ mac 0x21; mac 0x22; mac 0x23; Mac_addr.broadcast; mac 0x99 ];
    ip_pool = [ ip "10.0.0.1"; ip "10.0.0.2"; ip "10.0.0.3"; ip "192.0.2.1" ];
    l4_pool = [ 80; 443 ];
  }

let lb_spec () =
  let backends =
    List.init 3 (fun i ->
        { Sdnctl.Load_balancer.backend_ip = ip (Printf.sprintf "10.9.1.%d" (i + 1));
          backend_mac = mac (0xb1 + i); backend_port = i + 1 })
  in
  let vip_ip = ip "10.9.0.9" and vip_mac = mac 0x91 in
  let policy =
    Sdnctl.Load_balancer.fragment ~vip_ip ~vip_mac ~ingress_port:0 ~backends ()
  in
  {
    spec_name = "lb";
    ports = 4;
    policy;
    table = compiled policy;
    mac_pool =
      (vip_mac
      :: List.map (fun b -> b.Sdnctl.Load_balancer.backend_mac) backends)
      @ [ Mac_addr.broadcast; mac 0x99 ];
    ip_pool =
      (vip_ip :: List.map (fun b -> b.Sdnctl.Load_balancer.backend_ip) backends)
      @ [ ip "192.0.2.1" ];
    l4_pool = [ 80; 8080 ];
  }

let parental_spec () =
  let t =
    Sdnctl.Parental_control.create
      ~sites:
        [ ("blocked.example", ip "203.0.113.5");
          ("other.example", ip "203.0.113.7") ]
      ~blocked:
        [ (ip "10.5.0.1", "blocked.example");
          (ip "10.5.0.2", "nosuch.example");
          (* user 1 carries a drop *and* a sniff rule *)
          (ip "10.5.0.1", "nosuch.example") ]
      ()
  in
  let policy = Sdnctl.Parental_control.fragment t in
  {
    spec_name = "parental";
    ports = 3;
    policy;
    table = compiled policy;
    mac_pool = [ mac 0x51; mac 0x52; Mac_addr.broadcast ];
    ip_pool =
      [ ip "10.5.0.1"; ip "10.5.0.2"; ip "10.5.0.3";
        ip "203.0.113.5"; ip "203.0.113.7"; ip "192.0.2.1" ];
    (* 80 twice: blocked-site traffic is the interesting half *)
    l4_pool = [ 80; 80; 443 ];
  }

let ratelimit_spec () =
  let limits =
    [ { Sdnctl.Rate_limiter.subject = ip "10.7.0.1"; rate_kbps = 512; burst_kb = 16 };
      { Sdnctl.Rate_limiter.subject = ip "10.7.0.2"; rate_kbps = 256; burst_kb = 8 } ]
  in
  let num_hosts = 4 in
  let policy =
    (* Metered traffic the L2 band cannot forward must still bill the
       meter. *)
    Syn.seq
      (Sdnctl.Rate_limiter.fragment ~limits ())
      (Syn.orelse
         (Sdnctl.Policy_app.l2_band
            (List.init num_hosts (fun i -> (mac (i + 1), i))))
         Syn.discard)
  in
  {
    spec_name = "ratelimit";
    ports = 4;
    policy;
    table = compiled policy;
    mac_pool =
      List.init num_hosts (fun i -> mac (i + 1))
      @ [ Mac_addr.broadcast; mac 0x99 ];
    ip_pool = [ ip "10.7.0.1"; ip "10.7.0.2"; ip "10.7.0.3" ];
    l4_pool = [ 53; 80 ];
  }

let gateway_spec () =
  let g = Sdnctl.Gateway.default () in
  let policy = Sdnctl.Gateway.policy g in
  {
    spec_name = "gateway";
    ports = g.Sdnctl.Gateway.num_ports;
    policy;
    table = compiled policy;
    mac_pool = Sdnctl.Gateway.macs g;
    ip_pool = Sdnctl.Gateway.ips g;
    l4_pool = Sdnctl.Gateway.l4_ports g;
  }

let specs () =
  [ dmz_spec (); lb_spec (); parental_spec (); ratelimit_spec ();
    gateway_spec () ]

let find_spec name =
  List.find_opt (fun s -> s.spec_name = name) (specs ())

(* ---- normalization ---- *)

let normalize ~in_port outputs =
  let render_packet pkt = Hex.encode (Packet.encode pkt) in
  let render = function
    | P.Port (p, pkt) -> Printf.sprintf "port:%d:%s" p (render_packet pkt)
    | P.In_port pkt -> Printf.sprintf "port:%d:%s" in_port (render_packet pkt)
    | P.Flood pkt -> "flood:" ^ render_packet pkt
    | P.All_ports pkt -> "all:" ^ render_packet pkt
    | P.Controller (n, pkt) ->
        Printf.sprintf "ctrl:%d:%s" n (render_packet pkt)
  in
  "["
  ^ String.concat " "
      (List.sort_uniq String.compare (List.map render outputs))
  ^ "]"

(* ---- running a case across every implementation ---- *)

type runner = { rname : string; process : step -> P.output list }

let oracle_runner msgs =
  let pipeline = P.create ~num_tables:1 () in
  List.iter (Differential.apply_message pipeline ~now_ns:0) msgs;
  { rname = "compiled:oracle";
    process =
      (fun s ->
        (Oracle.execute pipeline ~now_ns:s.now_ns ~in_port:s.in_port s.pkt)
          .P.outputs) }

let backend_runners msgs =
  List.map
    (fun (name, create) ->
      let pipeline = P.create ~num_tables:1 () in
      let dp = create pipeline in
      List.iter (Differential.apply_message pipeline ~now_ns:0) msgs;
      { rname = "compiled:" ^ name;
        process =
          (fun s ->
            (fst
               (dp.Softswitch.Dataplane.process ~now_ns:s.now_ns
                  ~in_port:s.in_port s.pkt))
              .P.outputs) })
    Softswitch.Backends.all

let run_case case =
  let sp = case.spec in
  let interp = Policy.Interp.create sp.policy in
  let runners = oracle_runner sp.table :: backend_runners sp.table in
  let divergence = ref None in
  List.iteri
    (fun i s ->
      if !divergence = None then begin
        let expected =
          normalize ~in_port:s.in_port
            (Policy.Interp.run interp ~now_ns:s.now_ns ~in_port:s.in_port s.pkt)
        in
        List.iter
          (fun r ->
            if !divergence = None then
              let actual = normalize ~in_port:s.in_port (r.process s) in
              if actual <> expected then
                divergence :=
                  Some
                    { impl = r.rname; step_index = i; expected; actual; case })
          runners
      end)
    case.steps;
  !divergence

(* ---- generation ---- *)

let pick rng l = List.nth l (Rng.int rng (List.length l))
let vid_pool = [ 101; 102 ]

let gen_packet rng sp =
  let m () = pick rng sp.mac_pool in
  let i () = pick rng sp.ip_pool in
  let l () = pick rng sp.l4_pool in
  match Rng.int rng 8 with
  | 0 -> Packet.arp_request ~src_mac:(m ()) ~src_ip:(i ()) ~target_ip:(i ())
  | 1 ->
      Packet.icmp_echo ~dst:(m ()) ~src:(m ()) ~ip_src:(i ()) ~ip_dst:(i ())
        ~id:7 ~seq:1
  | n ->
      let vlans =
        if Rng.int rng 4 = 0 then [ Vlan.make (pick rng vid_pool) ] else []
      in
      let mk = if n land 1 = 0 then Packet.udp else Packet.tcp ?flags:None in
      mk ~vlans ~dst:(m ()) ~src:(m ()) ~ip_src:(i ()) ~ip_dst:(i ())
        ~src_port:(l ()) ~dst_port:(l ()) "payload"

let gen_case sp ~seed =
  let rng = Rng.create seed in
  let now = ref 1_000 in
  let n = 15 + Rng.int rng 26 in
  let steps =
    List.init n (fun _ ->
        let s =
          { now_ns = !now;
            in_port = Rng.int rng sp.ports;
            pkt = gen_packet rng sp }
        in
        now := !now + 1 + Rng.int rng 1_000_000;
        (* Occasionally jump far enough that depleted meter buckets
           refill, so both the recovering and the depleted token-bucket
           paths are compared. *)
        if Rng.int rng 8 = 0 then now := !now + Rng.int rng 2_500_000_000;
        s)
  in
  { spec = sp; steps }

(* ---- shrinking: greedy step removal to a fixpoint ---- *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let shrink d0 =
  let best = ref d0 in
  let improved = ref true in
  while !improved do
    improved := false;
    let case = !best.case in
    let n = List.length case.steps in
    let i = ref (n - 1) in
    while !i >= 0 do
      let candidate = { case with steps = drop_nth case.steps !i } in
      (match run_case candidate with
      | Some d ->
          best := d;
          improved := true
      | None -> ());
      decr i
    done
  done;
  !best

let check_case sp ~seed =
  match run_case (gen_case sp ~seed) with
  | None -> None
  | Some d -> Some (shrink d)

type report = { cases : int; packets : int; divergences : divergence list }

let run ?(on_divergence = fun _ -> ()) ~spec ~seed ~cases () =
  let packets = ref 0 in
  let divergences = ref [] in
  for i = 0 to cases - 1 do
    let case = gen_case spec ~seed:(seed + i) in
    packets := !packets + List.length case.steps;
    if List.length !divergences < 5 then
      match run_case case with
      | None -> ()
      | Some d ->
          let d = shrink d in
          divergences := d :: !divergences;
          on_divergence d
  done;
  { cases; packets = !packets; divergences = List.rev !divergences }

(* ---- repro files ---- *)

let to_string case =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# harmless policy-equiv repro v1\n";
  Printf.bprintf b "spec %s\n" case.spec.spec_name;
  List.iter
    (fun s ->
      Printf.bprintf b "packet %d %d %s\n" s.now_ns s.in_port
        (Hex.encode (Packet.encode s.pkt)))
    case.steps;
  Buffer.contents b

let of_string text =
  let ( let* ) = Result.bind in
  let int_of s ~what =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let parse_line (sp, steps) line =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [] -> Ok (sp, steps)
    | tok :: _ when tok.[0] = '#' -> Ok (sp, steps)
    | [ "spec"; name ] -> (
        match find_spec name with
        | Some sp -> Ok (Some sp, steps)
        | None -> Error (Printf.sprintf "unknown spec %S" name))
    | [ "packet"; now; port; hex ] ->
        let* now_ns = int_of now ~what:"timestamp" in
        let* in_port = int_of port ~what:"port" in
        let* bytes = Hex.decode hex in
        let* pkt =
          match Packet.decode bytes with
          | pkt -> Ok pkt
          | exception (Wire.Truncated _ | Wire.Malformed _) ->
              Error "bad packet bytes"
        in
        Ok (sp, { now_ns; in_port; pkt } :: steps)
    | tok :: _ -> Error (Printf.sprintf "unknown directive %S" tok)
  in
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok acc
    | line :: rest -> (
        match parse_line acc line with
        | Ok acc -> go (n + 1) acc rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  let* sp, steps = go 1 (None, []) lines in
  match sp with
  | None -> Error "no spec directive"
  | Some sp -> Ok { spec = sp; steps = List.rev steps }

let save ~path ?comment case =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match comment with
      | Some c ->
          String.split_on_char '\n' c
          |> List.iter (fun l -> output_string oc ("# " ^ l ^ "\n"))
      | None -> ());
      output_string oc (to_string case))

let load ~path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Result.map run_case (of_string text)

let pp_divergence fmt d =
  Format.fprintf fmt
    "@[<v>divergence: %s disagrees with the interpreter at step %d@,\
     expected %s@,\
     actual   %s@,\
     repro (%d packets):@,%s@]"
    d.impl d.step_index d.expected d.actual
    (List.length d.case.steps)
    (to_string d.case)
