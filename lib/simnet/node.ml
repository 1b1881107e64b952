type direction = Rx | Tx

type t = {
  name : string;
  engine : Engine.t;
  mutable tx_fns : (Netpkt.Packet.t -> unit) option array;
  mutable carrier_ok : bool array;
  mutable handler : handler;
  counters : Stats.Counter.t;
  (* Per-port packet and byte counts, indexed by port. *)
  mutable rx_packets : int array;
  mutable tx_packets : int array;
  mutable rx_bytes : int array;
  mutable tx_bytes : int array;
  mutable taps : (direction -> int -> Netpkt.Packet.t -> unit) list;
  mutable attachment_watchers : (port:int -> up:bool -> unit) list;
}

and handler = t -> in_port:int -> Netpkt.Packet.t -> unit

let no_op_handler _ ~in_port:_ _ = ()

let create engine ~name ~ports =
  if ports < 0 then invalid_arg "Node.create: negative port count";
  {
    name;
    engine;
    tx_fns = Array.make ports None;
    carrier_ok = Array.make ports true;
    handler = no_op_handler;
    counters = Stats.Counter.create ();
    rx_packets = Array.make ports 0;
    tx_packets = Array.make ports 0;
    rx_bytes = Array.make ports 0;
    tx_bytes = Array.make ports 0;
    taps = [];
    attachment_watchers = [];
  }

let name t = t.name
let engine t = t.engine
let port_count t = Array.length t.tx_fns

let add_ports t n =
  if n < 0 then invalid_arg "Node.add_ports: negative";
  let first = Array.length t.tx_fns in
  t.tx_fns <- Array.append t.tx_fns (Array.make n None);
  t.carrier_ok <- Array.append t.carrier_ok (Array.make n true);
  let widen a = Array.append a (Array.make n 0) in
  t.rx_packets <- widen t.rx_packets;
  t.tx_packets <- widen t.tx_packets;
  t.rx_bytes <- widen t.rx_bytes;
  t.tx_bytes <- widen t.tx_bytes;
  first

let set_handler t h = t.handler <- h

let check_port t port =
  if port < 0 || port >= Array.length t.tx_fns then
    invalid_arg (Printf.sprintf "Node %s: bad port %d" t.name port)

let rec run_taps taps dir port pkt =
  match taps with
  | [] -> ()
  | tap :: rest ->
      tap dir port pkt;
      run_taps rest dir port pkt

let transmit t ~port pkt =
  check_port t port;
  match t.tx_fns.(port) with
  | None -> Stats.Counter.incr t.counters "tx_drop_unattached"
  | Some _ when not t.carrier_ok.(port) ->
      Stats.Counter.incr t.counters "tx_drop_no_carrier"
  | Some send ->
      Stats.Counter.incr t.counters "tx";
      t.tx_packets.(port) <- t.tx_packets.(port) + 1;
      t.tx_bytes.(port) <- t.tx_bytes.(port) + Netpkt.Packet.wire_size pkt;
      run_taps t.taps Tx port pkt;
      send pkt

let deliver t ~port pkt =
  check_port t port;
  Stats.Counter.incr t.counters "rx";
  t.rx_packets.(port) <- t.rx_packets.(port) + 1;
  t.rx_bytes.(port) <- t.rx_bytes.(port) + Netpkt.Packet.wire_size pkt;
  run_taps t.taps Rx port pkt;
  t.handler t ~in_port:port pkt

let notify_attachment t port up =
  List.iter (fun f -> f ~port ~up) t.attachment_watchers

let attach t ~port send =
  check_port t port;
  (match t.tx_fns.(port) with
  | Some _ ->
      invalid_arg (Printf.sprintf "Node %s: port %d already attached" t.name port)
  | None -> ());
  t.tx_fns.(port) <- Some send;
  notify_attachment t port true

let detach t ~port =
  check_port t port;
  if Option.is_some t.tx_fns.(port) then begin
    t.tx_fns.(port) <- None;
    notify_attachment t port false
  end

let attached t ~port =
  check_port t port;
  Option.is_some t.tx_fns.(port)

let set_carrier t ~port up =
  check_port t port;
  if t.carrier_ok.(port) <> up then begin
    t.carrier_ok.(port) <- up;
    (* Only signal a transition the far side can observe: a port with no
       link attached has no carrier to lose. *)
    if Option.is_some t.tx_fns.(port) then notify_attachment t port up
  end

let carrier t ~port =
  check_port t port;
  Option.is_some t.tx_fns.(port) && t.carrier_ok.(port)

let counters t = t.counters

type port_counters = {
  rx_packets : int;
  tx_packets : int;
  rx_bytes : int;
  tx_bytes : int;
}

let port_counters t ~port =
  check_port t port;
  {
    rx_packets = t.rx_packets.(port);
    tx_packets = t.tx_packets.(port);
    rx_bytes = t.rx_bytes.(port);
    tx_bytes = t.tx_bytes.(port);
  }

let add_tap t tap = t.taps <- t.taps @ [ tap ]

let on_attachment_change t f =
  t.attachment_watchers <- t.attachment_watchers @ [ f ]
