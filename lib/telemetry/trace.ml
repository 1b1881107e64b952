(* The flight recorder: per-packet hops and control-plane events in one
   recorder (see the interface for the model).  The installed recorder
   is the only mutable global here; when there is none, a guarded call
   site pays one ref read and allocates nothing.  Hops are kept until
   [clear]; events go to one bounded ring per stream, so a chatty
   subsystem can never evict the quiet one that holds the root cause. *)

type layer =
  | Host
  | Legacy
  | Switch
  | Controller
  | Manager
  | Other of string

let layer_name = function
  | Host -> "host"
  | Legacy -> "legacy"
  | Switch -> "switch"
  | Controller -> "controller"
  | Manager -> "manager"
  | Other s -> s

type hop = {
  seq : int;
  ts_ns : int;
  component : string;
  layer : layer;
  stage : string;
  port : int option;
  trace_key : int;
  packet : Netpkt.Packet.t;
  bytes : int;
  cycles : int;
  words : int;
  detail : string;
}

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  seq : int;
  ts_ns : int;
  level : level;
  stream : string;
  name : string;
  corr : int;
  detail : string;
}

type trace = { key : int; hops : hop list }

(* Fixed-capacity ring of events, oldest evicted first. *)
type ring = {
  data : event array;
  mutable start : int; (* index of the oldest event *)
  mutable len : int;
}

let dummy_event =
  { seq = 0; ts_ns = 0; level = Debug; stream = ""; name = ""; corr = 0; detail = "" }

let ring_create capacity =
  { data = Array.make capacity dummy_event; start = 0; len = 0 }

(* Returns true when an old event was evicted. *)
let ring_push r e =
  let cap = Array.length r.data in
  if r.len < cap then begin
    r.data.((r.start + r.len) mod cap) <- e;
    r.len <- r.len + 1;
    false
  end
  else begin
    r.data.(r.start) <- e;
    r.start <- (r.start + 1) mod cap;
    true
  end

let ring_to_list r =
  List.init r.len (fun i -> r.data.((r.start + i) mod Array.length r.data))

type recorder = {
  clock : unit -> int;
  stream_capacity : int;
  mutable next_seq : int; (* shared by hops and events *)
  mutable rev_hops : hop list;
  (* One-entry key memo: [memo_key = key_of_packet memo_pkt] always. *)
  mutable memo_pkt : Netpkt.Packet.t;
  mutable memo_key : int;
  rings : (string, ring) Hashtbl.t;
  mutable recorded : int;
  mutable dropped : int;
}

let installed : recorder option ref = ref None

let enabled () = Option.is_some !installed

let key_of_packet (pkt : Netpkt.Packet.t) =
  Hashtbl.hash (Netpkt.Packet.encode { pkt with Netpkt.Packet.vlans = [] })

(* A fresh or cleared recorder's memo, keyed like any other frame. *)
let no_frame =
  Netpkt.Packet.make ~dst:Netpkt.Mac_addr.zero ~src:Netpkt.Mac_addr.zero
    (Raw (Unknown 0, ""))

let no_frame_key = key_of_packet no_frame

(* The key reads only [dst], [src] and [l3], so a frame sharing all
   three with the memo's (the same frame re-tagged) has the memo's key. *)
let trace_key r (pkt : Netpkt.Packet.t) =
  let m = r.memo_pkt in
  if pkt.dst == m.dst && pkt.src == m.src && pkt.l3 == m.l3 then r.memo_key
  else begin
    let key = key_of_packet pkt in
    r.memo_pkt <- pkt;
    r.memo_key <- key;
    key
  end

let corr_of_string s =
  match Hashtbl.hash s with 0 -> 1 | h -> h

let emit ~ts_ns ~component ~layer ~stage ?port ?(cycles = 0) ?(detail = "") pkt =
  match !installed with
  | None -> ()
  | Some r ->
      (* Captured before any of the emit machinery allocates, so
         consecutive hops' deltas tile the trace's end-to-end
         allocation — including the tracing tax itself. *)
      let words = int_of_float (Gc.minor_words ()) in
      let seq = r.next_seq in
      r.next_seq <- seq + 1;
      r.rev_hops <-
        {
          seq;
          ts_ns;
          component;
          layer;
          stage;
          port;
          trace_key = trace_key r pkt;
          packet = pkt;
          bytes = Netpkt.Packet.wire_size pkt;
          cycles;
          words;
          detail;
        }
        :: r.rev_hops;
      Alloc_probe.record "trace.emit" words

let is_token s =
  s <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s)

let validate_token what s =
  if not (is_token s) then
    invalid_arg (Printf.sprintf "Trace.event: %s must be a non-empty token: %S" what s)

let sanitize_detail s =
  if String.contains s '\n' then
    String.map (function '\n' -> ' ' | c -> c) s
  else s

let event ?(level = Info) ?ts_ns ?(corr = 0) ?(detail = "") ~stream name =
  match !installed with
  | None -> ()
  | Some r ->
      validate_token "stream" stream;
      validate_token "event name" name;
      let ts_ns = match ts_ns with Some ts -> ts | None -> r.clock () in
      let e =
        {
          seq = r.next_seq;
          ts_ns;
          level;
          stream;
          name;
          corr;
          detail = sanitize_detail detail;
        }
      in
      r.next_seq <- r.next_seq + 1;
      r.recorded <- r.recorded + 1;
      let ring =
        match Hashtbl.find_opt r.rings stream with
        | Some ring -> ring
        | None ->
            let ring = ring_create r.stream_capacity in
            Hashtbl.replace r.rings stream ring;
            ring
      in
      if ring_push ring e then r.dropped <- r.dropped + 1

let by_time_then_seq ts_a seq_a ts_b seq_b =
  match compare ts_a ts_b with 0 -> compare seq_a seq_b | c -> c

module Collector = struct
  type t = recorder

  let create ?(stream_capacity = 512) ?(clock = fun () -> 0) () =
    if stream_capacity < 2 then
      invalid_arg "Trace.Collector.create: stream_capacity < 2";
    {
      clock;
      stream_capacity;
      next_seq = 1;
      rev_hops = [];
      memo_pkt = no_frame;
      memo_key = no_frame_key;
      rings = Hashtbl.create 16;
      recorded = 0;
      dropped = 0;
    }

  let install t = installed := Some t

  let uninstall t =
    match !installed with
    | Some r when r == t -> installed := None
    | Some _ | None -> ()

  let clear t =
    t.next_seq <- 1;
    t.rev_hops <- [];
    t.memo_pkt <- no_frame;
    t.memo_key <- no_frame_key;
    Hashtbl.reset t.rings;
    t.recorded <- 0;
    t.dropped <- 0

  let last_seq t = t.next_seq - 1
  let hops t = List.rev t.rev_hops

  let traces ?(after = 0) t =
    let ordered =
      List.stable_sort
        (fun (a : hop) (b : hop) -> by_time_then_seq a.ts_ns a.seq b.ts_ns b.seq)
        (List.fold_left
           (fun acc (hop : hop) -> if hop.seq > after then hop :: acc else acc)
           [] t.rev_hops)
    in
    (* Group by key, keeping first-appearance order of the keys. *)
    let tbl : (int, hop list ref) Hashtbl.t = Hashtbl.create 16 in
    let key_order = ref [] in
    List.iter
      (fun hop ->
        match Hashtbl.find_opt tbl hop.trace_key with
        | Some cell -> cell := hop :: !cell
        | None ->
            Hashtbl.replace tbl hop.trace_key (ref [ hop ]);
            key_order := hop.trace_key :: !key_order)
      ordered;
    List.rev_map
      (fun key -> { key; hops = List.rev !(Hashtbl.find tbl key) })
      !key_order

  let streams t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.rings [] |> List.sort String.compare

  let events ?stream ?min_level t =
    let keep e =
      match min_level with
      | None -> true
      | Some l -> level_rank e.level >= level_rank l
    in
    let of_ring r = List.filter keep (ring_to_list r) in
    let all =
      match stream with
      | Some s -> (
          match Hashtbl.find_opt t.rings s with
          | Some r -> of_ring r
          | None -> [])
      | None ->
          List.concat_map (fun s -> of_ring (Hashtbl.find t.rings s)) (streams t)
    in
    List.sort
      (fun (a : event) (b : event) -> by_time_then_seq a.ts_ns a.seq b.ts_ns b.seq)
      all

  let recorded t = t.recorded
  let dropped t = t.dropped
end

let with_collector ?stream_capacity ?clock f =
  let c = Collector.create ?stream_capacity ?clock () in
  let saved = !installed in
  Collector.install c;
  Fun.protect
    ~finally:(fun () -> installed := saved)
    (fun () ->
      let result = f c in
      (result, Collector.traces c))

(* ---- event line format ---- *)

let event_to_string e =
  if e.detail = "" then
    Printf.sprintf "event %d %d %s %s %08x %s" e.seq e.ts_ns
      (level_name e.level) e.stream e.corr e.name
  else
    Printf.sprintf "event %d %d %s %s %08x %s %s" e.seq e.ts_ns
      (level_name e.level) e.stream e.corr e.name e.detail

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* Parse leniently, then accept only a line the renderer gives back
   byte for byte: [int_of_string] alone would also take "1_0", "+1" or
   "0b101", which render differently. *)
let event_of_string line =
  let malformed () = Stdlib.Error (Printf.sprintf "malformed event line %S" line) in
  let kw, rest = split_word line in
  if kw <> "event" then Stdlib.Error "expected 'event'"
  else
    let seq_s, rest = split_word rest in
    let ts_s, rest = split_word rest in
    let level_s, rest = split_word rest in
    let stream, rest = split_word rest in
    let corr_s, rest = split_word rest in
    let name, detail = split_word rest in
    match
      ( int_of_string_opt seq_s,
        int_of_string_opt ts_s,
        level_of_string level_s,
        int_of_string_opt ("0x" ^ corr_s) )
    with
    | Some seq, Some ts_ns, Some level, Some corr when is_token stream && is_token name
      ->
        let e = { seq; ts_ns; level; stream; name; corr; detail } in
        if event_to_string e = line then Stdlib.Ok e else malformed ()
    | _ -> malformed ()

(* ---- pretty-printing ---- *)

let pp_time fmt ns =
  if ns < 1_000 then Format.fprintf fmt "%dns" ns
  else if ns < 1_000_000 then Format.fprintf fmt "%.3fus" (float_of_int ns /. 1e3)
  else Format.fprintf fmt "%.3fms" (float_of_int ns /. 1e6)

let pp_hop fmt (hop : hop) =
  Format.fprintf fmt "%-10s %-14s %-18s"
    (Format.asprintf "%a" pp_time hop.ts_ns)
    hop.component
    (layer_name hop.layer ^ "." ^ hop.stage);
  (match hop.port with
  | Some p -> Format.fprintf fmt " port=%-3d" p
  | None -> Format.fprintf fmt "         ");
  if hop.cycles > 0 then Format.fprintf fmt " %5d cyc" hop.cycles
  else Format.fprintf fmt "          ";
  if hop.detail <> "" then Format.fprintf fmt "  %s" hop.detail

let pp_trace fmt trace =
  (match trace.hops with
  | first :: _ ->
      Format.fprintf fmt "packet %08x: %a (%dB, %d hops)@." trace.key
        Netpkt.Packet.pp first.packet first.bytes (List.length trace.hops)
  | [] -> Format.fprintf fmt "packet %08x: (no hops)@." trace.key);
  List.iter (fun hop -> Format.fprintf fmt "  %a@." pp_hop hop) trace.hops

let pp_event fmt e =
  Format.fprintf fmt "%-10s %-5s %-20s"
    (Format.asprintf "%a" pp_time e.ts_ns)
    (level_name e.level)
    (e.stream ^ "." ^ e.name);
  if e.corr <> 0 then Format.fprintf fmt " [%08x]" e.corr
  else Format.fprintf fmt "           ";
  if e.detail <> "" then Format.fprintf fmt "  %s" e.detail
