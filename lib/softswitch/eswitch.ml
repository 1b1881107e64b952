open Netpkt
open Openflow

(* The value of a field the packet does not carry (no VLAN tag, not IP,
   no L4 ports).  No rule stores it: rule values are wire fields, MACs
   are 48-bit and IPv4 addresses are read unsigned. *)
let absent = min_int
let opt = function Some v -> v | None -> absent
let ip_value ip = Int32.to_int (Ipv4_addr.to_int32 ip) land 0xffff_ffff
let ip_opt = function Some ip -> ip_value ip | None -> absent

(* The packet's value of field [id].  Ids number the twelve fields a
   template can test exactly; a template hashes and confirms its fields
   in id order. *)
let field_value id ~in_port (f : Packet.Fields.t) =
  match id with
  | 0 -> in_port
  | 1 -> Mac_addr.to_int f.Packet.Fields.eth_dst
  | 2 -> Mac_addr.to_int f.Packet.Fields.eth_src
  | 3 -> f.Packet.Fields.eth_type
  | 4 -> opt f.Packet.Fields.vlan_vid
  | 5 -> opt f.Packet.Fields.vlan_pcp
  | 6 -> ip_opt f.Packet.Fields.ip_src
  | 7 -> ip_opt f.Packet.Fields.ip_dst
  | 8 -> opt f.Packet.Fields.ip_proto
  | 9 -> opt f.Packet.Fields.ip_tos
  | 10 -> opt f.Packet.Fields.l4_src
  | _ -> opt f.Packet.Fields.l4_dst

(* A rule's exact tests as (field id, value) pairs in id order, or None
   if some test is a prefix, a mask or a presence test (the residual
   path). *)
let exact_tests (m : Of_match.t) =
  let exact = ref true in
  let tests = ref [] in
  let add id v = tests := (id, v) :: !tests in
  let int id = Option.iter (add id) in
  let mac id = function
    | None -> ()
    | Some mt ->
        if Mac_addr.equal mt.Of_match.mask Mac_addr.broadcast then
          add id (Mac_addr.to_int mt.Of_match.value)
        else exact := false
  in
  let ip id = function
    | None -> ()
    | Some p ->
        if Ipv4_addr.Prefix.length p = 32 then
          add id (ip_value (Ipv4_addr.Prefix.base p))
        else exact := false
  in
  int 0 m.Of_match.in_port;
  mac 1 m.Of_match.eth_dst;
  mac 2 m.Of_match.eth_src;
  int 3 m.Of_match.eth_type;
  (match m.Of_match.vlan with
  | None -> ()
  | Some (Of_match.Vid v) -> add 4 v
  | Some (Of_match.Absent | Of_match.Present) -> exact := false);
  int 5 m.Of_match.vlan_pcp;
  ip 6 m.Of_match.ip_src;
  ip 7 m.Of_match.ip_dst;
  int 8 m.Of_match.ip_proto;
  int 9 m.Of_match.ip_tos;
  int 10 m.Of_match.l4_src;
  int 11 m.Of_match.l4_dst;
  if !exact then Some (List.rev !tests) else None

let mix h v = (h * 31) + v
let key_hash key = Array.fold_left mix 0 key
let bucket_of h buckets = (h lxor (h lsr 17)) land (Array.length buckets - 1)

(* A template hit or a residual candidate.  [order] is the entry's
   position in the table (best first); [hit] is the lookup's answer,
   built once here so a probe allocates nothing. *)
type slot = {
  key : int array;  (* template slots: the tested values, in field order *)
  match_ : Of_match.t;  (* residual slots: the match to test *)
  order : int;
  hit : Flow_entry.t option;
}

let no_slot = { key = [||]; match_ = Of_match.any; order = max_int; hit = None }

(* A template: the field ids a group of entries all test exactly, and
   their slots hashed into a power-of-two bucket array. *)
type template = { fields : int array; buckets : slot list array }

type compiled_table = {
  templates : template array;
  residual : slot array;  (* table order: best first *)
}

let rec confirm key fields i ~in_port f =
  i = Array.length fields
  || key.(i) = field_value fields.(i) ~in_port f
     && confirm key fields (i + 1) ~in_port f

let rec first_confirmed fields ~in_port f = function
  | [] -> no_slot
  | s :: rest ->
      if confirm s.key fields 0 ~in_port f then s
      else first_confirmed fields ~in_port f rest

let probe tpl ~in_port f =
  let h = ref 0 in
  for i = 0 to Array.length tpl.fields - 1 do
    h := mix !h (field_value tpl.fields.(i) ~in_port f)
  done;
  first_confirmed tpl.fields ~in_port f
    tpl.buckets.(bucket_of !h tpl.buckets)

(* The best residual candidate that beats [best]; the residual is in
   table order, so the scan stops at the first entry that cannot. *)
let rec scan_residual residual i best ~in_port f =
  if i = Array.length residual then best
  else
    let s = residual.(i) in
    if s.order >= best.order then best
    else if Of_match.matches s.match_ ~in_port f then s
    else scan_residual residual (i + 1) best ~in_port f

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

(* A template's slots hold distinct values, so at most one confirms a
   packet and the order inside a bucket does not matter. *)
let make_template fields slots =
  let buckets = Array.make (pow2_at_least (List.length slots) 1) [] in
  List.iter
    (fun s ->
      let b = bucket_of (key_hash s.key) buckets in
      buckets.(b) <- s :: buckets.(b))
    slots;
  { fields; buckets }

let compile_table table =
  (* field ids -> (tested values -> the best slot with them) *)
  let groups : (int list, (int list, slot) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let residual = ref [] in
  List.iteri
    (fun order entry ->
      let hit = Some entry in
      match exact_tests entry.Flow_entry.match_ with
      | None ->
          residual :=
            { key = [||]; match_ = entry.Flow_entry.match_; order; hit }
            :: !residual
      | Some tests ->
          let ids = List.map fst tests and values = List.map snd tests in
          let group =
            match Hashtbl.find_opt groups ids with
            | Some g -> g
            | None ->
                let g = Hashtbl.create 64 in
                Hashtbl.replace groups ids g;
                g
          in
          (* Entries come best first: an equal key later is shadowed. *)
          if not (Hashtbl.mem group values) then
            Hashtbl.replace group values
              { key = Array.of_list values; match_ = Of_match.any; order; hit })
    (Flow_table.entries table);
  let templates =
    Hashtbl.fold
      (fun ids group acc ->
        let slots = Hashtbl.fold (fun _ s acc -> s :: acc) group [] in
        make_template (Array.of_list ids) slots :: acc)
      groups []
  in
  {
    templates = Array.of_list templates;
    residual = Array.of_list (List.rev !residual);
  }

let create pipeline =
  let compiled = ref [||] in
  let seen_version = ref (-1) in
  let recompiles = ref 0 in
  let packets = ref 0 in
  let recompile () =
    compiled :=
      Array.init (Pipeline.num_tables pipeline) (fun i ->
          compile_table (Pipeline.table pipeline i));
    incr recompiles
  in
  (* Every template is probed and every residual entry counts as
     scanned, whatever matched: the simulated cycle cost charges both. *)
  let probes = ref 0 in
  let residual_scans = ref 0 in
  let lookup table_id ~in_port fields =
    let ct = !compiled.(table_id) in
    probes := !probes + Array.length ct.templates;
    residual_scans := !residual_scans + Array.length ct.residual;
    let best = ref no_slot in
    for i = 0 to Array.length ct.templates - 1 do
      let s = probe ct.templates.(i) ~in_port fields in
      if s.order < !best.order then best := s
    done;
    (scan_residual ct.residual 0 !best ~in_port fields).hit
  in
  let process ~now_ns ~in_port pkt =
    let m = Alloc_probe.mark () in
    let v = Pipeline.version pipeline in
    if v <> !seen_version then begin
      seen_version := v;
      recompile ()
    end;
    incr packets;
    probes := 0;
    residual_scans := 0;
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt in
    let cycles =
      Dataplane.Cost.parse
      + (!probes * Dataplane.Cost.eswitch_template)
      + (!residual_scans * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result
    in
    Alloc_probe.record "lookup.eswitch" m;
    (result, cycles)
  in
  let stats () =
    let template_count =
      Array.fold_left
        (fun acc ct -> acc + Array.length ct.templates)
        0 !compiled
    in
    [
      ("packets", !packets);
      ("recompiles", !recompiles);
      ("templates", template_count);
    ]
  in
  { Dataplane.name = "eswitch"; process; stats; tier = (fun () -> "specialized") }
