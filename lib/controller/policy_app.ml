open Openflow
module Compile = Policy.Compile

type t = {
  name : string;
  table_id : int;
  source : unit -> Policy.Syntax.t;
  mutable current : Compile.t;
  installed : (int64, Compile.t) Hashtbl.t;
}

let of_compile ~name ~source current =
  {
    name;
    table_id = Compile.table_id current;
    source;
    current;
    installed = Hashtbl.create 4;
  }

let live ~name source =
  of_compile ~name ~source (Compile.compile (source ()))

let compiled t = t.current

let meters c =
  List.filter_map
    (function
      | Of_message.Add_meter { id; band } -> Some (id, band)
      | Of_message.Modify_meter _ | Of_message.Delete_meter _ -> None)
    (Compile.meter_mods c)

let groups c =
  List.filter_map
    (function
      | Of_message.Add_group { id; gtype; buckets } -> Some (id, (gtype, buckets))
      | Of_message.Modify_group _ | Of_message.Delete_group _ -> None)
    (Compile.group_mods c)

(* Entries of [next] that [prev] lacks ([`Add]) or holds differently
   ([`Modify]), and the keys of [prev] that [next] lacks. *)
let changes prev next =
  let fresh =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k prev with
        | None -> Some (`Add, k, v)
        | Some v' when v' <> v -> Some (`Modify, k, v)
        | Some _ -> None)
      next
  in
  (fresh, List.filter (fun (k, _) -> not (List.mem_assoc k next)) prev)

let rules c =
  List.map
    (fun (fm : Of_message.flow_mod) -> ((fm.priority, fm.match_), fm))
    (Compile.flow_mods c)

let diff ~installed next =
  let meter_up, meter_gone = changes (meters installed) (meters next) in
  let group_up, group_gone = changes (groups installed) (groups next) in
  let rule_up, rule_gone = changes (rules installed) (rules next) in
  List.map
    (fun (op, id, band) ->
      Of_message.Meter_mod
        (match op with
        | `Add -> Of_message.Add_meter { id; band }
        | `Modify -> Of_message.Modify_meter { id; band }))
    meter_up
  @ List.map
      (fun (op, id, (gtype, buckets)) ->
        Of_message.Group_mod
          (match op with
          | `Add -> Of_message.Add_group { id; gtype; buckets }
          | `Modify -> Of_message.Modify_group { id; gtype; buckets }))
      group_up
  @ List.map (fun (_, _, fm) -> Of_message.Flow_mod fm) rule_up
  @ List.map
      (fun ((priority, match_), _) ->
        Of_message.Flow_mod
          (Of_message.delete_flow ~table_id:(Compile.table_id installed)
             ~strict:true ~priority match_))
      rule_gone
  @ List.map
      (fun (id, _) -> Of_message.Group_mod (Of_message.Delete_group { id }))
      group_gone
  @ List.map
      (fun (id, _) -> Of_message.Meter_mod (Of_message.Delete_meter { id }))
      meter_gone

let push t ctrl dpid =
  let msgs =
    match Hashtbl.find_opt t.installed dpid with
    | None -> Compile.messages t.current
    | Some installed -> diff ~installed t.current
  in
  Hashtbl.replace t.installed dpid t.current;
  Controller.send_all ctrl dpid msgs

let app t = { (Controller.no_op_app t.name) with Controller.switch_up = push t }

let update t ctrl =
  t.current <- Compile.compile ~table_id:t.table_id (t.source ());
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.installed []
  |> List.sort Int64.compare
  |> List.iter (push t ctrl)

let create ?(name = "policy") compiled =
  app
    (of_compile ~name ~source:(fun () -> Compile.policy compiled) compiled)

let l2_band hosts =
  let open Policy.Syntax in
  orelse
    (seq (filter (eth_type_is 0x0806)) flood)
    (unions
       (List.map (fun (mac, port) -> seq (filter (eth_dst_is mac)) (fwd port)) hosts))
