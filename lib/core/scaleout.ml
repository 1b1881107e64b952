open Softswitch

type member = {
  device : Mgmt.Device.t;
  trunk_port : int;
  access_ports : int list;
}

type t = {
  ss1s : Soft_switch.t array;
  ss2 : Soft_switch.t;
  port_maps : Port_map.t array;
  offsets : int array;
  reports : Manager.report array;
}

let provision engine ~members ?base_vid ?dataplane ?pmd () =
  if members = [] then Error "Scaleout.provision: no members"
  else begin
    (* Configure every device; undo the ones already done on failure. *)
    let rec configure done_ = function
      | [] -> Ok (List.rev done_)
      | m :: rest -> (
          match
            Manager.configure_device ~device:m.device ~trunk_port:m.trunk_port
              ~access_ports:m.access_ports ?base_vid ()
          with
          | Ok result -> configure ((m, result) :: done_) rest
          | Error msg ->
              List.iter
                (fun (prev, _) -> ignore (Manager.deprovision prev.device))
                done_;
              Error msg)
    in
    match configure [] members with
    | Error _ as e -> e
    | Ok configured ->
        let port_maps =
          Array.of_list (List.map (fun (_, (map, _)) -> map) configured)
        in
        let reports =
          Array.of_list (List.map (fun (_, (_, report)) -> report) configured)
        in
        let sizes = Array.map Port_map.size port_maps in
        let offsets = Array.make (Array.length sizes) 0 in
        for m = 1 to Array.length sizes - 1 do
          offsets.(m) <- offsets.(m - 1) + sizes.(m - 1)
        done;
        let total = Array.fold_left ( + ) 0 sizes in
        let ss2 =
          Soft_switch.create engine ~name:"scaleout-ss2" ~ports:total ?dataplane
            ?pmd ~miss:Soft_switch.Send_to_controller ()
        in
        let ss1s =
          Array.of_list
            (List.mapi
               (fun m (member, (map, _)) ->
                 let ss1, _, _ =
                   Manager.sandwich engine
                     ~name:(Mgmt.Device.hostname member.device)
                     ~map ~shared_ss2:(ss2, offsets.(m)) ?dataplane ?pmd ()
                 in
                 ss1)
               configured)
        in
        Ok { ss1s; ss2; port_maps; offsets; reports }
  end

let total_ports t = Simnet.Node.port_count (Soft_switch.node t.ss2)

let ss2_port t ~member ~access_port =
  if member < 0 || member >= Array.length t.port_maps then None
  else
    Option.map
      (fun logical -> t.offsets.(member) + logical)
      (Port_map.logical_of_access_port t.port_maps.(member) access_port)

let member_of_ss2_port t port =
  let n = Array.length t.port_maps in
  let rec find m =
    if m >= n then None
    else
      let size = Port_map.size t.port_maps.(m) in
      if port >= t.offsets.(m) && port < t.offsets.(m) + size then
        Option.map
          (fun access -> (m, access))
          (Port_map.access_port_of_logical t.port_maps.(m) (port - t.offsets.(m)))
      else find (m + 1)
  in
  if port < 0 then None else find 0
