open Simnet

type t = {
  node_a : Node.t;
  port_a : int;
  node_b : Node.t;
  port_b : int;
  mutable up : bool;
  mutable ab : int;
  mutable ba : int;
}

let connect (node_a, port_a) (node_b, port_b) =
  let engine = Node.engine node_a in
  if not (Node.engine node_b == engine) then
    invalid_arg "Patch_port.connect: nodes on different engines";
  let t = { node_a; port_a; node_b; port_b; up = true; ab = 0; ba = 0 } in
  (* Same-instant scheduling (rather than a direct call) keeps the event
     order deterministic and the stack bounded under switch loops. *)
  Node.attach node_a ~port:port_a (fun pkt ->
      if t.up then begin
        t.ab <- t.ab + 1;
        Engine.schedule_after engine 0 (fun () -> Node.deliver node_b ~port:port_b pkt)
      end);
  Node.attach node_b ~port:port_b (fun pkt ->
      if t.up then begin
        t.ba <- t.ba + 1;
        Engine.schedule_after engine 0 (fun () -> Node.deliver node_a ~port:port_a pkt)
      end);
  t

let disconnect t =
  t.up <- false;
  Node.detach t.node_a ~port:t.port_a;
  Node.detach t.node_b ~port:t.port_b

let packets_a_to_b t = t.ab
