(* The reference workload: a fixed stand-in for the program's kind of
   work, timed before every round so that wall times can be rescaled to
   a machine of fixed speed.

   On the 2-vCPU Xeon VM this benchmark was written on, whole minutes ran
   25% faster or slower than others, in CPU time as much as in wall time,
   so other tenants slow the CPU itself.  A multiply loop barely notices;
   branchy, allocating, pointer-chasing OCaml code like the simulator
   slows with the benchmark.  So the reference is a miniature
   store-and-forward simulator: a binary-heap event queue moving small
   packets with byte bodies through a MAC table (Hashtbl) and a flow
   table (Map).  It uses only the standard library, so no change to the
   program moves it. *)

module Flows = Map.Make (Int)

type packet = {
  src : int;
  dst : int;
  port : int;
  body : Bytes.t;
  hops : int list;
}

(* The wall time of one run on the machine every reported time is
   scaled to. *)
let nominal_ns = 150_000_000

let run () =
  let heap = Array.make 4096 (0, None) and size = ref 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let push ev =
    heap.(!size) <- ev;
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && fst heap.((!i - 1) / 2) > fst heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && fst heap.(l) < fst heap.(!m) then m := l;
      if l + 1 < !size && fst heap.(l + 1) < fst heap.(!m) then m := l + 1;
      if !m = !i then settled := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let macs = Hashtbl.create 1024 and flows = ref Flows.empty and out = ref 0 in
  for i = 1 to 2000 do
    push
      ( i * 13,
        Some
          {
            src = i land 255;
            dst = (i * 31) land 255;
            port = i land 7;
            body = Bytes.make 64 'x';
            hops = [];
          } )
  done;
  for step = 1 to 200_000 do
    match pop () with
    | t, Some p ->
        Hashtbl.replace macs p.src p.port;
        (match Hashtbl.find_opt macs p.dst with
        | Some port -> out := !out + port
        | None -> decr out);
        let key =
          Hashtbl.hash (p.src, p.dst, Bytes.get p.body (step land 63)) land 4095
        in
        flows :=
          Flows.update key
            (function None -> Some 1 | Some c -> Some (c + 1))
            !flows;
        let hops =
          step :: (match p.hops with a :: b :: _ -> [ a; b ] | l -> l)
        in
        push (t + 1 + (step land 255), Some { p with body = Bytes.copy p.body; hops })
    | _, None -> ()
  done;
  !out + Flows.cardinal !flows

(* Wall ns of one run. *)
let time () =
  let start = Tiling.now_ns () in
  ignore (Sys.opaque_identity (run ()));
  Tiling.now_ns () - start
