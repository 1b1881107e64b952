module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t name =
    match Hashtbl.find t name with
    | r -> r := !r + by
    | exception Not_found -> Hashtbl.replace t name (ref by)

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset = Hashtbl.reset
end

module Meter = struct
  type t = {
    mutable packets : int;
    mutable bytes : int;
    mutable window_start : Sim_time.t;
    mutable window_packets : int;
    mutable window_bytes : int;
  }

  let create () =
    {
      packets = 0;
      bytes = 0;
      window_start = Sim_time.zero;
      window_packets = 0;
      window_bytes = 0;
    }

  let record t ~now:_ ~bytes =
    t.packets <- t.packets + 1;
    t.bytes <- t.bytes + bytes;
    t.window_packets <- t.window_packets + 1;
    t.window_bytes <- t.window_bytes + bytes

  let packets t = t.packets
  let bytes t = t.bytes

  let start_window t ~now =
    t.window_start <- now;
    t.window_packets <- 0;
    t.window_bytes <- 0

  let elapsed t ~now = Sim_time.span_to_seconds (Sim_time.diff now t.window_start)

  let pps t ~now =
    let dt = elapsed t ~now in
    if dt <= 0.0 then 0.0 else float_of_int t.window_packets /. dt

  let bps t ~now =
    let dt = elapsed t ~now in
    if dt <= 0.0 then 0.0 else 8.0 *. float_of_int t.window_bytes /. dt
end

module Histogram = Telemetry.Hdr
