type band = { rate_kbps : int; burst_kb : int }

type meter = {
  mutable band : band;
  mutable tokens_bits : float;
  mutable last_refill_ns : int;
  mutable passed : int;
  mutable dropped : int;
}

type t = (int, meter) Hashtbl.t

let create () : t = Hashtbl.create 8

let capacity_bits band = float_of_int (band.burst_kb * 8000)

let validate band =
  if band.rate_kbps <= 0 || band.burst_kb <= 0 then
    invalid_arg "Meter_table: rate and burst must be positive"

let add t ~id band =
  validate band;
  if Hashtbl.mem t id then invalid_arg "Meter_table.add: id exists";
  Hashtbl.replace t id
    {
      band;
      tokens_bits = capacity_bits band;
      last_refill_ns = 0;
      passed = 0;
      dropped = 0;
    }

let modify t ~id band =
  validate band;
  match Hashtbl.find_opt t id with
  | None -> raise Not_found
  | Some m ->
      m.band <- band;
      m.tokens_bits <- capacity_bits band;
      m.last_refill_ns <- 0

let remove t ~id = Hashtbl.remove t id
let clear t = Hashtbl.reset t
let mem t ~id = Hashtbl.mem t id
let size t = Hashtbl.length t
let band t ~id = Option.map (fun m -> m.band) (Hashtbl.find_opt t id)

let apply t ~id ~now_ns ~bytes =
  match Hashtbl.find_opt t id with
  | None -> `Pass
  | Some m ->
      let elapsed = now_ns - m.last_refill_ns in
      if elapsed > 0 then begin
        (* rate_kbps = bits per microsecond / 1000 = bits/ns * 1e6 *)
        let refill = float_of_int m.band.rate_kbps *. float_of_int elapsed /. 1e6 in
        m.tokens_bits <- Float.min (capacity_bits m.band) (m.tokens_bits +. refill);
        m.last_refill_ns <- now_ns
      end;
      let need = float_of_int (bytes * 8) in
      if m.tokens_bits >= need then begin
        m.tokens_bits <- m.tokens_bits -. need;
        m.passed <- m.passed + 1;
        `Pass
      end
      else begin
        m.dropped <- m.dropped + 1;
        `Drop
      end

let stats t ~id =
  Option.map (fun m -> (m.passed, m.dropped)) (Hashtbl.find_opt t id)
