(* Minor-word deltas around instrumented sections.

   The disabled path is the contract: [mark]/[record] with no recorder
   installed are one ref read each and allocate zero words (pinned by
   test).  [Gc.minor_words] is an unboxed external in native code, and
   it is only called once a recorder is known to be installed, so the
   bytecode float boxing also stays off the disabled path. *)

module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push s v =
    if s.len = Array.length s.data then begin
      let bigger = Array.make (2 * s.len) 0 in
      Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    s.data.(s.len) <- v;
    s.len <- s.len + 1

  let to_array s = Array.sub s.data 0 s.len

  let iter f s =
    for i = 0 to s.len - 1 do
      f s.data.(i)
    done
end

type t = {
  tbl : (string, Samples.t) Hashtbl.t;
  mutable order : string list;  (* reversed first-appearance *)
  mutable total : int;
}

let create () = { tbl = Hashtbl.create 16; order = []; total = 0 }

let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let enabled () = Option.is_some !current

let words () = int_of_float (Gc.minor_words ())

let mark () = match !current with None -> 0 | Some _ -> words ()

let record site m =
  match !current with
  | None -> ()
  | Some r ->
      if m > 0 then begin
        let delta = words () - m in
        let s =
          match Hashtbl.find_opt r.tbl site with
          | Some s -> s
          | None ->
              let s = Samples.create () in
              Hashtbl.replace r.tbl site s;
              r.order <- site :: r.order;
              s
        in
        Samples.push s (max 0 delta);
        r.total <- r.total + 1
      end

let with_recorder f =
  let r = create () in
  let saved = !current in
  install r;
  Fun.protect
    ~finally:(fun () -> current := saved)
    (fun () -> (f (), r))

let sites t = List.rev t.order

let samples t site =
  match Hashtbl.find_opt t.tbl site with
  | Some s -> Samples.to_array s
  | None -> [||]

let count t = t.total

let clear t =
  Hashtbl.reset t.tbl;
  t.order <- [];
  t.total <- 0
