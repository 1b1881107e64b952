(* What one child process measures in one round of a workload, and the
   line format it reports it in ("<key> <value>", one per line). *)

type t = {
  mutable setup_ns : int;
  mutable phase_ns : int;  (** wall time of the timed phase *)
  mutable frames : int;  (** frames delivered to hosts in the timed phase *)
  mutable words : int;  (** minor words allocated in the timed phase *)
  mutable top_heap_words : int;
  mutable ops : int list;  (** wall ns of each workload operation *)
  mutable attempted : int;
  mutable failed : int;
  mutable outcome : (string * int) list;
      (** simulated-domain results, compared with the stored values *)
  layers : (string, float) Hashtbl.t;
  mutable errors : string list;
  mutable ref_ns : int;
      (** wall ns of the reference run just before this round; set by the
          parent, not reported by the child *)
}

let create () =
  {
    setup_ns = 0;
    phase_ns = 0;
    frames = 0;
    words = 0;
    top_heap_words = 0;
    ops = [];
    attempted = 0;
    failed = 0;
    outcome = [];
    layers = Hashtbl.create 64;
    errors = [];
    ref_ns = 0;
  }

let layer r name v = Hashtbl.replace r.layers name v
let error r msg = r.errors <- msg :: r.errors

(* A check on a simulated result: a failure counts against [failed]
   and is reported, it does not stop the round. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        r.failed <- r.failed + 1;
        error r msg
      end)
    fmt

let print oc r =
  let p fmt = Printf.fprintf oc fmt in
  p "setup_ns %d\nphase_ns %d\nframes %d\nwords %d\ntop_heap_words %d\n"
    r.setup_ns r.phase_ns r.frames r.words r.top_heap_words;
  p "attempted %d\nfailed %d\n" r.attempted r.failed;
  List.iter (fun ns -> p "op %d\n" ns) (List.rev r.ops);
  List.iter (fun (k, v) -> p "outcome %s %d\n" k v) r.outcome;
  Hashtbl.iter (fun k v -> p "layer %s %.17g\n" k v) r.layers;
  List.iter (fun e -> p "error %s\n" e) (List.rev r.errors)

let parse lines =
  let r = create () in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
          let key = String.sub line 0 i in
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          let int () = int_of_string rest in
          let named () =
            match String.index_opt rest ' ' with
            | Some j ->
                ( String.sub rest 0 j,
                  String.sub rest (j + 1) (String.length rest - j - 1) )
            | None -> failwith ("malformed line: " ^ line)
          in
          match key with
          | "setup_ns" -> r.setup_ns <- int ()
          | "phase_ns" -> r.phase_ns <- int ()
          | "frames" -> r.frames <- int ()
          | "words" -> r.words <- int ()
          | "top_heap_words" -> r.top_heap_words <- int ()
          | "attempted" -> r.attempted <- int ()
          | "failed" -> r.failed <- int ()
          | "op" -> r.ops <- int () :: r.ops
          | "outcome" ->
              let k, v = named () in
              r.outcome <- r.outcome @ [ (k, int_of_string v) ]
          | "layer" ->
              let k, v = named () in
              layer r k (float_of_string v)
          | "error" -> error r rest
          | _ -> ()))
    lines;
  r.errors <- List.rev r.errors;
  r
