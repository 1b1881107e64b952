type 'a entry = { time : Sim_time.t; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  vacant : 'a entry;  (* fills every slot past [size] *)
}

let create filler =
  {
    heap = [||];
    size = 0;
    next_seq = 0;
    vacant = { time = Sim_time.zero; seq = -1; value = filler };
  }

let length t = t.size

let entry_before a b =
  match Sim_time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let bigger = Array.make (Stdlib.max 16 (cap * 2)) t.vacant in
    Array.blit t.heap 0 bigger 0 cap;
    t.heap <- bigger
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && entry_before t.heap.(left) t.heap.(!smallest) then
    smallest := left;
  if right < t.size && entry_before t.heap.(right) t.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t time value =
  let e = { time; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_time t =
  if t.size = 0 then invalid_arg "Event_queue.top_time: empty queue";
  t.heap.(0).time

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- t.vacant;
  if t.size > 0 then sift_down t 0;
  top.value

let clear t =
  t.size <- 0;
  t.heap <- [||]
