include Alloc_probe

type site_stats = Profile.stats = {
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  mean : float;
  max : int;
  total : int;
}

let stats t site = Profile.exact_stats (samples t site)

let table t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%-20s %8s %10s %10s %10s %12s\n" "site" "count" "p50(w)" "p95(w)"
    "max(w)" "total(w)";
  add "%s\n" (String.make 75 '-');
  let grand = ref 0 in
  List.iter
    (fun site ->
      match stats t site with
      | None -> ()
      | Some s ->
          grand := !grand + s.total;
          add "%-20s %8d %10d %10d %10d %12d\n" site s.count s.p50 s.p95 s.max
            s.total)
    (sites t);
  add "%s\n" (String.make 75 '-');
  add "%d probe samples, %d words recorded\n" (count t) !grand;
  Buffer.contents buf

let publish ?(registry = Registry.default) ?(prefix = "harmless") t =
  List.iter
    (fun site ->
      let h =
        Registry.Histogram.v ~registry
          ~labels:[ ("site", site) ]
          (prefix ^ "_alloc_words")
      in
      Array.iter (fun w -> Registry.Histogram.observe h w) (samples t site))
    (sites t)
