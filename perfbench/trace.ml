(* The traced run's timers. Spans are recorded from the benchmark's own
   calls into each layer's public functions, never from inside lib/.

   Every work item (a census shard, a game trial, a paper table) owns one
   [item] and times the layer calls it makes; items are returned through
   [Parallel.Trials.fold] and combined on the caller in item order, so no
   timer is shared between domains. *)

type item = {
  busy : (string, float) Hashtbl.t;  (** layer name → busy seconds *)
  mutable samples : float list;  (** per-call seconds of the sampled layer *)
  mutable wall : float;  (** the item's own duration *)
}

let seconds_since t0 = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) *. 1e-9

let add item layer dt =
  let prev = Option.value ~default:0. (Hashtbl.find_opt item.busy layer) in
  Hashtbl.replace item.busy layer (prev +. dt)

(* [time item layer f] runs [f ()] and charges its duration to [layer];
   with [~sample:true] the duration is also kept for percentiles. *)
let time ?(sample = false) item layer f =
  let t0 = Obs.now_ns () in
  let r = f () in
  let dt = seconds_since t0 in
  add item layer dt;
  if sample then item.samples <- dt :: item.samples;
  r

(* [work f] runs one work item with a fresh timer and returns its result
   with the timer, its wall time filled in. *)
let work f =
  let item = { busy = Hashtbl.create 8; samples = []; wall = 0. } in
  let t0 = Obs.now_ns () in
  let r = f item in
  item.wall <- seconds_since t0;
  (r, item)

type summary = {
  layers : (string * float) list;  (** busy seconds per layer, summed *)
  item_walls : float array;  (** per-item durations, item order *)
  sampled : float array;  (** per-call seconds of the sampled layer *)
}

let summarize items =
  let layers = Hashtbl.create 16 in
  List.iter
    (fun it ->
      Hashtbl.iter
        (fun k v ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt layers k) in
          Hashtbl.replace layers k (prev +. v))
        it.busy)
    items;
  {
    layers = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []);
    item_walls = Array.of_list (List.map (fun it -> it.wall) items);
    sampled = Array.of_list (List.concat_map (fun it -> List.rev it.samples) items);
  }

let busy s layer = Option.value ~default:0. (List.assoc_opt layer s.layers)

let total_busy s = List.fold_left (fun acc (_, v) -> acc +. v) 0. s.layers

(* Nearest-rank percentile of an unsorted sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* The highest of the usual tail percentiles that leaves at least ten
   samples beyond it, so the tail figure is never one or two outliers. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]
