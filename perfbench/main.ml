(* The repo benchmark: one workload per process, measured for a fixed time.

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up (module init and pool spawn, then five rounds of fixtures and a
   short warm-up run, of which the median round counts) is timed as
   [setup_s]. Then the workload's fixed pass repeats for about S
   seconds. With --trace 0 the passes are untraced and the
   end-to-end metrics are printed; with --trace 1 untraced and traced
   passes alternate and the per-layer metrics are printed. Every pass is
   checked against the first, so every traced pass is checked against the
   untraced result. The last line of stdout is the result object; the line
   before it is the host and config fingerprint. The metric and workload
   names must match BENCHMARK.json, read from the working directory.
   Exits 1 when a correctness check fails, 2 on bad usage. *)

let jobs = 2

(* A set-up round lasts from a fifth of a second to two seconds, short
   enough to swing with the host's speed; the median of five is steadier. *)
let setup_rounds = 5

let workloads =
  [
    ("census-suppressed", Census_wl.prepare ~blocks:400 ~threshold:3);
    ("census-exact", Census_wl.prepare ~blocks:1000 ~threshold:0);
    ("pso-game", Game_wl.prepare);
    ("paper-tables", fun _pool ~seed -> Tables_wl.prepare ~seed);
  ]

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("wall_s", "s", "lower");
    ("ops_per_s", "ops/s", "higher");
    ("match_rate", "fraction", "higher");
    ("coarse_match_rate", "fraction", "higher");
    ("converged_frac", "fraction", "higher");
    ("peak_rss_mb", "MB", "lower");
  ]

(* Layers timed in the traced run; each is reported as [<layer>_s], its
   busy seconds per pass summed over domains. *)
let layers =
  [
    "attacks.solve_block";
    "attacks.warm_seed";
    "attacks.tabulate_block";
    "attacks.suppress";
    "dataset.census_block";
    "query.count_batch";
    "dp.noisy_batch";
    "kanon.anonymize";
    "query.isolates";
    "query.weight";
    "pso.attack";
    "dataset.sample_table";
  ]
  @ List.filter_map
      (fun id -> if id = Tables_wl.cert_id then None else Some ("experiments." ^ id))
      Tables_wl.ids
  @ [ "cert.verify_all" ]

let per_layer =
  List.map (fun l -> (l ^ "_s", "s", "lower")) layers
  @ [
      ("attacks.solve_block_p50_ms", "ms", "lower");
      ("attacks.solve_block_tail_ms", "ms", "lower");
      ("attacks.solve_block_tail_pct", "%", "higher");
      ("attacks.solve_block_samples", "count", "higher");
      ("linalg.iterations", "count", "lower");
      ("linalg.warm_iterations", "count", "lower");
      ("linalg.unconverged_blocks", "count", "lower");
      ("linalg.pinned_frac", "fraction", "higher");
      ("query.predicates_per_s", "pred/s", "higher");
      ("parallel.utilisation", "fraction", "higher");
      ("parallel.imbalance", "ratio", "lower");
      ("trace.overhead", "fraction", "lower");
      ("trace.unattributed_frac", "fraction", "lower");
    ]

let fail code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit code)
    fmt

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* --- the name contract ----------------------------------------------- *)

let check_contract () =
  let doc =
    match Option.map Json.of_string (read_file "BENCHMARK.json") with
    | None -> fail 2 "cannot read BENCHMARK.json"
    | Some (Error e) -> fail 2 "BENCHMARK.json: %s" e
    | Some (Ok j) -> j
  in
  let entries key =
    match Option.bind (Json.member key doc) Json.to_list with
    | Some l -> l
    | None -> fail 2 "BENCHMARK.json: no list %S" key
  in
  let str key j =
    match Option.bind (Json.member key j) Json.to_string_opt with
    | Some s -> s
    | None -> fail 2 "BENCHMARK.json: an entry lacks %S" key
  in
  let same what declared ours =
    let declared = List.sort compare declared and ours = List.sort compare ours in
    if declared <> ours then
      fail 2 "BENCHMARK.json %s do not match the benchmark's: declared [%s], printed [%s]"
        what (String.concat "; " declared) (String.concat "; " ours)
  in
  let spec_names key =
    List.map
      (fun j -> String.concat " " [ str "name" j; str "unit" j; str "better" j ])
      (entries key)
  in
  let ours l = List.map (fun (n, u, b) -> String.concat " " [ n; u; b ]) l in
  same "workloads"
    (List.map (str "name") (entries "workloads"))
    (List.map fst workloads);
  same "end_to_end metrics" (spec_names "end_to_end") (ours end_to_end);
  same "per_layer metrics" (spec_names "per_layer") (ours per_layer)

(* --- statistics ------------------------------------------------------- *)

let median xs =
  let s = List.sort compare xs in
  let n = List.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let timed f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, Trace.seconds_since t0)

(* --- host fingerprint ------------------------------------------------- *)

let field_of text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' text)

(* CPUs this process may run on, as [nproc] counts them: the size of the
   affinity mask in /proc/self/status ("0-1,4" is three CPUs). *)
let nproc () =
  match
    Option.bind (read_file "/proc/self/status") (fun s -> field_of s "Cpus_allowed_list")
  with
  | None -> None
  | Some list ->
    Some
      (List.fold_left
         (fun acc range ->
           match String.split_on_char '-' (String.trim range) with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | [ a ] when a <> "" -> acc + 1
           | _ -> acc)
         0 (String.split_on_char ',' list))

let peak_rss_mb () =
  match Option.bind (read_file "/proc/self/status") (fun s -> field_of s "VmHWM") with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> fail 1 "unreadable VmHWM %S" v)
  | None -> fail 1 "no VmHWM in /proc/self/status"

(* A fixed single-domain kernel: the host's speed when the run starts and
   ends, so that a shift in the figures can be told apart from a change in
   the code. Median of five timings, in milliseconds. *)
let calibration_ms () =
  let a = Array.init 8192 float_of_int in
  let once () =
    let acc = ref 0. in
    for r = 1 to 1000 do
      let k = float_of_int r in
      for i = 0 to Array.length a - 1 do
        acc := !acc +. (a.(i) *. k)
      done
    done;
    ignore (Sys.opaque_identity !acc)
  in
  median
    (List.init 5 (fun _ ->
         let t0 = Obs.now_ns () in
         once ();
         1e3 *. Trace.seconds_since t0))

let fingerprint ~workload ~seed ~seconds ~trace ~run =
  let int n = Json.number (float_of_int n) in
  let cpu_model = Option.bind (read_file "/proc/cpuinfo") (fun s -> field_of s "model name") in
  Json.Obj
    [
      ( "fingerprint",
        Json.Obj
          ([
             ("nproc", Option.fold ~none:Json.Null ~some:int (nproc ()));
             ("recommended_domains", int (Domain.recommended_domain_count ()));
             ("cpu_model", Option.fold ~none:Json.Null ~some:(fun s -> Json.String s) cpu_model);
             ("ocaml_version", Json.String Sys.ocaml_version);
             ("jobs", int jobs);
             ("workload", Json.String workload);
             ("seed", Json.String (Int64.to_string seed));
             ("seconds", Json.number seconds);
             ("trace", Json.Bool trace);
           ]
          @ run) );
    ]

(* --- measurement ------------------------------------------------------ *)

(* Repeat [pass] for about [seconds], at least once. Another pass starts
   only if, taking as long as the last one, it would end less than half a
   pass after the deadline, so a run overshoots by half a pass at most. *)
let repeat_for seconds pass =
  let t0 = Obs.now_ns () in
  let rec go acc =
    let t = Trace.seconds_since t0 in
    let acc = pass () :: acc in
    let now = Trace.seconds_since t0 in
    if now +. ((now -. t) /. 2.) >= seconds then List.rev acc else go acc
  in
  go []

let () =
  let t_main = Obs.now_ns () in
  let workload = ref "" and seed = ref 0L and seconds = ref 0. and trace = ref (-1)
  and spawn_ns = ref None in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spawn-ns T]" in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed");
         ("--seconds", Arg.Set_float seconds, "S measuring time");
         ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
         ( "--spawn-ns",
           Arg.String (fun s -> spawn_ns := Some (Int64.of_string s)),
           "T CLOCK_MONOTONIC nanoseconds at which the caller spawned this process" );
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg | Arg.Help msg -> fail 2 "%s" msg
  | Failure _ -> fail 2 "bad number in arguments\n%s" usage);
  let prepare =
    match List.assoc_opt !workload workloads with
    | Some p -> p
    | None -> fail 2 "unknown workload %S" !workload
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then fail 2 "%s" usage;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  check_contract ();
  (* Set-up. Module init (which builds the shared census CSR) ran before
     [t_main]; its share is known when the caller passes its spawn time. *)
  let init_s =
    match !spawn_ns with
    | Some t -> Int64.to_float (Int64.sub t_main t) *. 1e-9
    | None -> 0.
  in
  Parallel.Pool.set_default_jobs jobs;
  let pool, pool_s = timed Parallel.Pool.default in
  let rounds =
    List.init setup_rounds (fun _ ->
        let inst, fixtures_s = timed (fun () -> prepare pool ~seed) in
        let (), warmup_s = timed inst.Workload.warmup in
        (inst, fixtures_s, warmup_s))
  in
  let inst, _, _ = List.hd rounds in
  let setup_s =
    init_s +. pool_s +. median (List.map (fun (_, f, w) -> f +. w) rounds)
  in
  let calibration_start = calibration_ms () in
  let errors = ref [] and attempted = ref 0 and failed = ref 0 and first = ref None in
  (* A failed check counts as one failed op. An unconverged census block is
     not a failed op: it is rounded and scored like the others, and shows in
     [converged_frac]. *)
  let account label (o : Workload.outcome) =
    let errs =
      o.errors
      @
      match !first with
      | None ->
        first := Some o;
        []
      | Some (r : Workload.outcome) ->
        if String.equal o.digest r.digest then [] else [ "result differs from the first pass" ]
    in
    attempted := !attempted + o.ops;
    failed := !failed + List.length errs;
    errors := !errors @ List.map (fun e -> label ^ ": " ^ e) errs
  in
  let metrics, pass_walls =
    if not traced then begin
      let passes = repeat_for seconds (fun () -> timed inst.untraced) in
      List.iter (fun (o, _) -> account "pass" o) passes;
      let reference = Option.get !first and wall_s = median (List.map snd passes) in
      ( [
        ("setup_s", setup_s);
        ("wall_s", wall_s);
        ("ops_per_s", float_of_int reference.ops /. wall_s);
        ("match_rate", reference.match_rate);
        ("coarse_match_rate", reference.coarse_match_rate);
        ( "converged_frac",
          1. -. (float_of_int reference.unconverged /. float_of_int reference.ops) );
        ("peak_rss_mb", peak_rss_mb ());
      ],
        [ ("passes_s", List.map snd passes) ] )
    end
    else begin
      let pairs =
        repeat_for seconds (fun () ->
            let u = timed inst.untraced in
            (u, timed inst.traced))
      in
      List.iter
        (fun ((u, _), ((t : Workload.traced), _)) ->
          account "untraced pass" u;
          account "traced pass" t.outcome)
        pairs;
      let traces = List.map (fun (_, ((t : Workload.traced), w)) -> (t, w)) pairs in
      let per_rep f = List.map (fun ((t : Workload.traced), w) -> f t.trace w) traces in
      let samples =
        Array.concat (List.map (fun ((t : Workload.traced), _) -> t.trace.sampled) traces)
      in
      let n = Array.length samples in
      let tail_pct = Option.value ~default:50. (Trace.tail_percentile n) in
      let count name =
        List.filter_map (fun ((t : Workload.traced), _) -> List.assoc_opt name t.counts) traces
      in
      let item_total (s : Trace.summary) = Array.fold_left ( +. ) 0. s.item_walls in
      let untraced_walls = List.map (fun ((_, w), _) -> w) pairs
      and traced_walls = List.map (fun (_, (_, w)) -> w) pairs in
      ( List.map (fun l -> (l ^ "_s", mean (per_rep (fun s _ -> Trace.busy s l)))) layers
      @ [
          ("attacks.solve_block_p50_ms", 1e3 *. Trace.percentile samples 50.);
          ("attacks.solve_block_tail_ms", 1e3 *. Trace.percentile samples tail_pct);
          ("attacks.solve_block_tail_pct", if n = 0 then 0. else tail_pct);
          ("attacks.solve_block_samples", float_of_int n);
        ]
      @ List.map
          (fun name -> (name, median (count name)))
          [
            "linalg.iterations";
            "linalg.warm_iterations";
            "linalg.unconverged_blocks";
            "linalg.pinned_frac";
            "query.predicates_per_s";
          ]
      @ [
          ( "parallel.utilisation",
            median (per_rep (fun s w -> Trace.total_busy s /. (w *. float_of_int jobs))) );
          ( "parallel.imbalance",
            median
              (per_rep (fun s _ ->
                   let walls = Array.to_list s.item_walls in
                   List.fold_left Float.max 0. walls /. mean walls)) );
          ("trace.overhead", (median traced_walls /. median untraced_walls) -. 1.);
          ( "trace.unattributed_frac",
            median
              (per_rep (fun s _ -> (item_total s -. Trace.total_busy s) /. item_total s)) );
        ],
        [ ("untraced_passes_s", untraced_walls); ("traced_passes_s", traced_walls) ] )
    end
  in
  let number v = Json.number v in
  print_endline
    (Json.to_string
       (fingerprint ~workload:!workload ~seed ~seconds ~trace:traced
          ~run:
            ([
               ("size", Json.Obj inst.size);
               ( "setup_s",
                 Json.Obj
                   [
                     ("module_init", number init_s);
                     ("pool_spawn", number pool_s);
                     ("fixtures", Json.List (List.map (fun (_, f, _) -> number f) rounds));
                     ("warm_up", Json.List (List.map (fun (_, _, w) -> number w) rounds));
                   ] );
               ( "calibration_ms",
                 Json.Obj
                   [
                     ("start", number calibration_start);
                     ("end", number (calibration_ms ()));
                   ] );
             ]
            @ List.map (fun (k, ws) -> (k, Json.List (List.map number ws))) pass_walls)));
  let specs = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, unit_, _) ->
      Printf.eprintf "%-34s %14.6g %s\n" name (List.assoc name metrics) unit_)
    specs;
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) !errors;
  let correct = !errors = [] in
  let int n = Json.number (float_of_int n) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int !attempted);
            ("failed", int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, _) ->
                     ( name,
                       Json.Obj
                         [
                           ("value", Json.number (List.assoc name metrics));
                           ("unit", Json.String unit_);
                         ] ))
                   specs) );
          ]));
  exit (if correct then 0 else 1)
