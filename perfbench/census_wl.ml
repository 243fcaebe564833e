(* census-suppressed and census-exact: [Attacks.Census_scale.run], and its
   loop rebuilt from the public per-block functions for the traced run. *)

module Cs = Attacks.Census_scale

let config ~blocks ~threshold =
  {
    Cs.blocks;
    mean_block_size = 30;
    shards = 16;
    threshold;
    warm_start = true;
    shave = false;
  }

let render (s : Cs.stats) =
  Printf.sprintf
    "population=%d records=%d solved_blocks=%d cells_matched=%d \
     sex_age_matched=%d suppressed_cells=%d fixed_cells=%d solves=%d \
     warm_solves=%d iterations=%d warm_iterations=%d converged_blocks=%d"
    s.population s.records s.solved_blocks s.cells_matched s.sex_age_matched
    s.suppressed_cells s.fixed_cells s.solves s.warm_solves s.iterations
    s.warm_iterations s.converged_blocks

let outcome (cfg : Cs.config) (s : Cs.stats) =
  let errors =
    (if s.records <> s.population then
       [ Printf.sprintf "records %d <> population %d" s.records s.population ]
     else [])
    @
    if s.solved_blocks <> cfg.blocks then
      [ Printf.sprintf "solved %d of %d blocks" s.solved_blocks cfg.blocks ]
    else []
  in
  {
    Workload.ops = s.solved_blocks;
    unconverged = s.solved_blocks - s.converged_blocks;
    match_rate = Cs.match_rate s;
    coarse_match_rate = Cs.sex_age_rate s;
    digest = render s;
    errors;
  }

let zero =
  {
    Cs.population = 0;
    records = 0;
    solved_blocks = 0;
    cells_matched = 0;
    sex_age_matched = 0;
    suppressed_cells = 0;
    fixed_cells = 0;
    solves = 0;
    warm_solves = 0;
    iterations = 0;
    warm_iterations = 0;
    converged_blocks = 0;
  }

let add (a : Cs.stats) (b : Cs.stats) =
  {
    Cs.population = a.population + b.population;
    records = a.records + b.records;
    solved_blocks = a.solved_blocks + b.solved_blocks;
    cells_matched = a.cells_matched + b.cells_matched;
    sex_age_matched = a.sex_age_matched + b.sex_age_matched;
    suppressed_cells = a.suppressed_cells + b.suppressed_cells;
    fixed_cells = a.fixed_cells + b.fixed_cells;
    solves = a.solves + b.solves;
    warm_solves = a.warm_solves + b.warm_solves;
    iterations = a.iterations + b.iterations;
    warm_iterations = a.warm_iterations + b.warm_iterations;
    converged_blocks = a.converged_blocks + b.converged_blocks;
  }

(* Scoring, as [Census_scale.run] does it: Σ min(truth, reconstruction) over
   the joint cells and over the (sex, age) marginal. *)
let joint_counts people =
  let counts = Array.make Cs.n_cells 0 in
  Array.iter
    (fun (p : Dataset.Synth.census_person) ->
      let j = Cs.cell ~sex:p.sex ~age:p.age ~race:p.race ~eth:p.ethnicity in
      counts.(j) <- counts.(j) + 1)
    people;
  counts

let sex_age counts =
  let out = Array.make 200 0 in
  for sex = 0 to 1 do
    for age = 0 to 99 do
      for race = 0 to 5 do
        for eth = 0 to 1 do
          let i = (sex * 100) + age in
          out.(i) <- out.(i) + counts.(Cs.cell ~sex ~age ~race ~eth)
        done
      done
    done
  done;
  out

let overlap a b =
  let acc = ref 0 in
  Array.iteri (fun j x -> acc := !acc + min x b.(j)) a;
  !acc

(* One shard of the streaming loop, every layer call timed. Block [b]'s
   generator is the [b - first]-th split of the shard's generator, and a
   block warm-starts from the previous block of its shard. *)
let traced_shard (cfg : Cs.config) shard_rng s item =
  let per = (cfg.blocks + cfg.shards - 1) / cfg.shards in
  let first = s * per in
  let last = min cfg.blocks (first + per) - 1 in
  let warm = ref None in
  let acc = ref zero in
  for block = first to last do
    let block_rng = Prob.Rng.split shard_rng in
    let people =
      Trace.time item "dataset.census_block" (fun () ->
          Dataset.Synth.census_block block_rng ~block
            ~mean_block_size:cfg.mean_block_size)
    in
    let pub =
      Trace.time item "attacks.tabulate_block" (fun () ->
          Attacks.Census.tabulate_block ~block people)
    in
    let sup =
      Trace.time item "attacks.suppress" (fun () ->
          Cs.suppress ~threshold:cfg.threshold pub)
    in
    let x0 =
      if not cfg.warm_start then None
      else
        Option.map
          (fun relaxed ->
            Trace.time item "attacks.warm_seed" (fun () -> Cs.warm_seed sup relaxed))
          !warm
    in
    let sol =
      Trace.time ~sample:true item "attacks.solve_block" (fun () ->
          Cs.solve_block ?x0 ~shave:cfg.shave sup)
    in
    warm := Some sol.relaxed;
    let truth = joint_counts people in
    let warm_solve = x0 <> None in
    acc :=
      add !acc
        {
          Cs.population = Array.length people;
          records = Array.fold_left ( + ) 0 sol.counts;
          solved_blocks = 1;
          cells_matched = overlap truth sol.counts;
          sex_age_matched = overlap (sex_age truth) (sex_age sol.counts);
          suppressed_cells = sup.s_suppressed;
          fixed_cells = sol.fixed_cells;
          solves = 1;
          warm_solves = (if warm_solve then 1 else 0);
          iterations = sol.iterations;
          warm_iterations = (if warm_solve then sol.iterations else 0);
          converged_blocks = (if sol.converged then 1 else 0);
        }
  done;
  !acc

let traced pool cfg ~seed () =
  let stats, items =
    Parallel.Trials.fold pool (Prob.Rng.create ~seed ()) ~trials:cfg.Cs.shards
      ~init:(zero, [])
      ~combine:(fun (st, items) (s, item) -> (add st s, item :: items))
      (fun shard_rng s -> Trace.work (traced_shard cfg shard_rng s))
  in
  let f = float_of_int in
  {
    Workload.outcome = outcome cfg stats;
    trace = Trace.summarize (List.rev items);
    counts =
      [
        ("linalg.iterations", f stats.iterations);
        ("linalg.warm_iterations", f stats.warm_iterations);
        ("linalg.unconverged_blocks", f (stats.solved_blocks - stats.converged_blocks));
        ( "linalg.pinned_frac",
          f stats.fixed_cells /. (f stats.solved_blocks *. f Cs.n_cells) );
      ];
  }

let prepare ~blocks ~threshold pool ~seed =
  let cfg = config ~blocks ~threshold in
  {
    Workload.size =
      [
        ("blocks", Json.number (float_of_int blocks));
        ("mean_block_size", Json.number (float_of_int cfg.mean_block_size));
        ("shards", Json.number (float_of_int cfg.shards));
        ("threshold", Json.number (float_of_int threshold));
        ("warm_start", Json.Bool cfg.warm_start);
      ];
    (* Four blocks per shard: every layer runs, warm starts included,
       without paying for a second full pass. *)
    warmup =
      (fun () ->
        ignore
          (Cs.run ~pool { cfg with blocks = 4 * cfg.shards } (Prob.Rng.create ~seed ())));
    untraced =
      (fun () -> outcome cfg (Cs.run ~pool cfg (Prob.Rng.create ~seed ())));
    traced = traced pool cfg ~seed;
  }
