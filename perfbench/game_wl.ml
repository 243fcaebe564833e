(* pso-game: [Pso.Game.run] on four mechanism/attacker pairs with equal
   trials, and the game's trial loop rebuilt from public functions for the
   traced run. The pairs cover both query paths: batched [count_many]
   (composition, Theorems 2.8 and 2.9) and per-predicate [isolates]
   (k-anonymity, Theorem 2.10). *)

type pair = {
  label : string;
  model : Dataset.Model.t;
  n : int;
  mechanism : Query.Mechanism.t;
  mechanism_layer : string;  (** the traced layer [Mechanism.run] is charged to *)
  attacker : Pso.Attacker.t;
}

let trials_per_pair = 512

let composition_n = 1000

let kanon_n = 120

let pairs ~seed =
  let salt = Prob.Rng.bits64 (Prob.Rng.create ~seed ()) in
  let scheme =
    Pso.Composition.scouted ~salt ~buckets:composition_n ~ell:40 ~scouts:16
  in
  let composition_model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64 in
  let kanon_model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64 in
  let mondrian recoding =
    Kanon.Anonymizer.mechanism
      {
        Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Mondrian;
        k = 5;
        scheme = [];
        max_suppression = 0.05;
        recoding;
      }
  in
  let composition label mechanism mechanism_layer =
    {
      label;
      model = composition_model;
      n = composition_n;
      mechanism;
      mechanism_layer;
      attacker = scheme.attacker;
    }
  in
  let kanon label recoding attacker =
    {
      label;
      model = kanon_model;
      n = kanon_n;
      mechanism = mondrian recoding;
      mechanism_layer = "kanon.anonymize";
      attacker;
    }
  in
  ( Array.length scheme.queries,
    [
      composition "composition-exact" scheme.mechanism "query.count_batch";
      composition "composition-laplace"
        (Query.Mechanism.laplace_counts_batch ~epsilon:1. scheme.batch)
        "dp.noisy_batch";
      kanon "mondrian-member-cohen" Kanon.Mondrian.Member_level
        (Pso.Kanon_attack.cohen ());
      kanon "mondrian-class-greedy" Kanon.Mondrian.Class_level
        (Pso.Kanon_attack.greedy ());
    ] )

let weight_bound p = Pso.Isolation.negligible_bound ~n:p.n ~c:2.

(* A pair's game result: the fields of [Pso.Game.outcome] that the trials
   determine. *)
type result = { succ : int; iso : int; heavy : int; mean_weight : float }

let render_pair label r =
  Printf.sprintf "%s: successes=%d isolations=%d heavy=%d mean_weight=%h" label
    r.succ r.iso r.heavy r.mean_weight

let outcome pairs results =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let trials = trials_per_pair * List.length pairs in
  let errors =
    List.concat_map
      (fun r ->
        if r.succ + r.heavy <> r.iso || r.iso > trials_per_pair then
          [ "inconsistent game tally" ]
        else [])
      results
  in
  {
    Workload.ops = trials;
    unconverged = 0;
    match_rate = float_of_int (sum (fun t -> t.succ)) /. float_of_int trials;
    coarse_match_rate = float_of_int (sum (fun t -> t.iso)) /. float_of_int trials;
    digest =
      String.concat "\n" (List.map2 (fun p r -> render_pair p.label r) pairs results);
    errors;
  }

let untraced pool pairs ~seed () =
  let rng = Prob.Rng.create ~seed () in
  outcome pairs
    (List.map
       (fun p ->
         let o =
           Pso.Game.run ~pool rng ~model:p.model ~n:p.n ~mechanism:p.mechanism
             ~attacker:p.attacker ~weight_bound:(weight_bound p)
             ~trials:trials_per_pair
         in
         {
           succ = o.successes;
           iso = o.isolations;
           heavy = o.heavy_isolations;
           mean_weight = o.mean_weight;
         })
       pairs)

type tally = { t_succ : int; t_iso : int; t_heavy : int; weight_sum : float }

let tally_add a b =
  {
    t_succ = a.t_succ + b.t_succ;
    t_iso = a.t_iso + b.t_iso;
    t_heavy = a.t_heavy + b.t_heavy;
    weight_sum = a.weight_sum +. b.weight_sum;
  }

(* One trial of [Pso.Game.run], every layer call timed. *)
let traced_trial p trial_rng item =
  let x =
    Trace.time item "dataset.sample_table" (fun () ->
        Dataset.Model.sample_table trial_rng p.model p.n)
  in
  let y =
    Trace.time item p.mechanism_layer (fun () ->
        Query.Mechanism.run p.mechanism trial_rng x)
  in
  let pred =
    Trace.time item "pso.attack" (fun () -> Pso.Attacker.attack p.attacker trial_rng y)
  in
  let w =
    Trace.time item "query.weight" (fun () ->
        Query.Predicate.weight_value (Query.Predicate.weight p.model pred))
  in
  let isolated =
    Trace.time item "query.isolates" (fun () ->
        Query.Predicate.isolates (Dataset.Model.schema p.model) pred x)
  in
  let light = w <= weight_bound p in
  {
    t_succ = (if isolated && light then 1 else 0);
    t_iso = (if isolated then 1 else 0);
    t_heavy = (if isolated && not light then 1 else 0);
    weight_sum = w;
  }

let traced pool pairs ~queries ~seed () =
  let rng = Prob.Rng.create ~seed () in
  let zero = { t_succ = 0; t_iso = 0; t_heavy = 0; weight_sum = 0. } in
  let per_pair =
    List.map
      (fun p ->
        let t, items =
          Parallel.Trials.fold pool rng ~trials:trials_per_pair ~init:(zero, [])
            ~combine:(fun (a, items) (b, item) -> (tally_add a b, item :: items))
            (fun trial_rng _ -> Trace.work (traced_trial p trial_rng))
        in
        ( {
            succ = t.t_succ;
            iso = t.t_iso;
            heavy = t.t_heavy;
            mean_weight = t.weight_sum /. float_of_int trials_per_pair;
          },
          items ))
      pairs
  in
  let trace =
    Trace.summarize (List.concat_map (fun (_, items) -> List.rev items) per_pair)
  in
  {
    Workload.outcome = outcome pairs (List.map fst per_pair);
    trace;
    counts =
      [
        ( "query.predicates_per_s",
          float_of_int (queries * trials_per_pair)
          /. Trace.busy trace "query.count_batch" );
      ];
  }

let prepare pool ~seed =
  let queries, pairs = pairs ~seed in
  {
    Workload.size =
      [
        ("trials_per_pair", Json.number (float_of_int trials_per_pair));
        ("pairs", Json.List (List.map (fun p -> Json.String p.label) pairs));
        ("composition_n", Json.number (float_of_int composition_n));
        ("composition_queries", Json.number (float_of_int queries));
        ("kanon_n", Json.number (float_of_int kanon_n));
      ];
    (* An eighth of a pass: every pair, [trials_per_pair / 8] trials. *)
    warmup =
      (fun () ->
        let rng = Prob.Rng.create ~seed () in
        List.iter
          (fun p ->
            ignore
              (Pso.Game.run ~pool rng ~model:p.model ~n:p.n ~mechanism:p.mechanism
                 ~attacker:p.attacker ~weight_bound:(weight_bound p)
                 ~trials:(trials_per_pair / 8)))
          pairs);
    untraced = untraced pool pairs ~seed;
    traced = traced pool pairs ~queries ~seed;
  }
