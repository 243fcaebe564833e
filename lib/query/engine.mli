(** Batch evaluation layer of the query engine.

    The attacks in this repo — reconstruction (Section 1), the PSO
    composition game (Section 4), the dpcheck audits — each evaluate
    hundreds to thousands of count queries against one table. This module
    is their entry point: it runs whole predicate arrays through the
    batched kernel ({!Predicate.count_many}: one columnar scan, batch-wide
    atom dedup, fused word-machine evaluation), and can optionally fan a
    large batch across a {!Parallel.Pool} in contiguous chunks combined in
    chunk order — the answers are byte-identical at every [jobs] count. *)

val counts :
  ?pool:Parallel.Pool.t ->
  ?compiled:Predicate.compiled array ->
  Dataset.Table.t ->
  Predicate.t array ->
  int array
(** [counts table qs] is [Array.map (fun q -> Predicate.count schema q
    table) qs] via the batched kernel. Pass [?compiled] to reuse an
    existing compilation of [qs] (they must correspond index-wise);
    otherwise the predicates are compiled on the fly. With [?pool], the
    batch is split into contiguous chunks (at least 64 predicates each —
    below that the pool's per-item overhead swamps the work) evaluated in
    parallel and concatenated in chunk order, so results do not depend on
    pool size. Charges [query.predicate_evals] with rows × queries,
    keeping the counter batch-invariant. *)
