(* Reference implementations of the query paths, kept as test oracles for
   the compiled bitset engine in lib/query. Every count, isolation and
   subpopulation here is computed row by row through [Predicate.eval], the
   executable reading of the predicate semantics, so the tests can hold
   the production paths (Predicate.count/isolates, Engine.counts,
   Curator.ask/ask_many, Erasure.count, the Mechanism batches) equal to
   them on shared fixtures. *)

module P = Query.Predicate
module Table = Dataset.Table

let count table p = P.count_interpreted (Table.schema table) p table

(* Curator.ask's subpopulation: the ascending indices of the rows that
   satisfy the predicate. *)
let matching table p =
  let schema = Table.schema table in
  let acc = ref [] in
  Table.iter (fun i row -> if P.eval schema p row then acc := i :: !acc) table;
  Array.of_list (List.rev !acc)

(* Erasure.count over the ingest table after erasing [erased]: a Recompute
   server counts only the live rows, a Cached server still counts the
   whole snapshot. *)
let erasure_count implementation table ~erased p =
  let schema = Table.schema table in
  let include_erased =
    match implementation with
    | Query.Erasure.Cached -> true
    | Query.Erasure.Recompute -> false
  in
  let acc = ref 0 in
  Table.iter
    (fun i row ->
      if (include_erased || not (List.mem i erased)) && P.eval schema p row
      then incr acc)
    table;
  !acc

(* The exact counts of a mechanism batch, rows outer and queries inner. *)
let batch_counts table qs =
  let schema = Table.schema table in
  let counts = Array.make (Array.length qs) 0. in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i q -> if P.eval schema q row then counts.(i) <- counts.(i) +. 1.)
        qs)
    (Table.rows table);
  counts
