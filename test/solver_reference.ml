(* Reference implementations of the census solve path, kept as test
   oracles for the allocation-free kernels in lib/: the projected-gradient
   solver and power iteration written with allocating vector operations,
   interval propagation through row closures, the per-block census solve
   with its own power iteration, and warm-start raking through group
   closures. Each performs the same float operations in the
   same order as its production counterpart, so the properties compare
   results bit for bit. *)

module Lsq = Linalg.Lsq
module Vector = Linalg.Vector
module Sparse = Linalg.Sparse
module Intervals = Linalg.Intervals

(* --- Least squares --- *)

type op = {
  rows : int;
  cols : int;
  apply : Vector.t -> Vector.t;
  tapply : Vector.t -> Vector.t;
}

let of_matrix a =
  {
    rows = Linalg.Matrix.rows a;
    cols = Linalg.Matrix.cols a;
    apply = Linalg.Matrix.mul_vec a;
    tapply = Linalg.Matrix.tmul_vec a;
  }

let of_sparse a =
  {
    rows = Sparse.rows a;
    cols = Sparse.cols a;
    apply = Sparse.mul_vec a;
    tapply = Sparse.tmul_vec a;
  }

let lipschitz_op o =
  let n = o.cols in
  let v =
    ref
      (Array.init n (fun i ->
           1. /. Float.sqrt (float_of_int (max n 1)) +. (0.001 *. float_of_int i)))
  in
  let lambda = ref 1. in
  for _ = 1 to 50 do
    let w = o.tapply (o.apply !v) in
    let norm = Vector.norm2 w in
    if norm > 0. then begin
      lambda := norm;
      v := Vector.scale (1. /. norm) w
    end
  done;
  Float.max !lambda 1e-12

let clamp_into ~lo ~hi v =
  Array.init (Array.length v) (fun i ->
      let x = v.(i) in
      if x < lo.(i) then lo.(i) else if x > hi.(i) then hi.(i) else x)

let box ?(options = Lsq.default_options) ?x0 o b ~lo ~hi =
  let n = o.cols in
  let step = 1. /. lipschitz_op o in
  let z =
    ref
      (match x0 with
      | Some z0 -> clamp_into ~lo ~hi z0
      | None -> Array.init n (fun i -> (lo.(i) +. hi.(i)) /. 2.))
  in
  let iter = ref 0 in
  let converged = ref false in
  let continue_ = ref true in
  while !continue_ && !iter < options.Lsq.max_iter do
    let grad = o.tapply (Vector.sub (o.apply !z) b) in
    let next = clamp_into ~lo ~hi (Vector.sub !z (Vector.scale step grad)) in
    let moved = Vector.norm2 (Vector.sub next !z) in
    z := next;
    if moved < options.Lsq.tolerance then begin
      converged := true;
      continue_ := false
    end;
    incr iter
  done;
  { Lsq.x = !z; iterations = !iter; converged = !converged }

(* --- Interval propagation --- *)

let iter_row a r ~f =
  let row_ptr = Sparse.row_ptr a in
  for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
    f (Sparse.col_idx a).(k) (Sparse.values a).(k)
  done

let eps = 1e-9

let round_lo ~integral v = if integral then Float.ceil (v -. eps) else v

let round_hi ~integral v = if integral then Float.floor (v +. eps) else v

let propagate ?(integral = true) ?(max_passes = 50) a ~row_lo ~row_hi
    (box : Intervals.t) =
  let m = Sparse.rows a and n = Sparse.cols a in
  let lo = Array.map (round_lo ~integral) box.Intervals.lo in
  let hi = Array.map (round_hi ~integral) box.Intervals.hi in
  let empty = ref (-1) in
  for j = 0 to n - 1 do
    if !empty < 0 && lo.(j) > hi.(j) then empty := j
  done;
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !empty < 0 && !pass < max_passes do
    changed := false;
    incr pass;
    let r = ref 0 in
    while !empty < 0 && !r < m do
      let s_lo = ref 0. and s_hi = ref 0. in
      iter_row a !r ~f:(fun j v ->
          if v < 0. then invalid_arg "Intervals.propagate: negative coefficient";
          s_lo := !s_lo +. (v *. lo.(j));
          s_hi := !s_hi +. (v *. hi.(j)));
      iter_row a !r ~f:(fun j v ->
          if !empty < 0 && v > 0. then begin
            let new_lo =
              round_lo ~integral
                ((row_lo.(!r) -. (!s_hi -. (v *. hi.(j)))) /. v)
            in
            let new_hi =
              round_hi ~integral
                ((row_hi.(!r) -. (!s_lo -. (v *. lo.(j)))) /. v)
            in
            if new_lo > lo.(j) then begin
              lo.(j) <- new_lo;
              changed := true
            end;
            if new_hi < hi.(j) then begin
              hi.(j) <- new_hi;
              changed := true
            end;
            if lo.(j) > hi.(j) then empty := j
          end);
      incr r
    done
  done;
  match !empty with
  | j when j >= 0 -> `Empty j
  | _ -> `Bounded { Intervals.lo; hi }

(* --- Census block solve and warm-start raking --- *)

module Cs = Attacks.Census_scale

let n_rows = 133

let n_age = 100

let n_race = 6

let n_eth = 2

let row_age a = 1 + a

let row_sex_bucket s b = 1 + n_age + (s * 10) + b

let row_race_eth r e = 1 + n_age + 20 + (r * n_eth) + e

(* The census solver's options (Census_scale's [solver_options]). *)
let census_options = { Lsq.max_iter = 600; tolerance = 1e-4 }

let cell_bounds sup =
  let row_lo, row_hi = Cs.row_bounds sup in
  let box0 =
    Intervals.make ~n:Cs.n_cells ~lo:0. ~hi:(float_of_int sup.Cs.s_total)
  in
  match propagate (Cs.constraint_matrix ()) ~row_lo ~row_hi box0 with
  | `Bounded b -> b
  | `Empty _ -> box0

(* The relaxed stage of [Census_scale.solve_block] (without shaving), as
   every block computed it before the solver was made allocation-free:
   eliminate the pinned cells, equilibrate the remaining columns' rows,
   estimate the step by power iteration, and run the allocating box
   solver. Returns the relaxed solution, iterations, convergence and the
   pinned-cell count. *)
let solve_relaxed ?x0 sup =
  let a = Cs.constraint_matrix () in
  let bounds = cell_bounds sup in
  let n_cells = Cs.n_cells in
  let fixed_cells = Intervals.fixed_count bounds in
  let relaxed = Array.copy bounds.Intervals.lo in
  if fixed_cells = n_cells then (relaxed, 0, true, fixed_cells)
  else begin
    let free =
      Array.of_list
        (List.filter
           (fun j -> not (Intervals.is_fixed bounds j))
           (List.init n_cells Fun.id))
    in
    let af = Sparse.restrict_cols a ~keep:free in
    let w =
      Array.init n_rows (fun r ->
          let c = Sparse.row_nnz af r in
          if c = 0 then 0. else 1. /. sqrt (float_of_int c))
    in
    let af = Sparse.scale_rows af ~w in
    let targets = Cs.row_targets sup in
    let b = Array.make n_rows 0. in
    for r = 0 to n_rows - 1 do
      let fixed_contrib = ref 0. in
      iter_row a r ~f:(fun j v ->
          if Intervals.is_fixed bounds j then
            fixed_contrib := !fixed_contrib +. (v *. bounds.Intervals.lo.(j)));
      b.(r) <- w.(r) *. (targets.(r) -. !fixed_contrib)
    done;
    let lo_f = Array.map (fun j -> bounds.Intervals.lo.(j)) free in
    let hi_f = Array.map (fun j -> bounds.Intervals.hi.(j)) free in
    let x0_f = Option.map (fun x0 -> Array.map (fun j -> x0.(j)) free) x0 in
    let sol =
      box ~options:census_options ?x0:x0_f (of_sparse af) b ~lo:lo_f ~hi:hi_f
    in
    Array.iteri (fun i j -> relaxed.(j) <- sol.Lsq.x.(i)) free;
    (relaxed, sol.Lsq.iterations, sol.Lsq.converged, fixed_cells)
  end

let warm_seed sup relaxed =
  let targets = Cs.row_targets sup in
  let bounds = cell_bounds sup in
  let clamp j v =
    Float.max bounds.Intervals.lo.(j) (Float.min bounds.Intervals.hi.(j) v)
  in
  let x = Array.mapi (fun j v -> clamp j (Float.max v 1e-6)) relaxed in
  let rake ~groups ~group ~target =
    let sums = Array.make groups 0. in
    Array.iteri (fun j v -> sums.(group j) <- sums.(group j) +. v) x;
    Array.iteri
      (fun j v ->
        let g = group j in
        if sums.(g) > 1e-9 then x.(j) <- clamp j (v *. target g /. sums.(g)))
      x
  in
  let age_of j = j / (n_race * n_eth) mod n_age in
  let sex_of j = j / (n_age * n_race * n_eth) in
  for _sweep = 1 to 8 do
    rake ~groups:n_age ~group:age_of ~target:(fun a -> targets.(row_age a));
    rake ~groups:20
      ~group:(fun j -> (sex_of j * 10) + (age_of j / 10))
      ~target:(fun i -> targets.(row_sex_bucket (i / 10) (i mod 10)));
    rake ~groups:(n_race * n_eth)
      ~group:(fun j -> j mod (n_race * n_eth))
      ~target:(fun i -> targets.(row_race_eth (i / n_eth) (i mod n_eth)));
    let total = Array.fold_left ( +. ) 0. x in
    if total > 1e-9 then begin
      let s = float_of_int sup.Cs.s_total /. total in
      Array.iteri (fun j v -> x.(j) <- clamp j (v *. s)) x
    end
  done;
  x

(* --- Comparison --- *)

let bits_equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri
         (fun i v ->
           if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then ok := false)
         a;
       !ok
     end
