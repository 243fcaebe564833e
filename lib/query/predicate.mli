(** Predicates over records.

    This is the paper's object of study: the attacker's output is a
    predicate [p : X -> {0,1}] (Section 2.1, interpreting "a collection of
    attributes" as a truth-valued function on records). Predicates are
    represented as a small AST so that their weight under a product data
    model can be computed analytically — a Monte-Carlo estimate can never
    certify that a weight is negligible. *)

type atom =
  | Eq of string * Dataset.Value.t  (** attribute equals a value *)
  | Member of string * Dataset.Value.t list  (** attribute in a finite set *)
  | Range of string * float * float
      (** numeric view of the attribute in [lo, hi) (dates via ordinal) *)
  | Fits of string * Dataset.Gvalue.t
      (** attribute falls under a generalized value — the bridge from
          k-anonymized releases to predicates *)
  | Hash_bucket of { buckets : int; bucket : int; salt : int64 }
      (** the whole record hashes into a given bucket: the
          Leftover-Hash-Lemma-style predicate of prescribed weight
          [1/buckets] used throughout Section 2 *)
  | Hash_bit of { index : int; salt : int64 }
      (** one bit of the record's 64-bit digest — the unit of information
          the Theorem 2.8 attacker extracts per count query *)

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t * t
  | Or of t * t

val conj : t list -> t
(** Conjunction of a list ([True] for the empty list). *)

val disj : t list -> t

val of_grow : Dataset.Schema.t -> Dataset.Gtable.grow -> t
(** The predicate "this record falls under every cell of this generalized
    row" — the equivalence-class predicate of Theorem 2.10's proof. *)

val encode_row : Dataset.Table.row -> string
(** Canonical serialization of a record, the input to the hash atoms.
    Injective on rows of a fixed schema. *)

val eval : Dataset.Schema.t -> t -> Dataset.Table.row -> bool
(** Raises [Not_found] if an atom names an attribute absent from the
    schema. *)

val count : Dataset.Schema.t -> t -> Dataset.Table.t -> int
(** [Σᵢ p(xᵢ)] — the count-query answer for this predicate, evaluated
    against the table's columnar view via cached bitsets. The tests hold
    it equal to {!count_interpreted} on every input. Raises [Not_found]
    as {!compile} does. *)

val isolates : Dataset.Schema.t -> t -> Dataset.Table.t -> bool
(** Definition 2.1: [p] isolates in [x] iff it holds for exactly one
    record. Compiled like {!count}; short-circuits the popcount past 1. *)

(** {1 Compiled engine}

    [compile] resolves each atom's attribute name to its schema index once
    and pairs it with a specialized columnar evaluation: per-value tests
    (Eq/Member/Fits) run once per distinct dictionary value, Range scans a
    flat float array, hash atoms read a memoized per-salt digest column.
    Each atom materializes a {!Bitset.t} over the table's rows;
    [And]/[Or]/[Not] combine whole words; a count is a popcount loop.

    Atom bitsets and digest columns are memoized in a bounded domain-local
    cache keyed by [(Table.id, atom)] — derived tables get fresh ids, so
    stale hits are impossible by construction. *)

type compiled

val compile : Dataset.Schema.t -> t -> compiled
(** Raises [Not_found] if an atom names an attribute absent from the
    schema — eagerly, unlike the interpreter, which only faults when row
    evaluation actually reaches the atom. *)

val source : compiled -> t
(** The predicate this was compiled from. *)

val bits : ?cache:bool -> compiled -> Dataset.Table.t -> Bitset.t
(** The rows satisfying the predicate, as a bitset of length
    [Table.nrows]. [cache] (default [true]) controls the domain-local atom
    bitset cache; with [~cache:false] every atom rematerializes. *)

val count_compiled : ?cache:bool -> compiled -> Dataset.Table.t -> int

val isolates_compiled : ?cache:bool -> compiled -> Dataset.Table.t -> bool

val count_interpreted : Dataset.Schema.t -> t -> Dataset.Table.t -> int
(** The reference row-by-row interpreter over {!eval}: no production path
    calls it; the tests and the bench kernels compare the compiled path
    against it. *)

(** {2 Batched evaluation}

    The attacks never ask one query: reconstruction, the PSO composition
    game and the dpcheck audits each evaluate hundreds to thousands of
    predicates against one table. The batch entry points share the work
    the per-predicate path repeats per call: the columnar view is fetched
    once, every distinct atom across the whole batch is hash-consed and
    materialized exactly once (feeding the same bounded MRU cache, whose
    capacity is grown to the batch), and each predicate's connectives are
    fused into a postfix program evaluated word-by-word on a reusable
    scratch stack — no intermediate bitset allocation at all.

    Results are exactly [Array.map] of the per-predicate compiled path
    (property-tested against it and against {!count_interpreted}). *)

val count_many : ?cache:bool -> Dataset.Table.t -> compiled array -> int array
(** [count_many table cs] is [Array.map (fun c -> count_compiled c table) cs],
    computed with one shared scan. [cache] as in {!bits}. *)

val isolates_many :
  ?cache:bool -> Dataset.Table.t -> compiled array -> bool array
(** Batched Definition 2.1: per-predicate popcounts short-circuit past 1. *)

val bits_many : ?cache:bool -> Dataset.Table.t -> compiled array -> Bitset.t array
(** Batched {!bits}: one freshly allocated row set per predicate, sharing
    atom materialization across the batch. *)

val atom_cache_capacity : unit -> int
(** Current per-table atom-bitset cache bound. Starts at the
    [PSO_ATOM_CACHE_ATOMS] environment variable (default 512) and grows
    monotonically as batches reserve room, up to a fixed ceiling. *)

val reserve_atom_capacity : int -> unit
(** Grow (never shrink) the atom-cache bound to at least the argument,
    clamped to the ceiling. Called by the batch planner with the number of
    distinct atoms in the batch. *)

(** {1 Weight} *)

type weight =
  | Exact of float  (** computed analytically from the model's marginals *)
  | Salted of float
      (** exact in expectation over the hash salt (hash atoms present);
          concentrates tightly for the salts used in practice *)
  | Estimated of { value : float; trials : int }  (** Monte-Carlo fallback *)

val weight_value : weight -> float

val weight : ?rng:Prob.Rng.t -> ?trials:int -> Dataset.Model.t -> t -> weight
(** [weight model p] is [w_D(p)] (Section 2.2). Conjunctions of
    per-attribute atoms (optionally with hash atoms) are computed
    analytically; other shapes fall back to Monte-Carlo with [trials]
    samples (default 20_000) using [rng] (default a fixed seed). *)

val to_string : t -> string

val digest : t -> string
(** A stable 16-hex-digit identifier (salted 64-bit hash of
    {!to_string}) used to reference predicates in audit-ledger events. *)
