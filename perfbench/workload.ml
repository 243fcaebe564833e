(* What every workload hands the measuring loop in main.ml. *)

type outcome = {
  ops : int;  (** census blocks, game trials or paper tables *)
  unconverged : int;
      (** ops whose solver stopped before converging: census blocks. Their
          result is still rounded and scored; they are not failed ops. *)
  match_rate : float;
  coarse_match_rate : float;
  digest : string;
      (** canonical rendering of the result: equal across repetitions of one
          seed, and equal between the untraced and traced passes *)
  errors : string list;  (** failed correctness checks *)
}

type traced = {
  outcome : outcome;
  trace : Trace.summary;
  counts : (string * float) list;  (** workload-specific per-layer figures *)
}

type instance = {
  size : (string * Json.t) list;  (** the fixed amount of work in one pass *)
  warmup : unit -> unit;
      (** a short run of the same code paths, before the measured passes *)
  untraced : unit -> outcome;
  traced : unit -> traced;
}
