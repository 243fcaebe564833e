(* paper-tables: every [Experiments.Registry] entry rendered at Quick
   scale, plus the CERT verdict table, exactly as test/test_golden.ml
   renders them: a fresh generator from the seed per table, into a buffer.
   At the golden seed every table must equal its test/golden snapshot; the
   CERT table involves no randomness, so it must equal its snapshot at
   every seed. *)

let golden_seed = 20210621L

let cert_id = "CERT"

let ids =
  List.map (fun (e : Experiments.Registry.entry) -> e.id) Experiments.Registry.all
  @ [ cert_id ]

(* The snapshots that apply at [seed], read once at set-up. *)
let goldens ~seed =
  List.filter_map
    (fun id ->
      if id <> cert_id && seed <> golden_seed then None
      else
        let path = Filename.concat "test/golden" (id ^ ".txt") in
        Some
          ( id,
            if Sys.file_exists path then
              Some (In_channel.with_open_bin path In_channel.input_all)
            else None ))
    ids

let render_entry (e : Experiments.Registry.entry) ~seed =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  e.print ~scale:Experiments.Common.Quick (Prob.Rng.create ~seed ()) fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* A table that differs from its snapshot fails a check. *)
let outcome ~goldens tables =
  let errors =
    List.filter_map
      (fun (id, text) ->
        match List.assoc_opt id goldens with
        | None -> None
        | Some (Some g) when String.equal g text -> None
        | Some (Some _) -> Some (id ^ " differs from test/golden/" ^ id ^ ".txt")
        | Some None -> Some ("test/golden/" ^ id ^ ".txt is missing"))
      tables
  in
  let ops = List.length tables in
  let ok = float_of_int (ops - List.length errors) /. float_of_int ops in
  {
    Workload.ops;
    unconverged = 0;
    match_rate = ok;
    coarse_match_rate = ok;
    digest =
      String.concat ""
        (List.map (fun (id, text) -> "== " ^ id ^ " ==\n" ^ text) tables);
    errors;
  }

let untraced ~goldens ~seed () =
  outcome ~goldens
    (List.map
       (fun (e : Experiments.Registry.entry) -> (e.id, render_entry e ~seed))
       Experiments.Registry.all
    @ [ (cert_id, Cert.Registry.render_table (Cert.Registry.verify_all ())) ])

let traced ~goldens ~seed () =
  let entries =
    List.map
      (fun (e : Experiments.Registry.entry) ->
        Trace.work (fun item ->
            ( e.id,
              Trace.time item ("experiments." ^ e.id) (fun () ->
                  render_entry e ~seed) )))
      Experiments.Registry.all
  in
  let cert =
    Trace.work (fun item ->
        ( cert_id,
          Cert.Registry.render_table
            (Trace.time item "cert.verify_all" Cert.Registry.verify_all) ))
  in
  let tables = entries @ [ cert ] in
  {
    Workload.outcome = outcome ~goldens (List.map fst tables);
    trace = Trace.summarize (List.map snd tables);
    counts = [];
  }

let prepare ~seed =
  let goldens = goldens ~seed in
  {
    Workload.size =
      [
        ("tables", Json.number (float_of_int (List.length ids)));
        ("scale", Json.String "quick");
      ];
    (* Every table but the four that take longest (E1, E2, E10, E14, about
       7 of a pass's 8 s), so set-up can be repeated; the first measured
       pass warms those four. *)
    warmup =
      (fun () ->
        List.iter
          (fun (e : Experiments.Registry.entry) ->
            if not (List.mem e.id [ "E1"; "E2"; "E10"; "E14" ]) then
              ignore (render_entry e ~seed))
          Experiments.Registry.all;
        ignore (Cert.Registry.render_table (Cert.Registry.verify_all ())));
    untraced = untraced ~goldens ~seed;
    traced = traced ~goldens ~seed;
  }
