(* The library workloads: one editor driving [Iglr.Session] and the
   semantic analyses directly, in a closed loop.

   A step is one user edit: every [Session.edit] of the step, one
   [Session.reparse] (the [Diag.commit] subscriber runs inside it, on
   [Session.on_commit]), [Typedefs.analyze] where the workload attaches
   it, and [Diag.run].  Its latency runs from the first edit until the
   diagnostics return.  Steps come in self-cancelling pairs (see
   [Script]); at the end of a checked pair the document is the base
   again and the oracle compares the live tree, token stream and
   diagnostics with the base's from-scratch result, outside the timed
   span.  A step that raises, or a pair the oracle rejects, is one
   failed step; the session is then rebuilt from its text, so one
   defect counts once and later steps start clean. *)

open Iglr
module Language = Languages.Language
module Edit_gen = Workload.Edit_gen
module Spec_gen = Workload.Spec_gen

type spec = {
  base : string;
  typedefs : bool;  (** run [Typedefs.analyze] before [Diag.run] *)
  recovery_fails : bool;  (** a [Recovered] outcome is a failed step *)
  script : Script.pair array;
  check_every : int;  (** the oracle checks pair [i] when [i mod check_every = 0] *)
  pairs_per_s : float;  (** pairs a run replays per second of [--seconds] *)
  setup_reps : int;
}

let lang = Languages.C_subset.language

(* A run replays a fixed number of pairs, [seconds * pairs_per_s], so a
   slow host does the same work more slowly; only a host more than 4
   times slower than the calibration stops short. *)
let max_seconds seconds = 4. *. seconds

(* keystroke-large: §5 single-token edits on a ~9.5k-line program
   without ambiguity.  The document is large, so the costs that grow
   linearly with it dominate a step; the oracle renders the whole tree,
   so it checks one pair in 8 (and the last). *)
let keystroke_large ~seed =
  let base = Spec_gen.plain ~lines:16_000 ~seed in
  {
    base;
    typedefs = false;
    recovery_fails = true;
    script = Script.keystroke ~seed ~pairs:2048 base;
    check_every = 8;
    pairs_per_s = 10.;
    setup_reps = 15;
  }

(* structural-mix: a ~1.2k-line program at the typedef density of
   Table 1's ghostscript profile, under the full edit mix. *)
let structural_mix ~seed =
  let profile = Spec_gen.find "ghostscript" in
  let scale = 2_000. /. float_of_int profile.Spec_gen.p_lines in
  let base = Spec_gen.generate ~seed ~scale profile in
  {
    base;
    typedefs = true;
    recovery_fails = false;
    script = Script.structural ~seed ~pairs:8192 base;
    check_every = 1;
    pairs_per_s = 32.;
    setup_reps = 31;
  }

(* A copy of the C bundle with its own, unforced table and lexer
   lazies: forcing them times a cold build. *)
let fresh_language () =
  Language.make ~name:lang.Language.name ~grammar:lang.Language.grammar
    ~ambig:lang.Language.ambig
    ~rules:(Languages.Clike.rules Languages.Clike.C)
    ()

type live = { mutable session : Session.t; mutable an : Oracle.analyzers }

(* A session on [text] with fresh analyzers and their first run. *)
let open_session spec tr ~table ~lexer text =
  let (session, outcome), t_create =
    Stats.timed (fun () -> Session.create ~table ~lexer text)
  in
  let an, t_initial =
    Stats.timed (fun () ->
        let an =
          Oracle.attach ~typedefs:spec.typedefs lang session
            ~wrap_commit:(Spans.with_span tr "query.commit")
        in
        ignore (Oracle.run an (Session.root session));
        an)
  in
  ({ session; an }, outcome, t_create, t_initial)

(* One cold set-up: table and DFA builds through a fresh bundle, the
   session, the analyzers and their first run. *)
let setup_once spec tr =
  let fresh = fresh_language () in
  let table, t_lr = Stats.timed (fun () -> Language.table fresh) in
  let lexer, t_dfa = Stats.timed (fun () -> Language.lexer fresh) in
  let live, outcome, t_create, t_initial =
    open_session spec tr ~table ~lexer spec.base
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> failwith "set-up: the base program does not parse");
  (live, [ t_lr; t_dfa; t_create; t_initial ])

let describe spec rep ~workload ~seed =
  let toks, _ = Lexgen.Scanner.all (Language.lexer lang) spec.base in
  Report.note rep "input"
    (Printf.sprintf
       "workload=%s language=c lines=%d tokens=%d bytes=%d docs=1 \
        loop=closed clients=1 script=%d pairs (%s) seed=%d"
       workload
       (List.length (String.split_on_char '\n' spec.base) - 1)
       (List.length toks) (String.length spec.base) (Array.length spec.script)
       (Script.digest spec.script) seed)

type step = {
  index : int;
  mutable dt : float;  (** seconds; nan until the step completes *)
  mutable failed : bool;
  mutable counters : int list;  (** traced steps: [Layers.counters], cells, words *)
}

let measure ~workload ~spec ~seed ~seconds ~trace ~tr ~expected live rep =
  let grammar = lang.Language.grammar in
  (* A session on the empty text, to hold in [live] while a failed one
     is replaced. *)
  let placeholder =
    lazy
      (let l, _, _, _ =
         open_session spec tr ~table:(Language.table lang)
           ~lexer:(Language.lexer lang) ""
       in
       l)
  in
  (* The failed session is released and collected before its
     replacement is built, so a run with a failed step reaches the same
     peak RSS as a clean one. *)
  let rebuild text =
    let idle = Lazy.force placeholder in
    live.session <- idle.session;
    live.an <- idle.an;
    Gc.full_major ();
    let l, _, _, _ =
      open_session spec tr ~table:(Language.table lang)
        ~lexer:(Language.lexer lang) text
    in
    live.session <- l.session;
    live.an <- l.an
  in
  let cells () =
    Query.cells (Semantics.Diag.engine live.an.Oracle.diag)
    + Option.fold ~none:0
        ~some:(fun t -> Query.cells (Semantics.Typedefs.engine t))
        live.an.Oracle.tds
  in
  let steps = ref [] in
  let n = Array.length spec.script in
  (* Each failed step, named by its pair and the pair's kind. *)
  let failures = ref [] in
  let failed (st : step) why =
    st.failed <- true;
    st.dt <- Float.nan;
    Report.fail rep why;
    failures :=
      Printf.sprintf "step %d (pair %d, %s): %s" st.index (st.index / 2)
        (Script.kind_name spec.script.(st.index / 2 mod n).Script.kind)
        why
      :: !failures
  in
  (* Runs one step; returns the diagnostics it produced, or [None] when
     it failed.  [text] is what the document must read afterwards. *)
  let do_step ~traced index edits text =
    let st = { index; dt = Float.nan; failed = false; counters = [] } in
    steps := st :: !steps;
    Report.attempt rep;
    Spans.set_enabled tr traced;
    Spans.set_step tr index;
    let layers () =
      List.iter
        (fun (e : Edit_gen.edit) ->
          Spans.with_span tr "document.edit" (fun () ->
              Session.edit live.session ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
                ~insert:e.Edit_gen.e_insert))
        edits;
      let outcome =
        Spans.with_span tr "core.reparse" (fun () -> Session.reparse live.session)
      in
      ( outcome,
        Oracle.run
          ~span:{ Oracle.span = (fun n f -> Spans.with_span tr n f) }
          live.an (Session.root live.session) )
    in
    (* A traced step reads its work counters from the [Session.measure]
       delta; the harness's own work, this included, is the self time
       of [bench.step]. *)
    let root () =
      if not traced then layers ()
      else begin
        let v, d = Session.measure layers in
        st.counters <- List.map (Metrics.count d) Layers.counters;
        v
      end
    in
    let fail why =
      failed st why;
      rebuild text;
      None
    in
    (* Nothing allocates between a clock read here and the root span's
       own, so no collection falls in between: the self-time check
       below sees only the clock reads. *)
    let w0 = Stats.allocated_words () in
    let t0 = Stats.now () in
    let result =
      match Spans.with_span tr "bench.step" root with
      | v ->
          let dt = Stats.now () -. t0 in
          Ok (v, dt)
      | exception e -> Error e
    in
    let words = Stats.allocated_words () -. w0 in
    Spans.set_enabled tr false;
    match result with
    | Error e -> fail ("exception: " ^ Printexc.to_string e)
    | Ok ((outcome, r), dt) ->
        if traced then st.counters <- st.counters @ [ cells (); int_of_float words ];
        if not (String.equal (Session.text live.session) text) then
          fail "document text differs from the script's"
        else begin
          match outcome with
          | Session.Recovered _ when spec.recovery_fails -> fail "unexpected recovery"
          | _ ->
              st.dt <- dt;
              Some r
        end
  in
  let do_pair ~traced i =
    let p = spec.script.(i mod n) in
    let mid = List.fold_left (fun t e -> Edit_gen.apply e t) spec.base p.Script.fwd in
    ignore (do_step ~traced (2 * i) p.Script.fwd mid);
    do_step ~traced ((2 * i) + 1) p.Script.back spec.base
  in
  let check result =
    match result with
    | None -> ()
    | Some r -> (
        let observed = Oracle.observe grammar live.session ~diag:(Semantics.Diag.render r) in
        match Oracle.diff expected observed with
        | [] -> ()
        | parts ->
            failed (List.hd !steps) ("oracle: " ^ String.concat "+" parts ^ " differ");
            rebuild spec.base)
  in
  (* The traced run leaves one pair in 4 untraced; the two kinds of
     step, interleaved over the same stretch of the run, give the
     tracing overhead. *)
  let traced_pair i = trace && i mod 4 <> 3 in
  Gc.compact ();
  let t_start = Stats.now () in
  let i = ref 0 in
  let last = ref None in
  let pairs = int_of_float (Float.ceil (seconds *. spec.pairs_per_s)) in
  while !i < pairs && Stats.now () -. t_start < max_seconds seconds do
    let r = do_pair ~traced:(traced_pair !i) !i in
    (* A checked pair's result is not kept: a rebuild after a failed
       check must find nothing of the failed session still reachable. *)
    if !i mod spec.check_every = 0 then begin
      last := None;
      check r
    end
    else last := Some r;
    incr i
  done;
  (* The last pair is always checked. *)
  if (!i - 1) mod spec.check_every <> 0 then Option.iter check !last;
  if !failures <> [] then
    Report.note rep "failed steps" (String.concat "; " (List.rev !failures));
  Report.note rep "pairs"
    (Printf.sprintf "%d of %d pairs in %.1f s" !i pairs (Stats.now () -. t_start));
  let steps = Array.of_list (List.rev !steps) in
  Record.check rep ~workload ~seed ~what:"failures"
    (("script " ^ Script.digest spec.script)
    :: Array.to_list
         (Array.map (fun s -> Printf.sprintf "%d %b" s.index s.failed) steps));
  let ok_dts filter =
    Array.of_list
      (List.filter_map
         (fun s -> if filter s && Float.is_finite s.dt then Some (s.dt *. 1e3) else None)
         (Array.to_list steps))
  in
  if not trace then begin
    let dts = ok_dts (fun _ -> true) in
    let n = Array.length dts in
    Report.note rep "samples" (Printf.sprintf "%d step latencies" n);
    Layers.add rep "edit_p50_ms" ~samples:n (Stats.median dts);
    (try Layers.add rep "edit_p90_ms" ~samples:n (Stats.tail dts ~what:"edit_p90_ms" 90.)
     with Failure m -> Report.break rep m);
    Report.add rep "peak_rss_mb" (Stats.peak_rss_mb ()) "MiB"
  end
  else begin
    let is_traced s = traced_pair (s.index / 2) in
    let traced = List.filter is_traced (Array.to_list steps) in
    Record.check rep ~workload ~seed ~what:"counters"
      (("script " ^ Script.digest spec.script)
      :: List.map
           (fun s ->
             String.concat " "
               (string_of_int s.index :: List.map string_of_int s.counters))
           traced);
    let spans = Spans.spans tr in
    Record.write_spans ~workload ~seed spans;
    let profiles = Spans.profiles spans in
    let by_step = Hashtbl.create 1024 in
    List.iter (fun (p : Spans.profile) -> Hashtbl.replace by_step p.Spans.step_id p) profiles;
    (* Only completed steps: a failed step's spans stop at the raise. *)
    let profiles =
      List.filter_map
        (fun s -> if Float.is_finite s.dt then Option.map (fun p -> (s, p)) (Hashtbl.find_opt by_step s.index) else None)
        traced
    in
    let np = List.length profiles in
    let mean f = Stats.mean (Array.of_list (List.map f profiles)) in
    let self_ms name (_, p) = Spans.get p.Spans.times name *. 1e3 in
    let self_kw names (_, p) =
      List.fold_left (fun a n -> a +. Spans.get p.Spans.allocs n) 0. names /. 1e3
    in
    List.iter
      (fun (metric, span) -> Layers.add rep metric ~samples:np (mean (self_ms span)))
      [
        ("document.edit_ms", "document.edit");
        ("core.reparse_ms", "core.reparse");
        ("query.commit_ms", "query.commit");
        ("semantics.diag_ms", "semantics.diag");
        ("semantics.typedefs_ms", "semantics.typedefs");
      ];
    (try
       Layers.add rep "core.reparse_p90_ms" ~samples:np
         (Stats.tail
            (Array.of_list (List.map (self_ms "core.reparse") profiles))
            ~what:"core.reparse_p90_ms" 90.)
     with Failure m -> Report.break rep m);
    Layers.add rep "document.alloc_kw" (mean (self_kw [ "document.edit" ]));
    Layers.add rep "core.alloc_kw" (mean (self_kw [ "core.reparse" ]));
    Layers.add rep "semantics.alloc_kw"
      (mean (self_kw [ "semantics.typedefs"; "semantics.diag" ]));
    (* Self-time accounting: the layers' self times plus the harness's
       own ([bench.step]) add up to the step's time as timed from
       outside.  The gap is the clock reads between the outer ones and
       the root span's; nothing allocates there (see [do_step]). *)
    let gap =
      List.fold_left
        (fun g (s, p) -> Float.max g (Float.abs (s.dt -. Spans.total p.Spans.times)))
        0. profiles
    in
    Report.note rep "self-time check"
      (Printf.sprintf
         "%d traced steps; harness self time %.4f ms per step; largest gap \
          between a step's time and its summed self times %.4f ms"
         np
         (mean (self_ms "bench.step"))
         (gap *. 1e3));
    if gap > 1e-3 then Report.break rep "self times do not account for the step time";
    let counted = List.map fst profiles in
    let total c =
      let k = Option.get (List.find_index (String.equal c) Layers.counters) in
      List.fold_left (fun a s -> a +. float_of_int (List.nth s.counters k)) 0. counted
    in
    let ncount = List.length Layers.counters in
    Layers.add_work rep ~steps:(List.length counted) ~total
      ~cells:
        (List.fold_left
           (fun a s -> a +. float_of_int (List.nth s.counters ncount))
           0. counted)
      ~analyses:(List.length counted);
    Layers.add rep "dag.words"
      (float_of_int (Parsedag.Stats.measure (Session.root live.session)).Parsedag.Stats.dag_words);
    let med f = Stats.median (ok_dts f) in
    Layers.add rep "bench.trace_overhead_pct"
      (100. *. ((med is_traced /. med (fun s -> not (is_traced s))) -. 1.));
    List.iter
      (fun m -> Layers.add rep m 0.)
      [
        "server.dispatch_ms"; "server.parse_ms"; "server.wait_ms";
        "server.queue_depth_max"; "bench.gen_lag_p99_ms";
      ]
  end

(* The first set-up's session serves the run.  Set-up then repeats
   until there are [setup_reps] samples, after the run and its peak
   RSS reading, so the repetitions' garbage neither disturbs the
   measured steps nor counts as the run's memory. *)
let run ~workload ~spec ~seed ~seconds ~trace rep =
  let tr = Spans.create () in
  describe spec rep ~workload ~seed;
  let expected = Oracle.expect lang ~typedefs:spec.typedefs spec.base in
  Gc.compact ();
  let live, first = setup_once spec tr in
  measure ~workload ~spec ~seed ~seconds ~trace ~tr ~expected live rep;
  let rest =
    List.init (spec.setup_reps - 1) (fun _ ->
        Gc.compact ();
        snd (setup_once spec tr))
  in
  Layers.add_setup rep
    [ "lr.table_build_s"; "lexer.dfa_build_s"; "core.create_s"; "semantics.initial_s" ]
    (first :: rest);
  Layers.add rep "server.open_s" 0.
