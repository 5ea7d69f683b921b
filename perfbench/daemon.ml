(* daemon-typing: the parse service in process.

   One [Server.Engine] serves 16 small C documents in the engine's
   inline mode ([jobs = 0], what [iglrd --serial] runs): the
   benchmark's thread is the dispatcher and runs every request itself,
   through decode, admission, the session pool, the handler, the
   response and the access-log line.  The engine's default of one
   worker domain was measured and left out: on the 2-processor virtual
   machine the benchmark was built on, handing each request to a
   sleeping worker costs a processor wake-up whose latency follows the
   host's load, and p90 cycle latency then ranged from 1.8 to 4.4 ms
   over ten runs of the same program.

   The load is an open loop: cycle [c] is due at [c / rate] seconds,
   whatever happened before, and sends an [edit] and a [parse] for one
   document (a [diag] too on every 4th cycle).  Its latency runs from
   when it was due until its last response was emitted, so a stall also
   counts against the cycles queued behind it.  The rate is about a
   tenth of the service's capacity: protocol and pool costs dominate,
   and queueing does not amplify the host's drift.

   The script (which document each cycle edits, and with which edit) is
   drawn from the seed, and the number of cycles is [rate * seconds],
   so every run sends the same requests.  The response and access-log
   sinks store a timestamp and the line; untraced lines are checked
   without decoding and dropped, traced ones decoded after the run. *)

open Iglr
module Json = Metrics.Json
module Engine = Server.Engine
module Edit_gen = Workload.Edit_gen

let n_docs = 16
let doc_lines = 200
let rate = 128.
let diag_every = 4
let setup_reps = 15
let lang = Languages.C_subset.language

(* Lines a sink received, in call order, each with its timestamp. *)
type sink = { ts : float array; lines : string array; count : int Atomic.t }

let sink cap = { ts = Array.make cap 0.; lines = Array.make cap ""; count = Atomic.make 0 }

(* The engine calls a sink under its writer lock, so each sink has one
   writer at a time: fill the slot, then publish it through [count]
   (which matters only if the engine runs worker domains). *)
let store s line =
  let i = Atomic.get s.count in
  if i < Array.length s.ts then begin
    s.ts.(i) <- Unix.gettimeofday ();
    s.lines.(i) <- line
  end;
  Atomic.set s.count (i + 1)

let received s = min (Array.length s.ts) (Atomic.get s.count)

type doc = {
  name : string;
  base : string;
  forward : Edit_gen.edit array;
  mutable next : int;
  mutable undo : Edit_gen.edit option;
      (** inverse of the last forward edit, sent by the doc's next cycle *)
  mutable text : string;
  mutable diag_text : string;  (** the text of the doc's last diag request *)
  mutable history : Edit_gen.edit list;  (** newest first *)
}

let make_docs ~seed =
  Array.init n_docs (fun i ->
      let base = Workload.Spec_gen.plain ~lines:doc_lines ~seed:(seed + (7919 * i)) in
      {
        name = Printf.sprintf "doc%02d.c" i;
        base;
        forward = Array.of_list (Edit_gen.token_edits ~seed:(seed + i) ~count:512 base);
        next = 0;
        undo = None;
        text = base;
        diag_text = base;
        history = [];
      })

(* The doc's next edit: a forward token edit, then its inverse, so the
   document keeps returning to its base text. *)
let next_edit d =
  let e =
    match d.undo with
    | Some inv ->
        d.undo <- None;
        inv
    | None ->
        let e = d.forward.(d.next mod Array.length d.forward) in
        d.next <- d.next + 1;
        d.undo <- Some (Edit_gen.inverse e d.text);
        e
  in
  d.text <- Edit_gen.apply e d.text;
  d.history <- e :: d.history;
  e

type kind = Edit | Parse | Diag

type request = {
  kind : kind;
  cycle : int;
  doc : doc;
  traced : bool;
}

let request_line ~id meth params =
  Json.to_line
    (Json.Obj [ ("id", Json.Int id); ("method", Json.String meth); ("params", Json.Obj params) ])

(* The first position at or after [p] where [pat] occurs in [line], or
   -1.  Responses are checked by comparing bytes in place rather than
   decoding the JSON: the check runs on the dispatcher during the run,
   for every response. *)
let find_from line p pat =
  let n = String.length line and m = String.length pat in
  let rec at p k = k = m || (line.[p + k] = pat.[k] && at p (k + 1)) in
  let rec go p = if p + m > n then -1 else if at p 0 then p else go (p + 1) in
  go p

let contains line pat = find_from line 0 pat >= 0

(* [result_for line id]: [line] is a result envelope for request [id]. *)
let result_for line id =
  let digits q =
    let rec go q acc =
      if q < String.length line && line.[q] >= '0' && line.[q] <= '9' then
        go (q + 1) ((acc * 10) + Char.code line.[q] - 48)
      else (q, acc)
    in
    go q 0
  in
  let p = find_from line 0 ",\"id\":" in
  p >= 0
  &&
  let q, v = digits (p + 6) in
  v = id && find_from line q ",\"req\":" = q
  &&
  let r, _ = digits (q + 7) in
  find_from line r ",\"result\":" = r

(* Open every document with its first analysis and wait for the
   answers.  Returns the number of requests sent. *)
let open_all engine docs =
  let id = ref 0 in
  let send meth params =
    Engine.handle_line engine (request_line ~id:!id meth params);
    incr id
  in
  Array.iter
    (fun d ->
      send "open"
        [ ("doc", Json.String d.name); ("lang", Json.String "c"); ("text", Json.String d.base) ];
      send "diag" [ ("doc", Json.String d.name) ])
    docs;
  Engine.drain engine;
  !id

(* One cold set-up: the C table and DFA built through a fresh bundle
   (the engine shares the registry's, forced once beforehand), then a
   fresh engine opening every document with its first analysis. *)
let setup_once ~seed ~cap =
  let fresh = Libwl.fresh_language () in
  let _, t_lr = Stats.timed (fun () -> Languages.Language.table fresh) in
  let _, t_dfa = Stats.timed (fun () -> Languages.Language.lexer fresh) in
  let out = sink cap and log = sink cap in
  let (engine, n), t_open =
    Stats.timed (fun () ->
        let engine = Engine.create ~jobs:0 ~log:(store log) ~emit:(store out) () in
        (engine, open_all engine (make_docs ~seed)))
  in
  if received out <> n then failwith "set-up: missing open/diag responses";
  for i = 0 to n - 1 do
    if not (result_for out.lines.(i) i) then failwith ("set-up: " ^ out.lines.(i))
  done;
  Atomic.set out.count 0;
  Atomic.set log.count 0;
  ((engine, out, log), [ t_lr; t_dfa; t_open ])

(* The dispatcher busy-waits rather than sleeps: a thread's wake-up
   lateness on this kind of host runs to milliseconds, and it would
   count in the latencies measured. *)
let wait_until ~due poll =
  poll ();
  while Stats.now () < due do
    for _ = 1 to 200 do
      Domain.cpu_relax ()
    done;
    poll ()
  done

(* What the benchmark keeps of a traced response once decoded. *)
type decoded = {
  ms : float;  (** parse: the response's [ms] *)
  log_ms : float;  (** parse: the access log's [ms] *)
  counts : int list;  (** [Layers.counters] of the metric delta *)
  cells : int;  (** diag: query cells *)
}

let decode ~out ~log =
  let j = Json.of_string out in
  let res = Option.get (Json.member "result" j) in
  let num j path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
    |> Fun.flip Option.bind Json.to_float
    |> Option.value ~default:Float.nan
  in
  let metrics = Option.value ~default:(Json.Obj []) (Json.member "metrics" res) in
  let count name =
    Option.value ~default:0 (Option.bind (Json.member name metrics) Json.to_int)
  in
  {
    ms = num res [ "ms" ];
    log_ms = num (Json.of_string log) [ "ms" ];
    counts = List.map count Layers.counters;
    cells = int_of_float (num res [ "query"; "cells" ]);
  }

(* The diagnostics of a diag response, as (code, token, message). *)
let diag_key_of_json line =
  let j = Json.of_string line in
  match Option.bind (Json.member "result" j) (Json.member "diagnostics") with
  | Some (Json.List ds) ->
      List.map
        (fun d ->
          let s k = Option.value ~default:"" (Option.bind (Json.member k d) Json.to_str) in
          let t = Option.value ~default:(-1) (Option.bind (Json.member "token" d) Json.to_int) in
          Printf.sprintf "%s@%d %s" (s "code") t (s "message"))
        ds
  | _ -> [ "<no diagnostics>" ]

let diag_key_fresh text =
  let s, _ =
    Session.create ~table:(Languages.Language.table lang)
      ~lexer:(Languages.Language.lexer lang) text
  in
  let r = Oracle.run (Oracle.attach ~typedefs:true lang s) (Session.root s) in
  List.map
    (fun (d : Semantics.Diag.diag) ->
      Printf.sprintf "%s@%d %s" d.Semantics.Diag.d_code d.Semantics.Diag.d_token
        d.Semantics.Diag.d_message)
    r.Semantics.Diag.diags

let describe rep docs ~seed ~cycles =
  let toks =
    Array.fold_left
      (fun a d -> a + List.length (fst (Lexgen.Scanner.all (Languages.Language.lexer lang) d.base)))
      0 docs
  in
  Report.note rep "input"
    (Printf.sprintf
       "workload=daemon-typing language=c lines=%d tokens=%d bytes=%d docs=%d \
        loop=open rate=%g cycles/s (edit+parse, diag every %d) cycles=%d \
        engine=inline (iglrd --serial) seed=%d"
       (Array.fold_left (fun a d -> a + List.length (String.split_on_char '\n' d.base) - 1) 0 docs)
       toks
       (Array.fold_left (fun a d -> a + String.length d.base) 0 docs)
       n_docs rate diag_every cycles seed)

let measure ~seed ~cycles ~trace (engine, out, log) rep =
  let cap = Array.length out.ts in
  let docs = make_docs ~seed in
  (* Every round of [n_docs] cycles edits each document once, in a
     seeded order, so each run spreads the same load over the
     documents. *)
  let pick = Random.State.make [| seed; 0xd0c |] in
  let order = Array.init n_docs Fun.id in
  let script =
    Array.init cycles (fun c ->
        let k = c mod n_docs in
        if k = 0 then
          for j = n_docs - 1 downto 1 do
            let r = Random.State.int pick (j + 1) in
            let t = order.(j) in
            order.(j) <- order.(r);
            order.(r) <- t
          done;
        docs.(order.(k)))
  in
  (* The traced run alternates blocks of [diag_every] cycles between
     traced and untraced, so both hold the same mix of requests and see
     the same load and drift. *)
  let traced_cycle c = trace && c / diag_every mod 2 = 0 in
  let tr = Spans.create () in
  let sent = Array.make cap None in
  let n_sent = ref 0 in
  let send ~traced ~cycle d kind meth params =
    let id = !n_sent in
    if kind = Diag then d.diag_text <- d.text;
    sent.(id) <- Some { kind; cycle; doc = d; traced };
    incr n_sent;
    Spans.set_enabled tr traced;
    Spans.set_step tr cycle;
    Spans.with_span tr "server.dispatch" (fun () ->
        Engine.handle_line engine (request_line ~id meth params));
    Spans.set_enabled tr false
  in
  let send_cycle c =
    let d = script.(c) in
    let traced = traced_cycle c in
    let e = next_edit d in
    let doc = ("doc", Json.String d.name) in
    send ~traced ~cycle:c d Edit "edit"
      [
        doc;
        ( "edits",
          Json.List
            [
              Json.Obj
                [
                  ("pos", Json.Int e.Edit_gen.e_pos);
                  ("del", Json.Int e.Edit_gen.e_del);
                  ("insert", Json.String e.Edit_gen.e_insert);
                ];
            ] );
      ];
    send ~traced ~cycle:c d Parse "parse"
      [ doc; ("timing", Json.Bool true); ("metrics", Json.Bool traced) ];
    if c mod diag_every = diag_every - 1 then
      send ~traced ~cycle:c d Diag "diag" [ doc; ("metrics", Json.Bool traced) ]
  in
  (* Checked as they arrive: untraced lines are dropped, traced ones
     kept for decoding; the last diag response of each doc is kept for
     the oracle. *)
  let ok = Array.make cap false in
  let last_diag = Hashtbl.create n_docs in
  let absorbed = ref 0 in
  let absorb () =
    let upto = min (received out) (received log) in
    for i = !absorbed to upto - 1 do
      let r = Option.get sent.(i) in
      let line = out.lines.(i) in
      ok.(i) <- result_for line i && (r.kind <> Parse || contains line "\"status\":\"parsed\"");
      if r.kind = Diag then Hashtbl.replace last_diag r.doc.name line;
      if not r.traced then begin
        out.lines.(i) <- "";
        log.lines.(i) <- ""
      end
    done;
    absorbed := upto
  in
  let lags = Array.make cycles 0. in
  let depth_max = ref 0 in
  Gc.compact ();
  let t0 = Stats.now () +. 0.05 in
  for c = 0 to cycles - 1 do
    let due = t0 +. (float_of_int c /. rate) in
    wait_until ~due absorb;
    lags.(c) <- Stats.now () -. due;
    send_cycle c;
    depth_max := max !depth_max (!n_sent - received out)
  done;
  Engine.drain engine;
  absorb ();
  let n = !n_sent in
  (* Per cycle: when its last response was emitted, and whether every
     response of it was a result. *)
  let cycle_done = Array.make cycles Float.neg_infinity in
  let cycle_ok = Array.make cycles true in
  for i = 0 to n - 1 do
    let r = Option.get sent.(i) in
    if i < received out then
      cycle_done.(r.cycle) <- Float.max cycle_done.(r.cycle) out.ts.(i);
    if not ok.(i) then cycle_ok.(r.cycle) <- false
  done;
  if received out <> n then Report.break rep "missing or extra responses";
  let lat = Array.make cycles Float.nan in
  for c = 0 to cycles - 1 do
    Report.attempt rep;
    if cycle_ok.(c) then lat.(c) <- (cycle_done.(c) -. (t0 +. (float_of_int c /. rate))) *. 1e3
    else Report.fail rep "RPC error, recovery or missing response"
  done;
  (* The script, one entry per cycle: its document and the edit it
     made.  Each cycle's line carries its entry, so runs of different
     lengths compare over the cycles both ran. *)
  let script_lines =
    let pending = Hashtbl.create n_docs in
    Array.iter (fun d -> Hashtbl.replace pending d.name (List.rev d.history)) docs;
    Array.map
      (fun d ->
        match Hashtbl.find pending d.name with
        | (e : Edit_gen.edit) :: rest ->
            Hashtbl.replace pending d.name rest;
            Printf.sprintf "%s %d,%d,%S" d.name e.e_pos e.e_del e.e_insert
        | [] -> d.name)
      script
  in
  Record.check rep ~workload:"daemon-typing" ~seed ~what:"failures"
    (List.init cycles (fun c ->
         Printf.sprintf "%d %s %b" c script_lines.(c) (not cycle_ok.(c))));
  (* Oracle: each document's served text and tree equal a serial replay
     of its edit history, one reparse per cycle as the engine did; its
     last diag response equals fresh analyzers on the text it saw. *)
  let grammar = lang.Languages.Language.grammar in
  Array.iter
    (fun d ->
      Report.attempt rep;
      let s, _ =
        Session.create ~table:(Languages.Language.table lang)
          ~lexer:(Languages.Language.lexer lang) d.base
      in
      List.iter
        (fun (e : Edit_gen.edit) ->
          Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del ~insert:e.Edit_gen.e_insert;
          ignore (Session.reparse s))
        (List.rev d.history);
      let diag_ok =
        match Hashtbl.find_opt last_diag d.name with
        | None -> true
        | Some line -> diag_key_of_json line = diag_key_fresh d.diag_text
      in
      match Server.Pool.find (Engine.pool engine) d.name with
      | None -> Report.fail rep "document vanished"
      | Some e ->
          let served = e.Server.Pool.session in
          if not (String.equal (Session.text served) d.text) then
            Report.fail rep "served text differs from the replay"
          else if
            not
              (String.equal
                 (Parsedag.Pp.to_sexp grammar (Session.root served))
                 (Parsedag.Pp.to_sexp grammar (Session.root s)))
          then Report.fail rep "served tree differs from the replay"
          else if not diag_ok then Report.fail rep "served diagnostics differ from fresh analyzers")
    docs;
  let lat_ok pred =
    Array.of_list
      (List.filter_map
         (fun c -> if pred c && Float.is_finite lat.(c) then Some lat.(c) else None)
         (List.init cycles Fun.id))
  in
  if not trace then begin
    let xs = lat_ok (fun _ -> true) in
    let k = Array.length xs in
    let with_diag c = c mod diag_every = diag_every - 1 in
    let split name pred =
      let ys = lat_ok pred in
      Printf.sprintf "%s: n=%d p50 %.4f ms p90 %.4f ms" name (Array.length ys)
        (Stats.median ys) (Stats.percentile ys 90.)
    in
    Report.note rep "samples"
      (Printf.sprintf "%d cycle latencies; %s; %s" k
         (split "edit+parse" (fun c -> not (with_diag c)))
         (split "edit+parse+diag" with_diag));
    Report.note rep "generator lag"
      (Printf.sprintf "p99 %.4f ms" (Stats.percentile lags 99. *. 1e3));
    Layers.add rep "edit_p50_ms" ~samples:k (Stats.median xs);
    (try Layers.add rep "edit_p90_ms" ~samples:k (Stats.tail xs ~what:"edit_p90_ms" 90.)
     with Failure m -> Report.break rep m);
    Report.add rep "peak_rss_mb" (Stats.peak_rss_mb ()) "MiB"
  end
  else begin
    let traced =
      List.filter_map
        (fun i ->
          let r = Option.get sent.(i) in
          if r.traced && ok.(i) && r.kind <> Edit then
            Some (i, r, decode ~out:out.lines.(i) ~log:log.lines.(i))
          else None)
        (List.init n Fun.id)
    in
    let parses = List.filter (fun (_, r, _) -> r.kind = Parse) traced in
    let diags = List.filter (fun (_, r, _) -> r.kind = Diag) traced in
    let arr f l = Array.of_list (List.map f l) in
    let parse_ms = arr (fun (_, _, x) -> x.ms) parses in
    let np = Array.length parse_ms in
    Layers.add rep "core.reparse_ms" ~samples:np (Stats.mean parse_ms);
    (try
       Layers.add rep "core.reparse_p90_ms" ~samples:np
         (Stats.tail parse_ms ~what:"core.reparse_p90_ms" 90.)
     with Failure m -> Report.break rep m);
    Layers.add rep "server.parse_ms" ~samples:np (Stats.mean (arr (fun (_, _, x) -> x.log_ms) parses));
    Layers.add rep "server.wait_ms" ~samples:np
      (Stats.mean (arr (fun (_, _, x) -> x.log_ms -. x.ms) parses));
    Layers.add rep "server.queue_depth_max" (float_of_int !depth_max);
    let n_traced = List.length (List.filter traced_cycle (List.init cycles Fun.id)) in
    let spans = Spans.spans tr in
    Record.write_spans ~workload:"daemon-typing" ~seed spans;
    let profiles = Spans.profiles spans in
    Layers.add rep "server.dispatch_ms" ~samples:n_traced
      (Stats.mean (Array.of_list (List.map (fun p -> Spans.get p.Spans.times "server.dispatch" *. 1e3) profiles)));
    (* Work counters: per traced cycle, its parse and diag deltas. *)
    let per_cycle = Hashtbl.create 1024 in
    List.iter
      (fun (_, (r : request), x) ->
        let prev = Option.value (Hashtbl.find_opt per_cycle r.cycle) ~default:[] in
        Hashtbl.replace per_cycle r.cycle (prev @ x.counts @ if r.kind = Diag then [ x.cells ] else []))
      (parses @ diags);
    Record.check rep ~workload:"daemon-typing" ~seed ~what:"counters"
      (List.filter_map
         (fun c ->
           Option.map
             (fun v -> String.concat " " (List.map string_of_int (c :: v)))
             (Hashtbl.find_opt per_cycle c))
         (List.init cycles Fun.id));
    let total name =
      let k = Option.get (List.find_index (String.equal name) Layers.counters) in
      List.fold_left (fun a (_, _, x) -> a +. float_of_int (List.nth x.counts k)) 0. (parses @ diags)
    in
    Layers.add_work rep ~steps:n_traced ~total
      ~cells:(List.fold_left (fun a (_, _, x) -> a +. float_of_int x.cells) 0. diags)
      ~analyses:(List.length diags);
    Layers.add rep "dag.words"
      (float_of_int
         (Array.fold_left
            (fun a d ->
              match Server.Pool.find (Engine.pool engine) d.name with
              | Some e -> a + (Parsedag.Stats.measure (Session.root e.Server.Pool.session)).Parsedag.Stats.dag_words
              | None -> a)
            0 docs));
    let med pred = Stats.median (lat_ok pred) in
    Layers.add rep "bench.trace_overhead_pct"
      (100. *. ((med traced_cycle /. med (fun c -> not (traced_cycle c))) -. 1.));
    Layers.add rep "bench.gen_lag_p99_ms" ~samples:cycles (Stats.percentile lags 99. *. 1e3);
    List.iter
      (fun m -> Layers.add rep m 0.)
      [
        "document.edit_ms"; "document.alloc_kw"; "core.alloc_kw"; "query.commit_ms";
        "semantics.diag_ms"; "semantics.typedefs_ms"; "semantics.alloc_kw";
      ]
  end

(* The first set-up's engine serves the run.  Set-up then repeats until
   there are [setup_reps] samples, after the run and its peak RSS
   reading, so the repetitions' garbage neither disturbs the measured
   cycles nor counts as the run's memory. *)
let run ~seed ~seconds ~trace rep =
  let cycles = int_of_float (rate *. seconds) in
  let cap = (cycles * 3) + 16 in
  describe rep (make_docs ~seed) ~seed ~cycles;
  Languages.Registry.force lang;
  Gc.compact ();
  let ((engine, _, _) as served), first = setup_once ~seed ~cap in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () -> measure ~seed ~cycles ~trace served rep);
  let rest =
    List.init (setup_reps - 1) (fun _ ->
        Gc.compact ();
        let (e, _, _), times = setup_once ~seed ~cap:(2 * n_docs) in
        Engine.shutdown e;
        times)
  in
  Layers.add_setup rep [ "lr.table_build_s"; "lexer.dfa_build_s"; "server.open_s" ] (first :: rest);
  List.iter (fun m -> Layers.add rep m 0.) [ "core.create_s"; "semantics.initial_s" ]
