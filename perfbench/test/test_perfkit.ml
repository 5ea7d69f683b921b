(* Tests of the benchmark's own logic: the percentile rule, the oracle's
   diff, the seeded scripts, self-time accounting and the determinism
   records. *)

open Perfkit

let floats = Alcotest.float 1e-9
let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let nearest_rank () =
  let xs = one_to 100 in
  Alcotest.check floats "p50" 50. (Stats.percentile xs 50.);
  Alcotest.check floats "p90" 90. (Stats.percentile xs 90.);
  Alcotest.check floats "p99" 99. (Stats.percentile xs 99.);
  Alcotest.check floats "p100" 100. (Stats.percentile xs 100.);
  Alcotest.check floats "unsorted input" 90.
    (Stats.percentile (Array.of_list (List.rev (Array.to_list xs))) 90.);
  Alcotest.check floats "median of 5" 3. (Stats.median [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check floats "p90 of 11" 10. (Stats.percentile (one_to 11) 90.);
  Alcotest.(check bool) "no samples" true (Float.is_nan (Stats.median [||]))

let ten_beyond () =
  Alcotest.(check int) "p90 of 100 leaves 10 beyond" 10 (Stats.beyond ~n:100 90.);
  Alcotest.(check bool) "p90 needs 100 samples" false (Stats.supports ~n:99 90.);
  Alcotest.(check bool) "p90 at 100" true (Stats.supports ~n:100 90.);
  Alcotest.(check bool) "p99 at 999" false (Stats.supports ~n:999 99.);
  Alcotest.(check bool) "p99 at 1000" true (Stats.supports ~n:1000 99.);
  Alcotest.(check bool) "p50 at 20" true (Stats.supports ~n:20 50.);
  Alcotest.(check bool) "p50 at 19" false (Stats.supports ~n:19 50.);
  Alcotest.check floats "a supported tail" 90. (Stats.tail (one_to 100) ~what:"x" 90.);
  match Stats.tail (one_to 99) ~what:"x" 90. with
  | _ -> Alcotest.fail "p90 of 99 samples was reported"
  | exception Failure _ -> ()

(* A live session, edited and reverted, against the from-scratch
   snapshot of its base; then planted mismatches. *)
let oracle_diff () =
  let lang = Languages.C_subset.language in
  let base = Workload.Spec_gen.plain ~lines:40 ~seed:3 in
  let expected = Oracle.expect lang ~typedefs:true base in
  let s, _ =
    Iglr.Session.create ~table:(Languages.Language.table lang)
      ~lexer:(Languages.Language.lexer lang) base
  in
  let an = Oracle.attach ~typedefs:true lang s in
  ignore (Oracle.run an (Iglr.Session.root s));
  let p = (Script.keystroke ~seed:5 ~pairs:1 base).(0) in
  let step edits =
    List.iter
      (fun (e : Workload.Edit_gen.edit) ->
        Iglr.Session.edit s ~pos:e.e_pos ~del:e.e_del ~insert:e.e_insert)
      edits;
    ignore (Iglr.Session.reparse s);
    Semantics.Diag.render (Oracle.run an (Iglr.Session.root s))
  in
  ignore (step p.Script.fwd);
  let diag = step p.Script.back in
  let grammar = lang.Languages.Language.grammar in
  let observed = Oracle.observe grammar s ~diag in
  Alcotest.(check (list string)) "a reverted session matches" [] (Oracle.diff expected observed);
  Alcotest.(check (list string))
    "planted diagnostics" [ "diag" ]
    (Oracle.diff expected { observed with diag = diag ^ " " });
  ignore (step p.Script.fwd);
  Alcotest.(check (list string))
    "an edited session" [ "tree"; "tokens" ]
    (Oracle.diff expected (Oracle.observe grammar s ~diag))

let check_self_cancelling base script =
  Array.iter
    (fun (p : Script.pair) ->
      let apply = List.fold_left (fun t e -> Workload.Edit_gen.apply e t) in
      Alcotest.(check bool) "pair restores the base" true (apply (apply base p.fwd) p.back = base))
    script

let scripts_repeat () =
  let plain = Workload.Spec_gen.plain ~lines:60 ~seed:2 in
  let ghost =
    let profile = Workload.Spec_gen.find "ghostscript" in
    Workload.Spec_gen.generate ~seed:2
      ~scale:(300. /. float_of_int profile.Workload.Spec_gen.p_lines)
      profile
  in
  let k1 = Script.keystroke ~seed:9 ~pairs:64 plain in
  Alcotest.(check bool) "keystroke: same seed, same steps" true
    (k1 = Script.keystroke ~seed:9 ~pairs:64 plain);
  let s1 = Script.structural ~seed:9 ~pairs:256 ghost in
  Alcotest.(check bool) "structural: same seed, same steps" true
    (s1 = Script.structural ~seed:9 ~pairs:256 ghost);
  Alcotest.(check string) "digest repeats" (Script.digest s1)
    (Script.digest (Script.structural ~seed:9 ~pairs:256 ghost));
  Alcotest.(check bool) "another seed, another script" true
    (Script.digest s1 <> Script.digest (Script.structural ~seed:10 ~pairs:256 ghost));
  let kinds = List.map (fun (p : Script.pair) -> p.kind) (Array.to_list s1) in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("the mix holds " ^ Script.kind_name k) true (List.mem k kinds))
    [ Script.Single; Script.Batch; Script.Rename ];
  check_self_cancelling plain k1;
  check_self_cancelling ghost s1

let self_times_add_up () =
  let tr = Spans.create () in
  Spans.set_enabled tr true;
  let busy n = ignore (Sys.opaque_identity (List.init n Fun.id)) in
  Spans.with_span tr "root" (fun () ->
      busy 1000;
      Spans.with_span tr "a" (fun () ->
          busy 2000;
          Spans.with_span tr "b" (fun () -> busy 3000));
      Spans.with_span tr "b" (fun () -> busy 500));
  let spans = Spans.spans tr in
  let time, words = Spans.self spans in
  let sum = Array.fold_left ( +. ) 0. in
  Alcotest.check (Alcotest.float 1e-9) "self times add up to the root"
    (Spans.duration spans.(0)) (sum time);
  Alcotest.check floats "self words add up to the root" spans.(0).Spans.words (sum words);
  match Spans.profiles spans with
  | [ p ] ->
      Alcotest.(check (list string)) "one entry per name" [ "a"; "b"; "root" ]
        (List.sort compare (List.map fst p.Spans.times));
      Alcotest.(check bool) "a's self excludes its child" true
        (Spans.get p.Spans.allocs "a" < spans.(1).Spans.words)
  | _ -> Alcotest.fail "expected one step"

let records () =
  Alcotest.(check bool) "a prefix agrees" true
    (Record.first_difference [ "a"; "b" ] [ "a"; "b"; "c" ] = None);
  Alcotest.(check bool) "a changed line" true
    (Record.first_difference [ "a"; "b" ] [ "a"; "x" ] = Some (1, "b", "x"))

let result_envelopes () =
  let line = {|{"schema":"iglr-analysis/1","tool":"iglrd","id":12,"req":40,"result":{"doc":"d"}}|} in
  Alcotest.(check bool) "result for its id" true (Daemon.result_for line 12);
  Alcotest.(check bool) "another id" false (Daemon.result_for line 1);
  Alcotest.(check bool) "an error" false
    (Daemon.result_for {|{"schema":"iglr-analysis/1","tool":"iglrd","id":12,"req":40,"error":{}}|} 12)

let () =
  Alcotest.run "perfkit"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond a tail" `Quick ten_beyond;
        ] );
      ("oracle", [ Alcotest.test_case "diff on planted mismatches" `Quick oracle_diff ]);
      ("script", [ Alcotest.test_case "one seed, one list of steps" `Quick scripts_repeat ]);
      ( "trace",
        [
          Alcotest.test_case "self times add up" `Quick self_times_add_up;
          Alcotest.test_case "determinism records" `Quick records;
          Alcotest.test_case "response envelopes" `Quick result_envelopes;
        ] );
    ]
