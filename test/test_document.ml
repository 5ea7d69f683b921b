(* Tests for the self-versioning document: edits, incremental relexing,
   change tracking (lib/document). *)

module Node = Parsedag.Node
module Document = Vdoc.Document
module Language = Languages.Language

let calc = Languages.Calc.language
let lexer () = Language.lexer calc

let mk text = Document.create ~lexer:(lexer ()) text

let leaf_texts doc =
  Document.leaves doc |> Array.to_list
  |> List.map (fun (l : Node.t) ->
         match l.Node.kind with
         | Node.Term i -> i.Node.text
         | _ -> assert false)

let test_create () =
  let doc = mk "a = 1 + 2;" in
  Alcotest.(check string) "text" "a = 1 + 2;" (Document.text doc);
  Alcotest.(check (list string)) "tokens"
    [ "a"; "="; "1"; "+"; "2"; ";" ] (leaf_texts doc);
  Alcotest.(check string) "tree yield" "a = 1 + 2;"
    (Node.text_yield (Document.root doc))

let test_edit_replace_token () =
  let doc = mk "a = 1 + 2;" in
  (* Replace "1" with "42". *)
  let replaced = Document.edit doc ~pos:4 ~del:1 ~insert:"42" in
  Alcotest.(check string) "text" "a = 42 + 2;" (Document.text doc);
  Alcotest.(check (list string)) "tokens"
    [ "a"; "="; "42"; "+"; "2"; ";" ] (leaf_texts doc);
  Alcotest.(check bool) "replaced >= 1" true (replaced >= 1);
  Alcotest.(check string) "yield still matches" "a = 42 + 2;"
    (Node.text_yield (Document.root doc))

let test_edit_damage_is_local () =
  let doc = mk "aa = bb + cc * dd;" in
  let before = Document.leaves doc in
  ignore (Document.edit doc ~pos:5 ~del:2 ~insert:"xx");
  let after = Document.leaves doc in
  (* Only the "bb" token is replaced; all other terminals are the same
     physical nodes. *)
  Alcotest.(check int) "same token count" (Array.length before)
    (Array.length after);
  Array.iteri
    (fun i (old : Node.t) ->
      if i = 2 then
        Alcotest.(check bool) "damaged token is fresh" true (old != after.(i))
      else
        Alcotest.(check bool)
          (Printf.sprintf "token %d reused" i)
          true
          (old == after.(i)))
    before

let test_edit_splits_token () =
  let doc = mk "abc;" in
  (* Insert "+" inside the identifier: "ab+c;". *)
  ignore (Document.edit doc ~pos:2 ~del:0 ~insert:"+");
  Alcotest.(check (list string)) "token split" [ "ab"; "+"; "c"; ";" ]
    (leaf_texts doc)

let test_edit_joins_tokens () =
  let doc = mk "ab + c;" in
  (* Delete " + " so identifiers fuse: "abc;". *)
  ignore (Document.edit doc ~pos:2 ~del:3 ~insert:"");
  Alcotest.(check (list string)) "tokens joined" [ "abc"; ";" ]
    (leaf_texts doc);
  Alcotest.(check string) "text" "abc;" (Document.text doc)

let test_edit_trivia_only () =
  let doc = mk "a + b;" in
  let before = Document.leaves doc in
  (* Insert spaces between "+" and "b": damages only the "b" token (its
     trivia changes). *)
  ignore (Document.edit doc ~pos:3 ~del:0 ~insert:"   ");
  Alcotest.(check string) "text" "a +    b;" (Document.text doc);
  let after = Document.leaves doc in
  Alcotest.(check bool) "prefix reused" true (before.(0) == after.(0));
  Alcotest.(check bool) "suffix reused" true (before.(3) == after.(3))

let test_edit_trailing () =
  let doc = mk "a;  " in
  ignore (Document.edit doc ~pos:4 ~del:0 ~insert:" ");
  Alcotest.(check string) "text" "a;   " (Document.text doc);
  (* Appending a token at the end. *)
  ignore (Document.edit doc ~pos:5 ~del:0 ~insert:"b;");
  Alcotest.(check (list string)) "appended" [ "a"; ";"; "b"; ";" ]
    (leaf_texts doc)

let test_edit_at_start () =
  let doc = mk "b = 1;" in
  ignore (Document.edit doc ~pos:0 ~del:0 ~insert:"a");
  Alcotest.(check (list string)) "prefixed id" [ "ab"; "="; "1"; ";" ]
    (leaf_texts doc)

let test_empty_document () =
  let doc = mk "" in
  Alcotest.(check int) "no tokens" 0 (Document.token_count doc);
  ignore (Document.edit doc ~pos:0 ~del:0 ~insert:"x;");
  Alcotest.(check (list string)) "insert into empty" [ "x"; ";" ]
    (leaf_texts doc)

let test_delete_all () =
  let doc = mk "a + b;" in
  ignore (Document.edit doc ~pos:0 ~del:6 ~insert:"");
  Alcotest.(check int) "empty" 0 (Document.token_count doc);
  Alcotest.(check string) "text empty" "" (Document.text doc)

let test_changed_marking () =
  let doc = mk "a = 1 + 2;" in
  Node.commit (Document.root doc);
  ignore (Document.edit doc ~pos:4 ~del:1 ~insert:"9");
  let changed = Document.changed_tokens doc in
  Alcotest.(check int) "one changed token" 1 (List.length changed);
  Alcotest.(check bool) "root sees nested change" true
    (Node.has_changes (Document.root doc))

let test_out_of_bounds () =
  let doc = mk "ab" in
  Alcotest.check_raises "oob"
    (Invalid_argument "Document.edit: range out of bounds") (fun () ->
      ignore (Document.edit doc ~pos:1 ~del:5 ~insert:""))

(* Property: any single edit keeps (a) text = spliced text, (b) tree yield
   = text, (c) token stream = batch relex of the new text. *)
let gen_edit_case =
  QCheck.Gen.(
    let frag =
      oneofl [ "ab"; "x"; "12"; "+"; "*"; "("; ")"; " "; ";"; "=" ]
    in
    let* base = map (String.concat "") (list_size (int_range 1 30) frag) in
    let* pos = int_bound (String.length base) in
    let* del = int_bound (String.length base - pos) in
    let* ins = map (String.concat "") (list_size (int_bound 4) frag) in
    return (base, pos, del, ins))

let prop_edit_consistent =
  QCheck.Test.make ~count:500 ~name:"edit = batch relex of new text"
    (QCheck.make gen_edit_case)
    (fun (base, pos, del, ins) ->
      let doc = mk base in
      ignore (Document.edit doc ~pos ~del ~insert:ins);
      let expected_text =
        String.sub base 0 pos ^ ins
        ^ String.sub base (pos + del) (String.length base - pos - del)
      in
      let batch_tokens, _ = Lexgen.Scanner.all (lexer ()) expected_text in
      Document.text doc = expected_text
      && Node.text_yield (Document.root doc) = expected_text
      && leaf_texts doc
         = List.map (fun (t : Lexgen.Scanner.token) -> t.Lexgen.Scanner.text)
             batch_tokens)

let prop_multi_edit =
  QCheck.Test.make ~count:200 ~name:"sequences of edits stay consistent"
    QCheck.(pair (QCheck.make gen_edit_case) (int_bound 1000))
    (fun ((base, _, _, _), seed) ->
      let doc = mk base in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 5 do
        let len = Document.length doc in
        let pos = if len = 0 then 0 else Random.State.int st (len + 1) in
        let del = if len - pos = 0 then 0 else Random.State.int st (len - pos) in
        let ins = List.nth [ "a"; "1"; "+"; " "; "" ] (Random.State.int st 5) in
        ignore (Document.edit doc ~pos ~del ~insert:ins);
        if Node.text_yield (Document.root doc) <> Document.text doc then
          ok := false
      done;
      !ok)

let test_comment_reopening () =
  (* Inserting a comment opener swallows everything up to the stray "*/"
     into trivia: the damage cannot resync inside the commented span, so
     all of its tokens are replaced at once. *)
  let doc = mk "a = 1; b = 2; */ c;" in
  Alcotest.(check (list string)) "before"
    [ "a"; "="; "1"; ";"; "b"; "="; "2"; ";"; "*"; "/"; "c"; ";" ]
    (leaf_texts doc);
  ignore (Document.edit doc ~pos:7 ~del:0 ~insert:"/* ");
  Alcotest.(check string) "text preserved" "a = 1; /* b = 2; */ c;"
    (Document.text doc);
  Alcotest.(check (list string)) "span swallowed into trivia"
    [ "a"; "="; "1"; ";"; "c"; ";" ] (leaf_texts doc);
  (* Deleting the opener re-exposes the tokens. *)
  ignore (Document.edit doc ~pos:7 ~del:3 ~insert:"");
  Alcotest.(check (list string)) "tokens restored"
    [ "a"; "="; "1"; ";"; "b"; "="; "2"; ";"; "*"; "/"; "c"; ";" ]
    (leaf_texts doc)

let test_comment_split () =
  (* Deleting the comment opener re-tokenizes its body. *)
  let doc = mk "a /* b */ c;" in
  Alcotest.(check (list string)) "comment is trivia" [ "a"; "c"; ";" ]
    (leaf_texts doc);
  ignore (Document.edit doc ~pos:2 ~del:2 ~insert:"");
  Alcotest.(check (list string)) "body re-tokenized"
    [ "a"; "b"; "*"; "/"; "c"; ";" ] (leaf_texts doc)

(* ------------------------------------------------------------------ *)
(* Position and incremental-lexing oracle: after every edit the leaves
   equal a from-scratch scan of the new text (term, text, trivia,
   lookahead), and every position query agrees with offsets and
   line:col counted over that scan. *)

module Scanner = Lexgen.Scanner
module Session = Iglr.Session
module Edit_gen = Workload.Edit_gen

let samples =
  [
    ("calc", "a = 1 + 2 * (b - 3);\n/* note */ c = a / 4;\nd = c;\n");
    ( "tiny",
      "proc main () { x = 1; while (x) { print x * 2; }\n\
       if (x) { y = 3; } else { y = (4 + x); } }\n" );
    ("c", Workload.Spec_gen.plain ~lines:12 ~seed:3);
    ( "cpp",
      "class box { int w; int h; };\n\
       int f () { // line comment\n  t x; x = new t ( 1 ); return x; }\n" );
    ("lr2", "x z c\nx  z e\n");
    ("modula2", "MODULE m; VAR x : INTEGER;\nBEGIN x := 1 + 2 * 3; END m.\n");
    ("lisp", "(define (f x) (+ x 1)) ; note\n'(a \"s t\" 2.5)\n");
    ( "java",
      "class Point {\n  int x;\n  int dist() { int d = x * x; return d; }\n\
       }\nclass Main { void run() { while (true) { step(1, 2); } } }\n" );
  ]

(* Line and column of every byte offset of [text], by one walk. *)
let line_cols text =
  let n = String.length text in
  let lc = Array.make (n + 1) (1, 1) in
  for b = 1 to n do
    let l, c = lc.(b - 1) in
    lc.(b) <- (if text.[b - 1] = '\n' then (l + 1, 1) else (l, c + 1))
  done;
  lc

let check_scratch lexer doc =
  let fail fmt = Printf.ksprintf failwith fmt in
  let text = Document.text doc in
  let tokens, trailing = Scanner.all lexer text in
  let leaves = Document.leaves doc in
  let n = Array.length leaves in
  if List.length tokens <> n then
    fail "%d leaves, the scratch scan has %d tokens" n (List.length tokens);
  let lc = line_cols text in
  let off =
    List.fold_left
      (fun (k, off) (tok : Scanner.token) ->
        (match leaves.(k).Node.kind with
        | Node.Term i
          when i.Node.term = tok.Scanner.term
               && String.equal i.Node.text tok.Scanner.text
               && String.equal i.Node.trivia tok.Scanner.trivia
               && i.Node.lex_la = tok.Scanner.lookahead ->
            ()
        | _ ->
            fail "leaf %d is not the scratch token %s" k
              (Format.asprintf "%a" Scanner.pp_token tok));
        let lex = off + String.length tok.Scanner.trivia in
        if Document.token_offset doc k <> off then
          fail "token_offset %d = %d, scratch %d" k
            (Document.token_offset doc k) off;
        if Document.lexeme_offset doc k <> lex then
          fail "lexeme_offset %d = %d, scratch %d" k
            (Document.lexeme_offset doc k) lex;
        if Document.line_col doc lex <> lc.(lex) then
          fail "line_col of token %d differs from the scratch count" k;
        (k + 1, lex + String.length tok.Scanner.text))
      (0, 0) tokens
    |> snd
  in
  List.iter
    (fun k ->
      if Document.token_offset doc k <> off || Document.lexeme_offset doc k <> off
      then fail "end-of-input offset of token %d is not %d" k off)
    [ n; n + 1 ];
  if Document.token_offset doc (-1) <> 0 then fail "token_offset -1 is not 0";
  if Document.line_col doc (String.length text) <> lc.(String.length text) then
    fail "line_col of the end of text differs from the scratch count";
  let root = Document.root doc in
  (match root.Node.kids.(Node.arity root - 1).Node.kind with
  | Node.Eos e when String.equal e.Node.trailing trailing -> ()
  | _ -> fail "trailing trivia differs from the scratch scan");
  if Node.text_yield root <> text then fail "tree yield is not the text"

(* Apply one edit through the document and the oracle.  An edit that
   makes the text unscannable must raise and leave the document as it
   was. *)
let edit_checked lexer doc ~pos ~del ~insert =
  let before = Document.text doc in
  let after =
    String.sub before 0 pos ^ insert
    ^ String.sub before (pos + del) (String.length before - pos - del)
  in
  (match Scanner.all lexer after with
  | exception Scanner.Lex_error _ -> (
      match Document.edit doc ~pos ~del ~insert with
      | _ -> failwith "an edit to unscannable text was accepted"
      | exception Scanner.Lex_error _ ->
          if Document.text doc <> before then
            failwith "a rejected edit changed the document")
  | _ ->
      ignore (Document.edit doc ~pos ~del ~insert);
      if Document.text doc <> after then failwith "text is not the spliced text");
  check_scratch lexer doc

let random_edit st sample text =
  let len = String.length text in
  let pos = Random.State.int st (len + 1) in
  let del = Random.State.int st (min 8 (len - pos) + 1) in
  let insert =
    if Random.State.int st 6 = 0 then "\n"
    else
      let a = Random.State.int st (String.length sample) in
      let k = Random.State.int st (min 7 (String.length sample - a) + 1) in
      String.sub sample a k
  in
  (pos, del, insert)

let prop_oracle_all_languages =
  QCheck.Test.make ~count:60
    ~name:"tokens and positions = scratch scan, all languages"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.iter
        (fun (name, lang) ->
          let sample = List.assoc name samples in
          let lexer = Language.lexer lang in
          let st = Random.State.make [| seed |] in
          let doc = Document.create ~lexer sample in
          try
            check_scratch lexer doc;
            for _ = 1 to 8 do
              let pos, del, insert = random_edit st sample (Document.text doc) in
              edit_checked lexer doc ~pos ~del ~insert
            done
          with Failure msg -> QCheck.Test.fail_reportf "%s: %s" name msg)
        Languages.Registry.all;
      true)

let c = Languages.C_subset.language
(* [plain]'s line budget counts each body statement twice, so asking for
   1800 lines yields about 1080. *)
let base_c_large = Workload.Spec_gen.plain ~lines:1800 ~seed:11

let test_oracle_large_c () =
  let lexer = Language.lexer c in
  let doc = Document.create ~lexer base_c_large in
  Alcotest.(check bool) "at least 1000 lines" true
    (fst (Document.line_col doc (Document.length doc)) >= 1000);
  let script = Edit_gen.random_script ~seed:5 ~count:40 base_c_large in
  try
    check_scratch lexer doc;
    List.iter
      (fun (e : Edit_gen.edit) ->
        edit_checked lexer doc ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
          ~insert:e.Edit_gen.e_insert)
      script
  with Failure msg -> Alcotest.fail msg

(* Error regions and token locations of a recovering session, against a
   from-scratch walk: every error node of the dag (its first terminal's
   index and its token count) plus the runs of flagged terminals outside
   them, placed by summing leaf lengths and counting lines. *)
let scratch_regions s =
  let leaves = Document.leaves (Session.document s) in
  let n = Array.length leaves in
  let starts = Array.make (n + 1) 0 in
  Array.iteri
    (fun i l -> starts.(i + 1) <- starts.(i) + String.length (Node.text_yield l))
    leaves;
  let lexeme i =
    if i >= n then starts.(n)
    else
      match leaves.(i).Node.kind with
      | Node.Term t -> starts.(i) + String.length t.Node.trivia
      | _ -> starts.(i)
  in
  let index_of l =
    let rec go i = if leaves.(i) == l then i else go (i + 1) in
    go 0
  in
  let raw = ref [] in
  Node.iter
    (fun e ->
      match (e.Node.kind, Node.first_terminal e) with
      | Node.Error info, Some ft ->
          let lo = index_of ft in
          raw := (lo, lo + Node.token_count e - 1, info.Node.message) :: !raw
      | _ -> ())
    (Session.root s);
  let loose i =
    leaves.(i).Node.error
    &&
    match leaves.(i).Node.parent with
    | Some { Node.kind = Node.Error _; _ } -> false
    | _ -> true
  in
  let i = ref 0 in
  while !i < n do
    if loose !i then begin
      let j = ref !i in
      while !j + 1 < n && loose (!j + 1) do
        incr j
      done;
      raw := (!i, !j, "unincorporated edit") :: !raw;
      i := !j + 1
    end
    else incr i
  done;
  (List.sort compare !raw, lexeme, starts)

let check_session_positions s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let regions, lexeme, starts = scratch_regions s in
  let lc = line_cols (Session.text s) in
  let n = Array.length starts - 1 in
  for k = 0 to n do
    let l = Session.location_of_token s k in
    let b = lexeme k in
    if
      l.Session.offset_tokens <> k || l.Session.offset_bytes <> b
      || (l.Session.line, l.Session.col) <> lc.(b)
    then fail "location of token %d differs from the scratch count" k
  done;
  let got =
    List.map
      (fun (r : Session.region) ->
        ( r.Session.r_start.Session.offset_tokens,
          r.Session.r_tokens,
          r.Session.r_start.Session.offset_bytes,
          (r.Session.r_start.Session.line, r.Session.r_start.Session.col),
          r.Session.r_end_byte,
          r.Session.r_message ))
      (Session.error_regions s)
  in
  let want =
    List.map
      (fun (lo, hi, msg) ->
        (lo, hi - lo + 1, lexeme lo, lc.(lexeme lo), starts.(hi + 1), msg))
      regions
  in
  if got <> want then
    fail "error regions %d, scratch walk %d (or their spans differ)"
      (List.length got) (List.length want)

(* Returns how many of the edits left the tree with error regions. *)
let session_replay base ~seed ~count =
  let s, _ =
    Session.create ~table:(Language.table c) ~lexer:(Language.lexer c) base
  in
  check_session_positions s;
  List.fold_left
    (fun damaged (e : Edit_gen.edit) ->
      Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      ignore (Session.reparse s);
      check_session_positions s;
      if Session.error_regions s = [] then damaged else damaged + 1)
    0
    (Edit_gen.random_script ~seed ~count base)

let prop_session_positions =
  QCheck.Test.make ~count:40 ~name:"error regions and locations = scratch walk"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      try
        ignore
          (session_replay (Workload.Spec_gen.plain ~lines:30 ~seed:7) ~seed
             ~count:8);
        true
      with Failure msg -> QCheck.Test.fail_report msg)

let test_session_positions_large_c () =
  match session_replay base_c_large ~seed:3 ~count:12 with
  | damaged ->
      Alcotest.(check bool) "some edits leave error regions" true (damaged > 0)
  | exception Failure msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "comment reopening" `Quick test_comment_reopening;
    Alcotest.test_case "comment split" `Quick test_comment_split;
    Alcotest.test_case "replace token" `Quick test_edit_replace_token;
    Alcotest.test_case "damage locality" `Quick test_edit_damage_is_local;
    Alcotest.test_case "token split" `Quick test_edit_splits_token;
    Alcotest.test_case "token join" `Quick test_edit_joins_tokens;
    Alcotest.test_case "trivia-only edit" `Quick test_edit_trivia_only;
    Alcotest.test_case "trailing trivia" `Quick test_edit_trailing;
    Alcotest.test_case "edit at start" `Quick test_edit_at_start;
    Alcotest.test_case "empty document" `Quick test_empty_document;
    Alcotest.test_case "delete all" `Quick test_delete_all;
    Alcotest.test_case "change marking" `Quick test_changed_marking;
    Alcotest.test_case "bounds checking" `Quick test_out_of_bounds;
    QCheck_alcotest.to_alcotest prop_edit_consistent;
    QCheck_alcotest.to_alcotest prop_multi_edit;
    QCheck_alcotest.to_alcotest prop_oracle_all_languages;
    Alcotest.test_case "1000-line C: tokens and positions" `Quick
      test_oracle_large_c;
    QCheck_alcotest.to_alcotest prop_session_positions;
    Alcotest.test_case "1000-line C: error regions and locations" `Quick
      test_session_positions_large_c;
  ]
