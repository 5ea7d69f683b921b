(* Tests for semantic disambiguation (§4.2): typedef collection, scope
   handling, namespace decisions, the prefer-declaration filter, error
   retention, and incremental re-analysis. *)

module Node = Parsedag.Node
module Session = Iglr.Session
module Language = Languages.Language
module Typedefs = Semantics.Typedefs
module Diag = Semantics.Diag

let c = Languages.C_subset.language
let cpp = Languages.Cpp_subset.language

let session lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "parse failed for %S" text);
  s

let choices root =
  let acc = ref [] in
  Node.iter
    (fun n ->
      match n.Node.kind with Node.Choice _ -> acc := n :: !acc | _ -> ())
    root;
  List.rev !acc

let selected_kind lang (n : Node.t) =
  match Typedefs.chosen n with
  | None -> `Unresolved
  | Some alt -> (
      match alt.Node.kids.(0).Node.kind with
      | Node.Prod p ->
          let prod = Grammar.Cfg.production lang.Language.grammar p in
          let name =
            Grammar.Cfg.nonterminal_name lang.Language.grammar prod.lhs
          in
          if String.equal name "decl" then `Decl
          else if String.equal name "expr" then `Expr
          else `Other
      | _ -> `Other)

let test_typedef_decides () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Typedefs.create c.Language.grammar in
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "one typedef" 1 r.Typedefs.typedefs;
  Alcotest.(check int) "two choices" 2 r.Typedefs.choices;
  Alcotest.(check int) "all decided" 0 r.Typedefs.unresolved;
  match choices (Session.root s) with
  | [ amb_a; amb_c ] ->
      Alcotest.(check bool) "a (b) is a declaration" true
        (selected_kind c amb_a = `Decl);
      Alcotest.(check bool) "c (d) is a call" true
        (selected_kind c amb_c = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_scope_shadowing () =
  (* The typedef is declared inside one function; uses in a later function
     are calls (scopes pop). *)
  let s =
    session c
      "int f () { typedef int a; a (b); }\nint g () { a (b); }"
  in
  let sem = Typedefs.create c.Language.grammar in
  ignore (Typedefs.analyze sem (Session.root s));
  match choices (Session.root s) with
  | [ inside; outside ] ->
      Alcotest.(check bool) "in scope: declaration" true
        (selected_kind c inside = `Decl);
      Alcotest.(check bool) "out of scope: call" true
        (selected_kind c outside = `Expr)
  | l -> Alcotest.failf "expected two choice nodes, got %d" (List.length l)

let test_order_matters () =
  (* A use before the typedef declaration is a call (declaration order). *)
  let s = session c "int f () { a (b); }\ntypedef int a;" in
  let sem = Typedefs.create c.Language.grammar in
  ignore (Typedefs.analyze sem (Session.root s));
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "use before decl: call" true
        (selected_kind c amb = `Expr)
  | _ -> Alcotest.fail "expected one choice node"

let test_pointer_decl_form () =
  (* The second classic form: "a * b;" is a pointer declaration when a is
     a type, a multiplication otherwise. *)
  let s = session c "typedef int a;\nint f () { a * b; c * d; }" in
  let sem = Typedefs.create c.Language.grammar in
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "two choices" 2 r.Typedefs.choices;
  Alcotest.(check int) "all decided" 0 r.Typedefs.unresolved;
  match choices (Session.root s) with
  | [ amb_a; amb_c ] ->
      Alcotest.(check bool) "a * b is a declaration" true
        (selected_kind c amb_a = `Decl);
      Alcotest.(check bool) "c * d is an expression" true
        (selected_kind c amb_c = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_prefer_decl_policy () =
  let text = "typedef int a;\nint f () { a (b); }" in
  let s = session cpp text in
  let sem = Typedefs.create ~policy:Typedefs.Prefer_decl cpp.Language.grammar in
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "prefer-decl applied once" 1
    r.Typedefs.prefer_decl_applied;
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "declaration preferred" true
        (selected_kind cpp amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

let test_memoization () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Typedefs.create c.Language.grammar in
  let r1 = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "first run decides" 2 r1.Typedefs.decided;
  let r2 = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "second run memoized" 0 r2.Typedefs.decided

let test_typedef_removal_reinterprets () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Typedefs.create c.Language.grammar in
  ignore (Typedefs.analyze sem (Session.root s));
  (* Remove the typedef; the dag for the use site is reused verbatim, only
     semantics re-runs. *)
  Session.edit s ~pos:0 ~del:15 ~insert:"";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "only the dependent choice re-decided" 1
    r.Typedefs.decided;
  Alcotest.(check int) "interpretation flipped" 1 r.Typedefs.reinterpreted;
  match choices (Session.root s) with
  | [ amb_a; _ ] ->
      Alcotest.(check bool) "a (b) now a call" true
        (selected_kind c amb_a = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_typedef_addition_reinterprets () =
  let s = session c "int f () { c (d); }" in
  let sem = Typedefs.create c.Language.grammar in
  ignore (Typedefs.analyze sem (Session.root s));
  Session.edit s ~pos:0 ~del:0 ~insert:"typedef int c;\n";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "flip on addition" 1 r.Typedefs.reinterpreted;
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "c (d) now a declaration" true
        (selected_kind c amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

let test_error_retention () =
  (* "a b;" forces the declaration reading even when "a" is unknown: the
     analysis reports an unknown type name but the structure is retained
     for future repair (§4.3). *)
  let s = session c "int f () { a (b); }" in
  let sem = Typedefs.create c.Language.grammar in
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check int) "resolved as call (no typedef)" 0
    r.Typedefs.unresolved;
  (* A region with only a declaration reading and an unknown type. *)
  let s2 = session c "int f () { a * b; }" in
  let r2 = Typedefs.analyze sem (Session.root s2) in
  ignore r2;
  let s3 = session c "typedef int t;\nint f () { t (x); t * y; }" in
  let sem3 = Typedefs.create c.Language.grammar in
  let r3 = Typedefs.analyze sem3 (Session.root s3) in
  Alcotest.(check int) "no errors with declared type" 0
    (List.length r3.Typedefs.errors)

let test_global_typedefs () =
  let s = session c "typedef int a;\ntypedef a b;\nint f () { b (x); }" in
  let sem = Typedefs.create c.Language.grammar in
  ignore (Typedefs.analyze sem (Session.root s));
  Alcotest.(check (slist string String.compare)) "chained typedefs visible"
    [ "a"; "b" ]
    (Typedefs.global_typedefs sem);
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "chained typedef decides decl" true
        (selected_kind c amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

let test_workload_all_resolved () =
  (* Every ambiguity the generator emits must be semantically resolvable
     (the paper's observation about gcc/SPEC95). *)
  let profile =
    { Workload.Spec_gen.p_name = "sem-test"; p_lines = 600;
      p_dialect = Workload.Spec_gen.C; p_paper_overhead = 0.5;
      p_ambig_per_kloc = 20.0 }
  in
  let src = Workload.Spec_gen.generate ~seed:71 profile in
  let s = session c src in
  let sem = Typedefs.create c.Language.grammar in
  let r = Typedefs.analyze sem (Session.root s) in
  Alcotest.(check bool) "found ambiguities" true (r.Typedefs.choices > 0);
  Alcotest.(check int) "all resolved" 0 r.Typedefs.unresolved;
  Alcotest.(check int) "no semantic errors" 0 (List.length r.Typedefs.errors)

(* One analyzer, [Diag.create ~policy]: a typedef declared in a function
   body decides the choices of that body, nested blocks included, and
   none outside it. *)
let test_local_typedef_scope () =
  let s =
    session c "int f () { typedef int a; a (b); { a (c); } }\nint g () { a (d); }"
  in
  let d = Diag.create ~policy:Diag.Namespace_only c.Language.grammar in
  let r = Diag.run d (Session.root s) in
  let rep = Diag.report d in
  Alcotest.(check int) "three choices" 3 rep.Diag.choices;
  Alcotest.(check int) "all decided" 0 rep.Diag.unresolved;
  Alcotest.(check (list string)) "no typedef at top level" [] r.Diag.typedefs;
  match choices (Session.root s) with
  | [ body; nested; outside ] ->
      Alcotest.(check bool) "body: declaration" true
        (selected_kind c body = `Decl);
      Alcotest.(check bool) "nested block: declaration" true
        (selected_kind c nested = `Decl);
      Alcotest.(check bool) "other function: call" true
        (selected_kind c outside = `Expr)
  | l -> Alcotest.failf "expected three choice nodes, got %d" (List.length l)

(* Renaming a typedef re-walks only the items whose choices are led by
   the old or the new name: the typedef's own (rebuilt) item, [f] and
   [g].  The twenty unrelated functions validate clean. *)
let test_typedef_rename_recomputes_dependents () =
  let unrelated =
    String.concat "\n"
      (List.init 20 (fun i -> Printf.sprintf "int u%d () { return %d; }" i i))
  in
  let text =
    "typedef int a;\nint f () { a (x); }\nint g () { b (y); }\n" ^ unrelated
  in
  let s = session c text in
  let d = Diag.create ~policy:Diag.Namespace_only c.Language.grammar in
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  ignore (Diag.run d (Session.root s));
  Session.edit s ~pos:12 ~del:1 ~insert:"b";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let computes () = (Query.stats (Diag.engine d)).Query.computes in
  let c0 = computes () in
  let r = Diag.run d (Session.root s) in
  let recomputed = computes () - c0 in
  let rep = Diag.report d in
  Alcotest.(check (list string)) "renamed typedef" [ "b" ] r.Diag.typedefs;
  Alcotest.(check int) "both dependent choices re-decided" 2 rep.Diag.decided;
  Alcotest.(check int) "both flipped" 2 rep.Diag.reinterpreted;
  (* The typedef item's four cells (leads, scope, resolve, types) and
     the scope, resolve and types cells of [f] and [g]. *)
  Alcotest.(check int) "only dependent items recomputed" 10 recomputed;
  match choices (Session.root s) with
  | [ in_f; in_g ] ->
      Alcotest.(check bool) "a (x) now a call" true (selected_kind c in_f = `Expr);
      Alcotest.(check bool) "b (y) now a declaration" true
        (selected_kind c in_g = `Decl)
  | l -> Alcotest.failf "expected two choice nodes, got %d" (List.length l)

(* A syntax error isolated inside a function body leaves an error node
   next to the body's choice; the choice is still decided. *)
let test_choice_in_recovered_region () =
  let text = "typedef int a;\nint f () { a (b); c d e ; }" in
  let s, outcome =
    Session.create ~table:(Language.table c) ~lexer:(Language.lexer c) text
  in
  (match outcome with
  | Session.Recovered _ -> ()
  | Session.Parsed _ -> Alcotest.fail "expected a recovered parse");
  let has_error (n : Node.t) =
    let found = ref false in
    Node.iter
      (fun k -> match k.Node.kind with Node.Error _ -> found := true | _ -> ())
      n;
    !found
  in
  let d = Diag.create ~policy:Diag.Namespace_only c.Language.grammar in
  ignore (Diag.run d (Session.root s));
  let rep = Diag.report d in
  Alcotest.(check int) "one choice" 1 rep.Diag.choices;
  Alcotest.(check int) "decided" 0 rep.Diag.unresolved;
  match choices (Session.root s) with
  | [ amb ] ->
      let g = c.Language.grammar in
      let rec func_def (n : Node.t) =
        match (Node.symbol g n, n.Node.parent) with
        | `N nt, _ when Grammar.Cfg.nonterminal_name g nt = "func_def" -> n
        | _, Some p -> func_def p
        | _, None -> Alcotest.fail "choice outside any function"
      in
      Alcotest.(check bool) "error node in the same function" true
        (has_error (func_def amb));
      Alcotest.(check bool) "a (b) is a declaration" true
        (selected_kind c amb = `Decl)
  | l -> Alcotest.failf "expected one choice node, got %d" (List.length l)

(* Diagnostic offsets count every token before an item, including an
   error region isolated between two items or before the first one. *)
let test_diag_offsets_after_error () =
  let positions text =
    let s, outcome =
      Session.create ~table:(Language.table c) ~lexer:(Language.lexer c) text
    in
    (match outcome with
    | Session.Recovered _ -> ()
    | Session.Parsed _ -> Alcotest.fail "expected a recovered parse");
    let d = Diag.create ~policy:Diag.Namespace_only c.Language.grammar in
    let r = Diag.run d (Session.root s) in
    List.map
      (fun (dg : Diag.diag) ->
        let l = Session.location_of_token s dg.Diag.d_token in
        (dg.Diag.d_code, l.Session.line, l.Session.col))
      r.Diag.diags
  in
  let pos = Alcotest.(list (triple string int int)) in
  Alcotest.check pos "error between items"
    [ ("unused-binding", 1, 5); ("unused-binding", 3, 5); ("unbound-name", 3, 9) ]
    (positions "int a ;\nint @ ;\nint b = c ;");
  Alcotest.check pos "error before the first item"
    [ ("unused-binding", 2, 5); ("unbound-name", 2, 9) ]
    (positions "@ ;\nint b = c ;")

let suite =
  [
    Alcotest.test_case "typedef decides namespaces" `Quick test_typedef_decides;
    Alcotest.test_case "scopes pop" `Quick test_scope_shadowing;
    Alcotest.test_case "declaration order" `Quick test_order_matters;
    Alcotest.test_case "pointer declaration form" `Quick test_pointer_decl_form;
    Alcotest.test_case "prefer-decl policy (C++)" `Quick test_prefer_decl_policy;
    Alcotest.test_case "decisions memoized" `Quick test_memoization;
    Alcotest.test_case "typedef removal flips" `Quick
      test_typedef_removal_reinterprets;
    Alcotest.test_case "typedef addition flips" `Quick
      test_typedef_addition_reinterprets;
    Alcotest.test_case "errors retained" `Quick test_error_retention;
    Alcotest.test_case "global typedefs" `Quick test_global_typedefs;
    Alcotest.test_case "workload fully resolvable" `Quick
      test_workload_all_resolved;
    Alcotest.test_case "local typedef decides only its body" `Quick
      test_local_typedef_scope;
    Alcotest.test_case "typedef rename recomputes dependents only" `Quick
      test_typedef_rename_recomputes_dependents;
    Alcotest.test_case "choice next to a recovered error decided" `Quick
      test_choice_in_recovered_region;
    Alcotest.test_case "diag offsets count error regions" `Quick
      test_diag_offsets_after_error;
  ]
