(* The correctness oracle: incremental == from scratch.

   A snapshot renders what the system produced into comparable strings:
   the committed tree, the token stream and the diagnostics.  The
   expected snapshot comes from scratch (a batch scan, the tree of a
   freshly created session, the rendering of fresh analyzers); the
   observed one reads the live session, whose token stream is the
   incremental lexer's leaves rather than a rescan. *)

open Iglr
module Diag = Semantics.Diag
module Typedefs = Semantics.Typedefs

type t = { tree : string; tokens : string; diag : string }

let token_line buf ~term ~text ~trivia ~la =
  Printf.bprintf buf "%d %S %S %d\n" term text trivia la

let trailing buf text last_end =
  Printf.bprintf buf "trailing %S\n"
    (if last_end <= String.length text then
       String.sub text last_end (String.length text - last_end)
     else "<leaves overrun the text>")

let tokens_of_scan lexer text =
  let toks, _ = Lexgen.Scanner.all lexer text in
  let buf = Buffer.create 4096 in
  let last_end =
    List.fold_left
      (fun acc (t : Lexgen.Scanner.token) ->
        token_line buf ~term:t.term ~text:t.text ~trivia:t.trivia ~la:t.lookahead;
        acc + String.length t.trivia + String.length t.text)
      0 toks
  in
  trailing buf text last_end;
  Buffer.contents buf

let tokens_of_session s =
  let buf = Buffer.create 4096 in
  let last_end =
    Array.fold_left
      (fun acc (n : Parsedag.Node.t) ->
        match n.Parsedag.Node.kind with
        | Parsedag.Node.Term { term; text; trivia; lex_la } ->
            token_line buf ~term ~text ~trivia ~la:lex_la;
            acc + String.length trivia + String.length text
        | _ ->
            Buffer.add_string buf "non-terminal leaf\n";
            acc)
      0
      (Vdoc.Document.leaves (Session.document s))
  in
  trailing buf (Session.text s) last_end;
  Buffer.contents buf

(* The analyses an editor attaches to a session: [Diag] subscribed to
   its commits and, with [~typedefs], [Typedefs] bridged into [Diag].
   [wrap_commit] runs around each commit. *)
type analyzers = { diag : Diag.t; tds : Typedefs.t option }

let attach ?(wrap_commit = fun f -> f ()) ~typedefs (lang : Languages.Language.t)
    session =
  let grammar = lang.Languages.Language.grammar in
  let diag = Diag.create grammar in
  Session.on_commit session (fun ~watermark root ->
      wrap_commit (fun () -> Diag.commit diag ~watermark root));
  let tds =
    if not typedefs then None
    else begin
      let tds =
        Typedefs.create
          ?policy:lang.Languages.Language.ambig.Languages.Language.sem_policy
          grammar
      in
      Typedefs.on_select tds (Diag.touch diag);
      Some tds
    end
  in
  { diag; tds }

type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* One analysis of the committed tree: [Typedefs.analyze] where attached,
   then [Diag.run]; [span] wraps each call. *)
let run ?(span = untraced) a root =
  match a.tds with
  | None -> span.span "semantics.diag" (fun () -> Diag.run a.diag root)
  | Some tds ->
      span.span "semantics.typedefs" (fun () -> ignore (Typedefs.analyze tds root));
      span.span "semantics.diag" (fun () ->
          Diag.run a.diag ~typedefs:(Typedefs.global_typedefs tds) root)

let observe grammar s ~diag =
  {
    tree = Parsedag.Pp.to_sexp grammar (Session.root s);
    tokens = tokens_of_session s;
    diag;
  }

(* The from-scratch snapshot of [text], analysed as a step with
   [~typedefs] analyses it. *)
let expect (lang : Languages.Language.t) ~typedefs text =
  let s, _ =
    Session.create ~table:(Languages.Language.table lang)
      ~lexer:(Languages.Language.lexer lang) text
  in
  let diag = Diag.render (run (attach ~typedefs lang s) (Session.root s)) in
  {
    tree = Parsedag.Pp.to_sexp lang.Languages.Language.grammar (Session.root s);
    tokens = tokens_of_scan (Languages.Language.lexer lang) text;
    diag;
  }

(* Names of the components that differ. *)
let diff expected observed =
  List.filter_map
    (fun (name, f) ->
      if String.equal (f expected) (f observed) then None else Some name)
    [ ("tree", fun o -> o.tree); ("tokens", fun o -> o.tokens); ("diag", fun o -> o.diag) ]
