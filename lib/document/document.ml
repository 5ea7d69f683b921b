module Node = Parsedag.Node
module Scanner = Lexgen.Scanner

(* Relex observability: per edit, how many tokens were actually rescanned
   versus kept (including tokens rescanned to an identical value and
   trimmed back — those count as reused, since their tree nodes are). *)
let m_edits = Metrics.counter "vdoc.edits"
let m_relex_span = Metrics.timer "vdoc.relex"
let m_tokens_relexed = Metrics.counter "vdoc.tokens_relexed"
let m_tokens_reused = Metrics.counter "vdoc.tokens_reused"

(* The position map of one version: [starts.(i)] is the byte offset of
   leaf [i]'s leading trivia, [starts.(n)] the end of the last token.
   [edit] rebuilds it with the leaves; line starts are computed on the
   first line query of a version. *)
type t = {
  lexer : Lexgen.Spec.t;
  mutable root : Node.t;
  mutable leaves : Node.t array;
  mutable starts : int array;
  mutable lines : int array option;
  mutable text : string;
}

let token_length (tok : Scanner.token) =
  String.length tok.Scanner.trivia + String.length tok.Scanner.text

let node_of_token (tok : Scanner.token) =
  Node.make_term ~term:tok.Scanner.term ~text:tok.Scanner.text
    ~trivia:tok.Scanner.trivia ~lex_la:tok.Scanner.lookahead

let create ~lexer text =
  let tokens, trailing =
    Trace.span Trace.Lex "lex" @@ fun () -> Scanner.all lexer text
  in
  let leaves = Array.of_list (List.map node_of_token tokens) in
  let root =
    Node.make_root
      (Array.concat
         [ [| Node.make_bos () |]; leaves; [| Node.make_eos ~trailing |] ])
  in
  Node.commit root;
  let starts = Array.make (Array.length leaves + 1) 0 in
  List.iteri
    (fun i tok -> starts.(i + 1) <- starts.(i) + token_length tok)
    tokens;
  { lexer; root; leaves; starts; lines = None; text }

let root t = t.root
let text t = t.text
let length t = String.length t.text
let leaves t = t.leaves
let token_count t = Array.length t.leaves

(* ------------------------------------------------------------------ *)
(* Positions.                                                          *)

let token_offset t k = t.starts.(max 0 (min k (Array.length t.leaves)))

let lexeme_offset t k =
  if k < 0 || k >= Array.length t.leaves then token_offset t k
  else
    match t.leaves.(k).Node.kind with
    | Node.Term i -> t.starts.(k) + String.length i.Node.trivia
    | _ -> t.starts.(k)

let line_col t byte =
  let lines =
    match t.lines with
    | Some l -> l
    | None ->
        let l = ref [ 0 ] in
        String.iteri (fun i c -> if c = '\n' then l := (i + 1) :: !l) t.text;
        let l = Array.of_list (List.rev !l) in
        t.lines <- Some l;
        l
  in
  let line = Relex.search lines ~lo:0 ~hi:(Array.length lines) (byte + 1) in
  (line, byte - lines.(line - 1) + 1)

let index_in_parent (p : Node.t) (n : Node.t) =
  let rec find i =
    if i >= Array.length p.Node.kids then
      invalid_arg "Document: stale parent pointer"
    else if p.Node.kids.(i) == n then i
    else find (i + 1)
  in
  find 0

let ancestor_span t i (a : Node.t) =
  (* Climb from the leaf, subtracting the tokens of every kid left of the
     path (none below a choice: alternatives share one yield). *)
  let rec climb (n : Node.t) lo =
    if n == a then (lo, lo + Node.token_count a - 1)
    else
      match n.Node.parent with
      | None -> invalid_arg "Document.ancestor_span: not an ancestor"
      | Some ({ Node.kind = Node.Choice _; _ } as p) -> climb p lo
      | Some p -> climb p (lo - Node.tokens_before p (index_in_parent p n))
  in
  climb t.leaves.(i) i

(* [a] with [drop] elements at [at] replaced by [b]. *)
let splice a ~at ~drop b =
  Array.concat
    [ Array.sub a 0 at; b; Array.sub a (at + drop) (Array.length a - at - drop) ]

(* Unlink [n] from its parent; returns the parent and the slot it held. *)
let unlink (n : Node.t) =
  match n.Node.parent with
  | None -> invalid_arg "Document: leaf without parent"
  | Some p ->
      let i = index_in_parent p n in
      p.Node.kids <- splice p.Node.kids ~at:i ~drop:1 [||];
      Node.adjust_token_count p (-Node.token_count n);
      Node.mark_changed p;
      (p, i)

(* Insert [nodes] as kids of [p] at slot [at], keeping counts exact. *)
let link (p : Node.t) ~at nodes =
  p.Node.kids <- splice p.Node.kids ~at ~drop:0 nodes;
  Array.iter (fun (k : Node.t) -> k.Node.parent <- Some p) nodes;
  Node.adjust_token_count p
    (Array.fold_left (fun acc k -> acc + Node.token_count k) 0 nodes)

let eos_of t = t.root.Node.kids.(Array.length t.root.Node.kids - 1)

let set_trailing t trailing =
  let eos = eos_of t in
  (match eos.Node.kind with
  | Node.Eos e ->
      if not (String.equal e.Node.trailing trailing) then begin
        e.Node.trailing <- trailing;
        Node.mark_changed eos
      end
  | _ -> assert false)

let edit t ~pos ~del ~insert =
  if pos < 0 || del < 0 || pos + del > String.length t.text then
    invalid_arg "Document.edit: range out of bounds";
  let new_text =
    String.concat ""
      [
        String.sub t.text 0 pos;
        insert;
        String.sub t.text (pos + del) (String.length t.text - pos - del);
      ]
  in
  (* Relex before touching the tree so a lex error leaves us unchanged. *)
  let r =
    Trace.span Trace.Relex "relex" @@ fun () ->
    Metrics.time m_relex_span (fun () ->
        Relex.relex ~lexer:t.lexer ~leaves:t.leaves ~starts:t.starts ~pos
          ~del ~insert ~new_text)
  in
  let n = Array.length t.leaves in
  let toks = Array.of_list r.Relex.tokens in
  let m = Array.length toks in
  (* The new position map: the kept prefix, the relexed run, then the
     suffix shifted by the edit's length change. *)
  let n' = n - r.Relex.replaced + m in
  let starts = Array.make (n' + 1) 0 in
  Array.blit t.starts 0 starts 0 (r.Relex.first + 1);
  Array.iteri
    (fun k tok ->
      let i = r.Relex.first + k in
      starts.(i + 1) <- starts.(i) + token_length tok)
    toks;
  let delta = String.length insert - del in
  for i = r.Relex.first + m + 1 to n' do
    starts.(i) <- t.starts.(i - m + r.Relex.replaced) + delta
  done;
  (* Trim replacement tokens that are identical to the leaves they would
     replace (tokens rescanned only because their lookahead reached the
     edit): keeping the old nodes preserves subtree reuse around the
     damage.  [k] indexes the tokens, [i] the old leaves. *)
  let same k i =
    match t.leaves.(i).Node.kind with
    | Node.Term l ->
        l.Node.term = toks.(k).Scanner.term
        && String.equal l.Node.text toks.(k).Scanner.text
        && String.equal l.Node.trivia toks.(k).Scanner.trivia
        && l.Node.lex_la = toks.(k).Scanner.lookahead
    | _ -> false
  in
  let front = ref 0 and back = ref 0 in
  while
    !front < min m r.Relex.replaced && same !front (r.Relex.first + !front)
  do
    incr front
  done;
  while
    !back < min (m - !front) (r.Relex.replaced - !front)
    && same (m - 1 - !back) (r.Relex.first + r.Relex.replaced - 1 - !back)
  do
    incr back
  done;
  let first = r.Relex.first + !front
  and replaced = r.Relex.replaced - !front - !back in
  let new_terms =
    Array.map node_of_token (Array.sub toks !front (m - !front - !back))
  in
  Metrics.incr m_edits;
  Metrics.add m_tokens_relexed (Array.length new_terms);
  Metrics.add m_tokens_reused (n - replaced);
  (* The splice decision after trimming: which leaves the edit actually
     replaced versus kept (the relex half of the reuse story). *)
  if Trace.enabled () then
    Trace.instant Trace.Relex "splice"
      [
        ("first", Trace.Int first);
        ("replaced", Trace.Int replaced);
        ("inserted", Trace.Int (Array.length new_terms));
        ("relexed", Trace.Int (Array.length new_terms));
        ("reused", Trace.Int (n - replaced));
      ];
  (* Splice into the tree: the replacement terminals take the tree position
     of the first replaced leaf (or sit just before eos when appending);
     the remaining replaced leaves are unlinked from their own parents. *)
  if replaced > 0 || Array.length new_terms > 0 then begin
    let anchor = if first < n then t.leaves.(first) else eos_of t in
    let p, at =
      match anchor.Node.parent with
      | Some p -> (p, index_in_parent p anchor)
      | None -> invalid_arg "Document: leaf without parent"
    in
    (* The anchor's slot index was captured above; removing the anchor
       first keeps [at] pointing at its spot. *)
    for i = first to first + replaced - 1 do
      ignore (unlink t.leaves.(i))
    done;
    link p ~at new_terms;
    Array.iter Node.mark_changed new_terms;
    Node.mark_changed p
  end;
  (match r.Relex.trailing with
  | Some trailing -> set_trailing t trailing
  | None -> ());
  t.leaves <- splice t.leaves ~at:first ~drop:replaced new_terms;
  t.starts <- starts;
  t.lines <- None;
  t.text <- new_text;
  replaced

let changed_tokens t =
  Array.to_list t.leaves
  |> List.filter (fun (l : Node.t) -> l.Node.changed)

(* ------------------------------------------------------------------ *)
(* Error-isolation surgery (local error recovery).                     *)

type detach = { d_leaf : Node.t; d_parent : Node.t; d_index : int }

let detach_leaves t ~lo ~hi =
  if lo < 0 || hi >= Array.length t.leaves || lo > hi then
    invalid_arg "Document.detach_leaves: bad range";
  let undo = ref [] in
  for i = lo to hi do
    let leaf = t.leaves.(i) in
    let p, idx = unlink leaf in
    undo := { d_leaf = leaf; d_parent = p; d_index = idx } :: !undo
  done;
  !undo

let reattach undo =
  (* [undo] is in reverse removal order (a stack), so a single forward
     pass replays the exact inverse operations. *)
  List.iter
    (fun { d_leaf; d_parent; d_index } ->
      link d_parent ~at:d_index [| d_leaf |];
      Node.mark_changed d_parent)
    undo

(* Put alternative [a] in the slot of its choice node [q]; false when
   [q] has no parent. *)
let flatten (q : Node.t) (a : Node.t) =
  match q.Node.parent with
  | None -> false
  | Some r ->
      r.Node.kids.(index_in_parent r q) <- a;
      a.Node.parent <- Some r;
      true

(* Highest ancestor of [anchor] whose yield still starts at [anchor]:
   splicing just before it puts the error run at statement level rather
   than deep inside the following subtree.  Choice nodes on the way are
   flattened to the on-path alternative — alternatives share their
   terminals, so the substitution preserves yield and token counts, and
   it guarantees the spliced error node never sits under a choice (whose
   alternatives must agree on one yield). *)
let rec climb_anchor (anchor : Node.t) (a : Node.t) =
  match a.Node.parent with
  | None -> a
  | Some p -> (
      match p.Node.kind with
      | Node.Root -> a
      | Node.Choice _ -> if flatten p a then climb_anchor anchor a else a
      | _ ->
          if
            match Node.first_terminal p with
            | Some ft -> ft == anchor
            | None -> false
          then climb_anchor anchor p
          else a)

let splice_error t ~message ~lo ~hi =
  if lo < 0 || hi >= Array.length t.leaves || lo > hi then
    invalid_arg "Document.splice_error: bad range";
  let kids = Array.sub t.leaves lo (hi - lo + 1) in
  let e = Node.make_error ~message kids in
  Array.iter
    (fun (k : Node.t) ->
      k.Node.parent <- Some e;
      k.Node.changed <- false;
      k.Node.nested <- false)
    kids;
  let anchor =
    if hi + 1 < Array.length t.leaves then t.leaves.(hi + 1) else eos_of t
  in
  let a = climb_anchor anchor anchor in
  match a.Node.parent with
  | None -> invalid_arg "Document.splice_error: detached anchor"
  | Some p ->
      link p ~at:(index_in_parent p a) [| e |];
      (* Walk to the root: clear states so the spine over an error region
         never state-matches (integration of the flagged run is
         re-attempted on every later reparse, succeeding once the text is
         repaired), and flatten any choice ancestor — the insertion grew
         this alternative's yield, so the alternatives no longer agree;
         keep the on-path interpretation.  [adjust_token_count] above
         already updated every node on this chain, so the substitution
         leaves all counts exact. *)
      let rec fixup (n : Node.t) =
        n.Node.state <- Node.nostate;
        match n.Node.parent with
        | None -> ()
        | Some ({ Node.kind = Node.Choice _; _ } as q) ->
            if flatten q n then fixup n
        | Some q -> fixup q
      in
      fixup p;
      e
