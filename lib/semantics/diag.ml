(* Incremental semantic diagnostics (see diag.mli for the architecture).

   The unit of incrementality is the top-level item — a [calc]
   statement, a C-subset external declaration: the elements of the
   start symbol's sequence.  Each item carries its cells keyed by its
   dag node id:

     diag.scope    env-free summary: exported defs, free uses, local
                   diagnostics, and a typing skeleton (a small
                   expression IR with item-local names already bound);
                   with a §4.2 policy it also decides the item's choices
     diag.resolve  free uses filtered against the visible-names input
     diag.types    the skeleton evaluated against the typing-env input
     diag.leads    the identifiers leading the item's choice regions
                   (policy only): the restriction of the typedef view

   A reparse gives a rebuilt item a fresh node id, so its cells are
   recomputed from scratch while every retained item's cells validate
   clean — the engine's dependency check sees an unchanged node, an
   unchanged environment restriction, and stops.  Every walk records a
   node dependency on the choices it crosses, so a selection flipped by
   another analyzer arrives through [touch].  Cross-item aggregation is
   plain per-run code over the cell values: linear in the item count and
   free of tree walks. *)

module Cfg = Grammar.Cfg
module Node = Parsedag.Node
module Sequence = Parsedag.Sequence

type ty = Int | Float | Char | Void | Named of string | Unknown

let ty_name = function
  | Int -> "int"
  | Float -> "float"
  | Char -> "char"
  | Void -> "void"
  | Named n -> n
  | Unknown -> "?"

type def_kind = Var | Func | Type | Param

let kind_name = function
  | Var -> "var"
  | Func -> "func"
  | Type -> "type"
  | Param -> "param"

type binding = { b_name : string; b_kind : def_kind; b_ty : ty; b_token : int }
type diag = { d_code : string; d_token : int; d_message : string }

type result = {
  bindings : binding list;
  diags : diag list;
  types : (int * ty) list;
  typedefs : string list;
}

type policy = Namespace_only | Prefer_decl

type report = {
  typedefs : int;
  choices : int;
  decided : int;
  reinterpreted : int;
  unresolved : int;
  prefer_decl_applied : int;
  errors : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Internal analysis vocabulary.  All of it is pure immutable data, so
   cell values compare with structural equality (early cutoff).       *)

type ns = Ord | Typ  (* C's ordinary vs type namespaces *)

let ns_of_kind = function Type -> Typ | Var | Func | Param -> Ord

(* Syntactic type of a declaration: known base, a typedef-name
   reference (resolved against the environment by the types layer), or
   inferred from the initialising expression (calc assignments). *)
type sts = Sb of ty | Snm of string | Sinfer

(* Typing skeleton: expressions with item-local names already resolved
   to def indices and everything else left symbolic.  Token offsets are
   relative to the item, so an item that merely moves keeps an equal
   summary. *)
type ex =
  | Enum of ty
  | Elocal of int  (* index into the item's def table *)
  | Efree of string
  | Ebin of string * int * ex * ex  (* operator, its relative token *)
  | Ecall of ex * ex list
  | Eseq of ex list
  | Enone

type sdef = {
  sd_name : string;
  sd_kind : def_kind;
  sd_tok : int;  (* relative token offset of the defining occurrence *)
  sd_ts : sts;
  sd_export : bool;  (* defined at item level: visible to later items *)
  sd_used : bool;  (* referenced somewhere within the item *)
}

type suse = { su_name : string; su_ns : ns; su_tok : int }

(* A typed context: a statement expression, an initialiser, a calc
   assignment right-hand side. *)
type tctx = {
  tc_tok : int;
  tc_check : int option;  (* def whose declared type must match *)
  tc_bind : int option;  (* def that receives the computed type *)
  tc_ex : ex;
}

type summary = {
  sm_defs : sdef array;
  sm_uses : suse list;  (* free uses, source order *)
  sm_ctxs : tctx list;  (* source order *)
  sm_diags : (int * string * string) list;  (* rel token, code, message *)
  sm_choices : int;  (* choice nodes the walk crossed *)
  sm_unresolved : int;  (* §4.2: choices the policy left undecided *)
  sm_tderrors : (string * string) list;  (* §4.2: kind, leading name *)
}

type resolution = { rv_unresolved : suse list }

type tenv = {
  te_vals : (string * ty) list;  (* visible value bindings, restricted *)
  te_types : (string * ty) list;  (* visible typedef meanings, restricted *)
}

type tyres = {
  tr_exports : (string * ty) list;  (* value exports, for the running env *)
  tr_typedefs : (string * ty) list;  (* typedef exports, resolved to base *)
  tr_bindings : ty list;  (* display type per exported def, in order *)
  tr_types : (int * ty) list;  (* rel token, computed type *)
  tr_diags : (int * string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Grammar recognition.                                                *)

type mode = Calc | Clike

type ids = {
  id_t : int;
  num_t : int;
  expr_nt : int;
  type_spec_nt : int;  (* clike only; -1 for calc *)
  decl_nt : int;  (* clike only; -1 for calc *)
}

(* Per-production dispatch, precomputed at [create]. *)
type shape =
  | S_other
  | S_assign  (* calc: stmt -> id = expr ; *)
  | S_binop of string  (* expr -> expr OP expr *)
  | S_paren  (* expr -> ( expr ) *)
  | S_call0  (* expr -> expr ( ) *)
  | S_call  (* expr -> expr ( args ) *)
  | S_typedef_decl  (* decl -> typedef type_spec id ; *)
  | S_decl  (* decl -> type_spec init_decls ; *)
  | S_func  (* func_def -> type_spec id ( [params] ) compound *)
  | S_param  (* param -> type_spec id *)
  | S_compound
  | S_init_plain  (* init_decl -> declarator *)
  | S_init_eq  (* init_decl -> declarator = expr *)

(* The last §4.2 decision at a choice node: the leading name it read,
   that name's namespace status, and the selection it made. *)
type decision = { dec_name : string option; dec_type : bool; dec_sel : int }

(* Decisions are keyed weakly by choice node: an entry goes when its
   node leaves the tree and is collected. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Node.t

  let equal = ( == )
  let hash (n : Node.t) = Hashtbl.hash n.Node.nid
end)

type t = {
  g : Cfg.t;
  mode : mode;
  ids : ids;
  shapes : shape array;
  policy : policy option;
  engine : Query.t;
  scope_q : summary Query.def;
  resolve_q : resolution Query.def;
  types_q : tyres Query.def;
  leads_q : string list Query.def;
  envnames_in : (string * ns) list Query.input;
  envty_in : tenv Query.input;
  tdview_in : string list Query.input;
      (* typedef names exported by earlier items, restricted to the
         item's leads *)
  nodes : (int, Node.t) Hashtbl.t;  (* item nid -> node, per run *)
  decisions : decision Memo.t;
  mutable on_select : (Node.t -> unit) option;
  (* Per-run §4.2 counters (decisions happen inside scope computes). *)
  mutable n_decided : int;
  mutable n_reinterp : int;
  mutable n_prefer : int;
  mutable last : summary list;  (* the last run's items, in order *)
  mutable globals : string list;  (* typedef names exported, sorted *)
}

let find_nt g n = try Cfg.find_nonterminal g n with Not_found -> -1
let find_t g n = try Cfg.find_terminal g n with Not_found -> -1

let mode_of g =
  if
    find_nt g "translation_unit" >= 0
    && find_nt g "ext_decl" >= 0
    && find_nt g "type_spec" >= 0
    && find_nt g "expr" >= 0
    && find_t g "typedef" >= 0
    && find_t g "id" >= 0
  then Some Clike
  else if
    find_nt g "program" >= 0
    && find_nt g "stmt" >= 0
    && find_nt g "expr" >= 0
    && find_t g "id" >= 0
    && find_t g "num" >= 0
    && find_t g "=" >= 0
  then Some Calc
  else None

let supported g = mode_of g <> None

let classify g mode ids (pr : Cfg.production) =
  let rhs = pr.Cfg.rhs in
  let n = Array.length rhs in
  let is_t k name = k < n && rhs.(k) = Cfg.T (find_t g name) in
  let is_nt k nt = k < n && nt >= 0 && rhs.(k) = Cfg.N nt in
  let lhs_name = Cfg.nonterminal_name g pr.Cfg.lhs in
  if pr.Cfg.lhs = ids.expr_nt then
    if n = 3 && is_nt 0 ids.expr_nt && is_nt 2 ids.expr_nt then
      match rhs.(1) with
      | Cfg.T op -> S_binop (Cfg.terminal_name g op)
      | Cfg.N _ -> S_other
    else if n = 3 && is_t 0 "(" && is_nt 1 ids.expr_nt && is_t 2 ")" then
      S_paren
    else if n = 3 && is_nt 0 ids.expr_nt && is_t 1 "(" && is_t 2 ")" then
      S_call0
    else if n = 4 && is_nt 0 ids.expr_nt && is_t 1 "(" && is_t 3 ")" then
      S_call
    else S_other
  else
    match (mode, lhs_name) with
    | Calc, "stmt" when n = 4 && is_t 1 "=" && is_t 3 ";" -> S_assign
    | Clike, "decl" when n > 0 && is_t 0 "typedef" -> S_typedef_decl
    | Clike, "decl" when n = 3 && is_t 2 ";" -> S_decl
    | Clike, "func_def" -> S_func
    | Clike, "param" when n = 2 -> S_param
    | Clike, "compound" -> S_compound
    | Clike, "init_decl" when n = 1 -> S_init_plain
    | Clike, "init_decl" when n = 3 && is_t 1 "=" -> S_init_eq
    | _ -> S_other

(* ------------------------------------------------------------------ *)
(* The item walker (scope pass).  One traversal per item produces the
   full env-free summary: everything later layers need is distilled
   into plain data here, so the resolve and types cells never touch
   the dag. *)

type wst = {
  a : t;
  e : Query.t;
  mutable tok : int;
  mutable env : (ns * string * int) list;
      (* local defs in scope, innermost first: (namespace, name, def) *)
  mutable depth : int;  (* scopes open inside the item *)
  mutable ndefs : int;
  mutable rdefs : sdef list;  (* reversed; [sd_used] set at the end *)
  used : (int, unit) Hashtbl.t;
  mutable ruses : suse list;  (* reversed *)
  mutable rctxs : tctx list;  (* reversed *)
  mutable rdiags : (int * string * string) list;  (* reversed *)
  mutable cur_ts : sts;  (* decl's type_spec, for its init_decls *)
  view : string list Lazy.t;  (* the item's typedef view (policy only) *)
  mutable choices : int;
  mutable unresolved : int;
  mutable rtderrors : (string * string) list;  (* reversed *)
}

let term_text (n : Node.t) =
  match n.Node.kind with Node.Term i -> i.Node.text | _ -> ""

let lookup w ns name =
  List.find_map (fun (ns', n, i) -> if ns' = ns && String.equal n name then Some i else None) w.env

let add_def ?(inscope = true) w ~name ~kind ~tok ~ts =
  let i = w.ndefs in
  w.ndefs <- i + 1;
  w.rdefs <-
    { sd_name = name; sd_kind = kind; sd_tok = tok; sd_ts = ts; sd_export = w.depth = 0; sd_used = false }
    :: w.rdefs;
  if inscope then w.env <- (ns_of_kind kind, name, i) :: w.env;
  i

(* The identifier a choice region starts with, if it starts with one. *)
let leading_id a (n : Node.t) =
  match Node.first_terminal n with
  | Some { Node.kind = Node.Term i; _ } when i.Node.term = a.ids.id_t ->
      Some i.Node.text
  | _ -> None

(* Classify an alternative of a statement choice by its first child's
   nonterminal: the declaration or the expression reading. *)
let alt_kind a (alt : Node.t) =
  match alt.Node.kind with
  | Node.Prod _ when Array.length alt.Node.kids > 0 -> (
      match Node.symbol a.g alt.Node.kids.(0) with
      | `N nt when nt = a.ids.decl_nt -> `Decl
      | `N nt when nt = a.ids.expr_nt -> `Expr
      | _ -> `Other)
  | _ -> `Other

(* The §4.2 decision at a choice the walk crosses: the region's leading
   identifier names a type when a typedef binds it in the item's local
   scopes or in the item's typedef view; a type selects the declaration
   reading, anything else the expression reading.  A choice whose
   recorded decision still holds (same name, same status, selection
   intact) keeps its selection without a new decision.  A region not
   led by an identifier, or missing the reading its name calls for,
   stays unresolved with every interpretation retained (§4.3). *)
let decide w policy (n : Node.t) ci =
  let a = w.a in
  let name = leading_id a n in
  let is_type =
    match name with
    | Some x ->
        (* Forced even when a local typedef decides, so the cell always
           depends on the view the driver set for it. *)
        let view = Lazy.force w.view in
        lookup w Typ x <> None || List.mem x view
    | None -> false
  in
  match Memo.find_opt a.decisions n with
  | Some d
    when d.dec_name = name && d.dec_type = is_type && d.dec_sel >= 0
         && d.dec_sel = ci.Node.selected ->
      ()
  | _ ->
      a.n_decided <- a.n_decided + 1;
      let find kind = Array.find_index (fun k -> alt_kind a k = kind) n.Node.kids in
      let error kind =
        w.rtderrors <- (kind, Option.value ~default:"?" name) :: w.rtderrors;
        -1
      in
      let sel =
        if name = None then -1
        else if is_type then (
          match find `Decl with
          | Some i ->
              if policy = Prefer_decl && find `Expr <> None then
                a.n_prefer <- a.n_prefer + 1;
              i
          | None -> error "type-in-expression-position")
        else
          match find `Expr with
          | Some i -> i
          | None -> error "unknown-type-name"
      in
      let prev = ci.Node.selected in
      ci.Node.selected <- sel;
      if sel < 0 then w.unresolved <- w.unresolved + 1
      else if prev >= 0 && prev <> sel then a.n_reinterp <- a.n_reinterp + 1;
      Memo.replace a.decisions n { dec_name = name; dec_type = is_type; dec_sel = sel };
      if sel <> prev then Option.iter (fun f -> f n) a.on_select

(* Descend a choice along its selected (or first) alternative — taking
   the §4.2 decision first under a policy — recording the node
   dependency: a flip by another analyzer arrives as [touch] and re-runs
   every cell whose walk crossed this node. *)
let alt w (n : Node.t) ci =
  Query.depend_node w.e n;
  w.choices <- w.choices + 1;
  Option.iter (fun policy -> decide w policy n ci) w.a.policy;
  n.Node.kids.(max 0 ci.Node.selected)

let mark_used w i = Hashtbl.replace w.used i ()

let free_use w ~name ~ns ~tok = w.ruses <- { su_name = name; su_ns = ns; su_tok = tok } :: w.ruses

let add_ctx w c = w.rctxs <- c :: w.rctxs

let lit_ty text = if String.contains text '.' then Float else Int

(* Expression walk: count tokens, resolve item-local names, build the
   typing skeleton.  Identifier terminals reached here are uses. *)
let rec wexpr w (n : Node.t) : ex =
  match n.Node.kind with
  | Node.Term i ->
      let tok = w.tok in
      w.tok <- w.tok + 1;
      if i.Node.term = w.a.ids.id_t then (
        match lookup w Ord i.Node.text with
        | Some d ->
            mark_used w d;
            Elocal d
        | None ->
            free_use w ~name:i.Node.text ~ns:Ord ~tok;
            Efree i.Node.text)
      else if i.Node.term = w.a.ids.num_t then Enum (lit_ty i.Node.text)
      else Enone
  | Node.Bos | Node.Eos _ | Node.Root -> Enone  (* never inside an expression *)
  | Node.Error _ ->
      w.tok <- w.tok + Node.token_count n;
      Enone
  | Node.Choice ci -> wexpr w (alt w n ci)
  | Node.Prod p -> (
      let kids = n.Node.kids in
      match w.a.shapes.(p) with
      | S_binop op ->
          let x = wexpr w kids.(0) in
          let optok = w.tok in
          w.tok <- w.tok + 1;
          let y = wexpr w kids.(2) in
          Ebin (op, optok, x, y)
      | S_paren ->
          w.tok <- w.tok + 1;
          let e = wexpr w kids.(1) in
          w.tok <- w.tok + 1;
          e
      | S_call0 ->
          let f = wexpr w kids.(0) in
          w.tok <- w.tok + 2;
          Ecall (f, [])
      | S_call ->
          let f = wexpr w kids.(0) in
          w.tok <- w.tok + 1;
          let args = wexpr w kids.(2) in
          w.tok <- w.tok + 1;
          let rec flat = function
            | Eseq l -> List.concat_map flat l
            | Enone -> []
            | e -> [ e ]
          in
          Ecall (f, flat args)
      | _ -> (
          match kids with
          | [| k |] -> wexpr w k
          | _ ->
              Eseq
                (List.filter (fun e -> e <> Enone)
                   (Array.to_list (Array.map (wexpr w) kids)))))

(* Type specifier: a keyword gives a base type; an identifier is a use
   in the type namespace and stays symbolic. *)
let rec wtype_spec w (n : Node.t) : sts =
  match n.Node.kind with
  | Node.Choice ci -> wtype_spec w (alt w n ci)
  | Node.Prod _ when Array.length n.Node.kids = 1 -> (
      match n.Node.kids.(0).Node.kind with
      | Node.Term i ->
          let tok = w.tok in
          w.tok <- w.tok + 1;
          if i.Node.term = w.a.ids.id_t then (
            (match lookup w Typ i.Node.text with
            | Some d -> mark_used w d
            | None -> free_use w ~name:i.Node.text ~ns:Typ ~tok);
            Snm i.Node.text)
          else (
            match Cfg.terminal_name w.a.g i.Node.term with
            | "int" -> Sb Int
            | "float" -> Sb Float
            | "char" -> Sb Char
            | "void" -> Sb Void
            | _ -> Sb Unknown)
      | _ ->
          w.tok <- w.tok + Node.token_count n;
          Sb Unknown)
  | _ ->
      w.tok <- w.tok + Node.token_count n;
      Sb Unknown

(* Declarator: locate the declared identifier, counting tokens. *)
let rec wdeclarator w (n : Node.t) : (string * int) option =
  match n.Node.kind with
  | Node.Term i ->
      let tok = w.tok in
      w.tok <- w.tok + 1;
      if i.Node.term = w.a.ids.id_t then Some (i.Node.text, tok) else None
  | Node.Choice ci -> wdeclarator w (alt w n ci)
  | Node.Prod _ | Node.Error _ | Node.Root ->
      Array.fold_left
        (fun acc k ->
          match wdeclarator w k with Some _ as r -> r | None -> acc)
        None n.Node.kids
  | Node.Bos | Node.Eos _ -> None

(* Run [f] in a nested scope: the defs it adds go out of scope after. *)
let scoped w f =
  let env = w.env in
  w.depth <- w.depth + 1;
  f ();
  w.depth <- w.depth - 1;
  w.env <- env

let rec walk w (n : Node.t) =
  match n.Node.kind with
  | Node.Term _ -> w.tok <- w.tok + 1
  | Node.Bos | Node.Eos _ -> ()
  | Node.Error _ -> w.tok <- w.tok + Node.token_count n
  | Node.Root -> Array.iter (walk w) n.Node.kids
  | Node.Choice ci -> walk w (alt w n ci)
  | Node.Prod p -> (
      let kids = n.Node.kids in
      let pr = Cfg.production w.a.g p in
      if pr.Cfg.lhs = w.a.ids.expr_nt then (
        (* Expression boundary: every expression context — statement
           expressions, conditions, return values — becomes a typed
           context, so type errors anywhere are caught. *)
        let tok0 = w.tok in
        let ex = wexpr w n in
        add_ctx w { tc_tok = tok0; tc_check = None; tc_bind = None; tc_ex = ex })
      else if w.a.ids.type_spec_nt >= 0 && pr.Cfg.lhs = w.a.ids.type_spec_nt
      then ignore (wtype_spec w n)
      else
        match w.a.shapes.(p) with
        | S_assign ->
            (* calc: id = expr ; — the assignment both defines the name
               and types it from its right-hand side.  The name is not
               scoped into the item (the right-hand side reads the
               previous value), so self-references resolve through the
               cross-item environment. *)
            let name = term_text kids.(0) in
            let dtok = w.tok in
            w.tok <- w.tok + 2 (* id = *);
            let etok = w.tok in
            let ex = wexpr w kids.(2) in
            w.tok <- w.tok + 1 (* ; *);
            let i = add_def ~inscope:false w ~name ~kind:Var ~tok:dtok ~ts:Sinfer in
            add_ctx w { tc_tok = etok; tc_check = None; tc_bind = Some i; tc_ex = ex }
        | S_typedef_decl ->
            (* typedef type_spec id ; *)
            w.tok <- w.tok + 1;
            let ts = wtype_spec w kids.(1) in
            let name = term_text kids.(2) in
            ignore (add_def w ~name ~kind:Type ~tok:w.tok ~ts);
            w.tok <- w.tok + 2 (* id ; *)
        | S_decl ->
            let ts = wtype_spec w kids.(0) in
            w.cur_ts <- ts;
            walk w kids.(1);
            w.cur_ts <- Sb Unknown;
            w.tok <- w.tok + 1 (* ; *)
        | S_init_plain | S_init_eq ->
            let def =
              Option.map
                (fun (name, dtok) -> add_def w ~name ~kind:Var ~tok:dtok ~ts:w.cur_ts)
                (wdeclarator w kids.(0))
            in
            if w.a.shapes.(p) = S_init_eq then begin
              w.tok <- w.tok + 1 (* = *);
              let etok = w.tok in
              let ex = wexpr w kids.(2) in
              if def <> None then
                add_ctx w { tc_tok = etok; tc_check = def; tc_bind = None; tc_ex = ex }
            end
        | S_func ->
            (* type_spec id ( [params] ) compound *)
            let ts = wtype_spec w kids.(0) in
            let name = term_text kids.(1) in
            ignore (add_def w ~name ~kind:Func ~tok:w.tok ~ts);
            w.tok <- w.tok + 1 (* id *);
            scoped w (fun () ->
                for i = 2 to Array.length kids - 1 do
                  walk w kids.(i)
                done)
        | S_param -> (
            let ts = wtype_spec w kids.(0) in
            match kids.(1).Node.kind with
            | Node.Term i when i.Node.term = w.a.ids.id_t ->
                ignore (add_def w ~name:i.Node.text ~kind:Param ~tok:w.tok ~ts);
                w.tok <- w.tok + 1
            | _ -> walk w kids.(1))
        | S_compound -> scoped w (fun () -> Array.iter (walk w) kids)
        | S_binop _ | S_paren | S_call0 | S_call | S_other ->
            Array.iter (walk w) kids)

let scope_compute a e nid =
  let n = Hashtbl.find a.nodes nid in
  Query.depend_node e n;
  let view = lazy (Option.value ~default:[] (Query.read e a.tdview_in nid)) in
  let w =
    {
      a;
      e;
      tok = 0;
      env = [];
      depth = 0;
      ndefs = 0;
      rdefs = [];
      used = Hashtbl.create 16;
      ruses = [];
      rctxs = [];
      rdiags = [];
      cur_ts = Sb Unknown;
      view;
      choices = 0;
      unresolved = 0;
      rtderrors = [];
    }
  in
  walk w n;
  let defs = Array.of_list (List.rev w.rdefs) in
  (* Local use-before-declaration: an unresolved use whose name is
     declared later in this item.  The def counts as used (its only
     reference precedes it) and the use stops being free. *)
  let uses =
    List.filter
      (fun u ->
        match
          Array.find_index
            (fun d ->
              d.sd_name = u.su_name && ns_of_kind d.sd_kind = u.su_ns
              && d.sd_tok > u.su_tok)
            defs
        with
        | Some i ->
            mark_used w i;
            w.rdiags <-
              ( u.su_tok,
                "use-before-decl",
                Printf.sprintf "%s is used before its declaration" u.su_name )
              :: w.rdiags;
            false
        | None -> true)
      (List.rev w.ruses)
  in
  (* Unused locals (exported defs are judged across items by the
     driver). *)
  Array.iteri
    (fun i d ->
      if (not d.sd_export) && not (Hashtbl.mem w.used i) then
        w.rdiags <-
          ( d.sd_tok,
            "unused-binding",
            Printf.sprintf "%s %s is never used" (kind_name d.sd_kind) d.sd_name )
          :: w.rdiags)
    defs;
  {
    sm_defs = Array.mapi (fun i d -> { d with sd_used = Hashtbl.mem w.used i }) defs;
    sm_uses = uses;
    sm_ctxs = List.rev w.rctxs;
    sm_diags = List.rev w.rdiags;
    sm_choices = w.choices;
    sm_unresolved = w.unresolved;
    sm_tderrors = List.rev w.rtderrors;
  }

(* The leads of an item: the identifiers its choice regions start with,
   sorted — the only names whose namespace a decision in the item reads.
   Every alternative is visited, so the set does not depend on the
   decisions the scope cell takes. *)
let leads_compute a e nid =
  let n = Hashtbl.find a.nodes nid in
  Query.depend_node e n;
  let acc = ref [] in
  let rec go (n : Node.t) =
    (match n.Node.kind with
    | Node.Choice _ -> Option.iter (fun x -> acc := x :: !acc) (leading_id a n)
    | _ -> ());
    Array.iter go n.Node.kids
  in
  go n;
  List.sort_uniq String.compare !acc

(* ------------------------------------------------------------------ *)
(* Name resolution: free uses against the restricted visible set.      *)

let resolve_compute a e nid =
  let s = Query.fetch e a.scope_q nid in
  let vis = Option.value ~default:[] (Query.read e a.envnames_in nid) in
  {
    rv_unresolved =
      List.filter (fun u -> not (List.mem (u.su_name, u.su_ns) vis)) s.sm_uses;
  }

(* ------------------------------------------------------------------ *)
(* Type checking: evaluate the skeleton under the restricted typing
   environment.                                                        *)

let types_compute a e nid =
  let s = Query.fetch e a.scope_q nid in
  let env =
    Option.value ~default:{ te_vals = []; te_types = [] } (Query.read e a.envty_in nid)
  in
  let defs = s.sm_defs in
  let tds =
    Array.to_list defs
    |> List.filter_map (fun d ->
           if d.sd_kind = Type then Some (d.sd_name, d.sd_ts) else None)
  in
  let rec base depth = function
    | Sb b -> b
    | Sinfer -> Unknown
    | Snm n -> (
        if depth > 12 then Unknown
        else
          match List.assoc_opt n tds with
          | Some ts -> base (depth + 1) ts
          | None -> (
              match List.assoc_opt n env.te_types with
              | Some b -> b
              | None -> Unknown))
  in
  let chk = Array.map (fun d -> base 0 d.sd_ts) defs in
  let disp =
    Array.map
      (fun d ->
        match d.sd_ts with Snm n -> Named n | Sb b -> b | Sinfer -> Unknown)
      defs
  in
  let rdiags = ref [] and rtypes = ref [] in
  let mismatch tok a b =
    rdiags :=
      (tok, "type-mismatch", Printf.sprintf "%s vs %s" (ty_name a) (ty_name b))
      :: !rdiags
  in
  let rec eval = function
    | Enum ty -> ty
    | Elocal i -> chk.(i)
    | Efree n -> (
        match List.assoc_opt n env.te_vals with Some ty -> ty | None -> Unknown)
    | Enone -> Unknown
    | Eseq l -> (
        match l with
        | [ e ] -> eval e
        | l ->
            List.iter (fun e -> ignore (eval e)) l;
            Unknown)
    | Ecall (f, args) ->
        List.iter (fun e -> ignore (eval e)) args;
        eval f
    | Ebin (op, tok, x, y) -> (
        let tx = eval x and ty = eval y in
        if tx <> Unknown && ty <> Unknown && tx <> ty then mismatch tok tx ty;
        match (a.mode, op) with
        | Calc, "/" ->
            (* calc's toy arithmetic: / is true division. *)
            Float
        | _, ("==" | "<") -> Int
        | _ -> if tx <> Unknown then tx else ty)
  in
  List.iter
    (fun c ->
      let ty = eval c.tc_ex in
      rtypes := (c.tc_tok, ty) :: !rtypes;
      (match c.tc_check with
      | Some i ->
          if chk.(i) <> Unknown && ty <> Unknown && chk.(i) <> ty then
            mismatch c.tc_tok chk.(i) ty
      | None -> ());
      match c.tc_bind with
      | Some i ->
          chk.(i) <- ty;
          disp.(i) <- ty
      | None -> ())
    s.sm_ctxs;
  let exports = ref [] and tdefs = ref [] and binds = ref [] in
  Array.iteri
    (fun i d ->
      if d.sd_export then begin
        binds := disp.(i) :: !binds;
        if d.sd_kind = Type then tdefs := (d.sd_name, chk.(i)) :: !tdefs
        else exports := (d.sd_name, chk.(i)) :: !exports
      end)
    defs;
  {
    tr_exports = List.rev !exports;
    tr_typedefs = List.rev !tdefs;
    tr_bindings = List.rev !binds;
    tr_types = List.rev !rtypes;
    tr_diags = List.rev !rdiags;
  }

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let create ?policy g =
  let mode =
    match mode_of g with
    | Some m -> m
    | None -> invalid_arg "Diag.create: unsupported grammar"
  in
  let ids =
    {
      id_t = find_t g "id";
      num_t = find_t g "num";
      expr_nt = find_nt g "expr";
      type_spec_nt = find_nt g "type_spec";
      decl_nt = find_nt g "decl";
    }
  in
  let shapes =
    Array.init (Cfg.num_productions g) (fun p ->
        classify g mode ids (Cfg.production g p))
  in
  let aref = ref None in
  let force name f = Query.define ~name (fun e nid ->
      match !aref with Some a -> f a e nid | None -> assert false)
  in
  let a =
    {
      g;
      mode;
      ids;
      shapes;
      policy;
      engine = Query.create ();
      scope_q = force "diag.scope" scope_compute;
      resolve_q = force "diag.resolve" resolve_compute;
      types_q = force "diag.types" types_compute;
      leads_q = force "diag.leads" leads_compute;
      envnames_in = Query.input ~name:"diag.envnames" ();
      envty_in = Query.input ~name:"diag.envty" ();
      tdview_in = Query.input ~name:"diag.tdview" ();
      nodes = Hashtbl.create 64;
      decisions = Memo.create 64;
      on_select = None;
      n_decided = 0;
      n_reinterp = 0;
      n_prefer = 0;
      last = [];
      globals = [];
    }
  in
  aref := Some a;
  a

let engine a = a.engine
let commit a ~watermark root = Query.commit_tree a.engine ~watermark root
let touch a n = Query.touch_node a.engine n
let on_select a f = a.on_select <- Some f

let report a =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 a.last in
  {
    typedefs =
      sum (fun s ->
          Array.fold_left (fun k d -> if d.sd_kind = Type then k + 1 else k) 0 s.sm_defs);
    choices = sum (fun s -> s.sm_choices);
    decided = a.n_decided;
    reinterpreted = a.n_reinterp;
    unresolved = sum (fun s -> s.sm_unresolved);
    prefer_decl_applied = a.n_prefer;
    errors = List.concat_map (fun s -> s.sm_tderrors) a.last;
  }

let global_typedefs a = a.globals

(* ------------------------------------------------------------------ *)
(* The scope pass: the items in source order, each item's scope cell
   fetched with the typedef contour in force before it.                *)

(* The items: the elements of the sequence the start production wraps
   ([program -> stmt*], [translation_unit -> ext_decl*]), with their
   absolute token offsets — counting the root-level kids before the top,
   such as an error node spliced before the first item. *)
let items_of a (root : Node.t) =
  let kids = root.Node.kids in
  match Array.find_index (fun k -> Node.symbol a.g k = `N (Cfg.start a.g)) kids with
  | Some i ->
      let base = Node.tokens_before root i in
      List.map
        (fun (off, it) -> (base + off, it))
        (Sequence.elements_at a.g kids.(i).Node.kids.(0))
  | None -> []

(* Fetch every item's scope cell, in order.  Under a policy, the item's
   typedef view — the typedef names earlier items export, restricted to
   the item's leads — is set first, so the decisions the cell takes see
   the contour in force and an unrelated typedef edit leaves the view,
   and so the cell, untouched.  An item without leads takes no decision
   that reads the view and gets none. *)
let scan a root =
  a.n_decided <- 0;
  a.n_reinterp <- 0;
  a.n_prefer <- 0;
  Hashtbl.reset a.nodes;
  let tds = Hashtbl.create 16 in
  let summaries =
    List.map
      (fun (off, (it : Node.t)) ->
        let nid = it.Node.nid in
        Hashtbl.replace a.nodes nid it;
        (if a.policy <> None then
           match Query.fetch a.engine a.leads_q nid with
           | [] -> ()
           | leads ->
               Query.set a.engine a.tdview_in nid
                 (List.filter (Hashtbl.mem tds) leads));
        let s = Query.fetch a.engine a.scope_q nid in
        Array.iter
          (fun d ->
            if d.sd_export && d.sd_kind = Type then
              Hashtbl.replace tds d.sd_name ())
          s.sm_defs;
        (off, it, s))
      (items_of a root)
  in
  a.last <- List.map (fun (_, _, s) -> s) summaries;
  a.globals <- List.sort compare (Hashtbl.fold (fun n () l -> n :: l) tds []);
  summaries

let decide a root =
  ignore (scan a root);
  ignore (Query.collect a.engine);
  report a

(* ------------------------------------------------------------------ *)
(* The per-run driver: fetch cells, thread the environment, aggregate. *)

let run a ?typedefs root =
  let summaries = scan a root in
  (* Everything any item exports, for classifying unresolved names. *)
  let all_defs = Hashtbl.create 64 in
  List.iter
    (fun (_, _, s) ->
      Array.iter
        (fun d ->
          if d.sd_export then
            Hashtbl.replace all_defs (d.sd_name, ns_of_kind d.sd_kind) ())
        s.sm_defs)
    summaries;
  let running_vals = Hashtbl.create 32 in
  let running_tds = Hashtbl.create 16 in
  let visible = Hashtbl.create 64 in
  let usedname = Hashtbl.create 64 in
  let rbindings = ref [] and rdiags = ref [] and rtypes = ref [] in
  let pending = ref [] in
  List.iter
    (fun (off, (it : Node.t), s) ->
      let abs tok = off + tok in
      let use_names =
        List.sort_uniq compare
          (List.map (fun u -> (u.su_name, u.su_ns)) s.sm_uses)
      in
      (* Environment restrictions: only what this item mentions. *)
      let envnames =
        List.filter (fun k -> Hashtbl.mem visible k) use_names
      in
      Query.set a.engine a.envnames_in it.Node.nid envnames;
      let r = Query.fetch a.engine a.resolve_q it.Node.nid in
      let restrict ns' running =
        List.filter_map
          (fun (n, ns) ->
            if ns = ns' then Option.map (fun ty -> (n, ty)) (Hashtbl.find_opt running n)
            else None)
          use_names
      in
      Query.set a.engine a.envty_in it.Node.nid
        { te_vals = restrict Ord running_vals; te_types = restrict Typ running_tds };
      let tr = Query.fetch a.engine a.types_q it.Node.nid in
      (* Thread the running environment forward. *)
      List.iter (fun (n, ty) -> Hashtbl.replace running_vals n ty) tr.tr_exports;
      List.iter (fun (n, ty) -> Hashtbl.replace running_tds n ty) tr.tr_typedefs;
      (* Aggregate. *)
      let btys = ref tr.tr_bindings in
      Array.iter
        (fun d ->
          if d.sd_export then begin
            let ty =
              match !btys with
              | ty :: rest ->
                  btys := rest;
                  ty
              | [] -> Unknown
            in
            Hashtbl.replace visible (d.sd_name, ns_of_kind d.sd_kind) ();
            rbindings :=
              { b_name = d.sd_name; b_kind = d.sd_kind; b_ty = ty; b_token = abs d.sd_tok }
              :: !rbindings;
            if d.sd_used then
              Hashtbl.replace usedname (d.sd_name, ns_of_kind d.sd_kind) ()
          end)
        s.sm_defs;
      List.iter
        (fun u -> Hashtbl.replace usedname (u.su_name, u.su_ns) ())
        s.sm_uses;
      List.iter
        (fun (tok, code, msg) ->
          rdiags := { d_code = code; d_token = abs tok; d_message = msg } :: !rdiags)
        (s.sm_diags @ tr.tr_diags);
      List.iter (fun (tok, ty) -> rtypes := (abs tok, ty) :: !rtypes) tr.tr_types;
      List.iter
        (fun u -> pending := (u.su_name, u.su_ns, abs u.su_tok) :: !pending)
        r.rv_unresolved)
    summaries;
  (* Unresolved names: declared later somewhere -> used before its
     declaration; never declared -> unbound. *)
  List.iter
    (fun (name, ns, tok) ->
      let d_code, d_message =
        if Hashtbl.mem all_defs (name, ns) then
          ("use-before-decl", Printf.sprintf "%s is used before its declaration" name)
        else ("unbound-name", Printf.sprintf "%s is not defined" name)
      in
      rdiags := { d_code; d_token = tok; d_message } :: !rdiags)
    !pending;
  (* Unused exported bindings: no use anywhere, in any item. *)
  let bindings =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun b ->
        let k = (b.b_name, ns_of_kind b.b_kind) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      (List.rev !rbindings)
  in
  List.iter
    (fun b ->
      if not (Hashtbl.mem usedname (b.b_name, ns_of_kind b.b_kind)) then
        rdiags :=
          {
            d_code = "unused-binding";
            d_token = b.b_token;
            d_message =
              Printf.sprintf "%s %s is never used" (kind_name b.b_kind) b.b_name;
          }
          :: !rdiags)
    bindings;
  ignore (Query.collect a.engine);
  {
    bindings;
    diags =
      List.sort_uniq
        (fun a b ->
          compare (a.d_token, a.d_code, a.d_message) (b.d_token, b.d_code, b.d_message))
        !rdiags;
    types = List.sort compare !rtypes;
    typedefs =
      (match typedefs with
      | Some l -> List.sort_uniq compare l
      | None -> global_typedefs a);
  }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let to_json ~loc r =
  let module J = Metrics.Json in
  [
    ( "diagnostics",
      J.List
        (List.map
           (fun d ->
             let line, col = loc d.d_token in
             J.Obj
               [
                 ("code", J.String d.d_code);
                 ("line", J.Int line);
                 ("col", J.Int col);
                 ("token", J.Int d.d_token);
                 ("message", J.String d.d_message);
               ])
           r.diags) );
    ( "bindings",
      J.List
        (List.map
           (fun b ->
             J.Obj
               [
                 ("name", J.String b.b_name);
                 ("kind", J.String (kind_name b.b_kind));
                 ("type", J.String (ty_name b.b_ty));
               ])
           r.bindings) );
    ("typedefs", J.List (List.map (fun n -> J.String n) r.typedefs));
  ]

(* Deterministic rendering (the oracle's comparison key). *)

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b "((bindings";
  List.iter
    (fun bd ->
      Buffer.add_string b
        (Printf.sprintf " (%s %s %s %d)" bd.b_name (kind_name bd.b_kind)
           (ty_name bd.b_ty) bd.b_token))
    r.bindings;
  Buffer.add_string b ")\n (diags";
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf " (%s %d %S)" d.d_code d.d_token d.d_message))
    r.diags;
  Buffer.add_string b ")\n (types";
  List.iter
    (fun (tok, ty) ->
      Buffer.add_string b (Printf.sprintf " (%d %s)" tok (ty_name ty)))
    r.types;
  Buffer.add_string b ")\n (typedefs";
  List.iter (fun n -> Buffer.add_string b (" " ^ n)) r.typedefs;
  Buffer.add_string b "))";
  Buffer.contents b
