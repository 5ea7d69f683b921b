(** Incremental semantic diagnostics: three static analyses layered on
    the {!Query} engine.

    + {e Scope graph construction} — per top-level item (a statement of
      [calc], an external declaration of the C-like subsets), an
      environment-independent summary cell records the bindings the item
      exports, the free names it references, and the diagnostics decidable
      without looking outside the item (a local variable never read, a
      local read before its declaration).
    + {e Name resolution} — a second cell per item resolves the free
      names against an {e environment restriction} input: only the
      visible bindings whose names the item actually mentions.  An edit
      elsewhere that does not change that restricted view leaves the cell
      untouched (early cutoff at the input).
    + {e Type checking} — a third cell per item types expressions against
      the (equally restricted) typing environment, reporting mismatches.
      [calc] follows the paper's toy arithmetic — [/] is true division
      and yields [float], mixing [int] and [float] operands is a
      mismatch; the C subsets type through [typedef]-introduced names
      nominally for display and structurally for checking.

    Created with a {!policy}, the scope walk is also the paper's §4.2
    semantic disambiguation: at each choice node it crosses, the leading
    identifier names a type if a typedef binds it in the item's own
    scopes or in the item's {e typedef view} — an input holding the
    typedef names earlier items export, restricted to the identifiers
    that lead the item's choice regions — and a type selects the
    declaration reading, anything else the expression reading.  Losing
    alternatives are retained, so a later typedef edit can flip the
    decision (§4.2); unresolvable regions keep every interpretation
    (§4.3).  A typedef edit changes the view, and so re-walks, only the
    items with a choice led by that name.

    Aggregation across items (which diagnostics a free name earns, which
    exported bindings are never used anywhere) is plain per-run driver
    code: it is linear in the number of items and never re-walks their
    subtrees — the tree-walking work all lives in cells keyed by the
    item's dag node, so a reparse that rebuilds one statement recomputes
    that statement's cells and validates everything else clean.

    The analyzer is wired to a session from outside this library (the
    layering keeps [semantics] below the parser runtime): subscribe
    {!commit} via [Session.on_commit]. *)

(** Types of the simple checker.  [Named] is the display type of a
    variable declared through a typedef (checking is structural, against
    the resolved underlying type). *)
type ty = Int | Float | Char | Void | Named of string | Unknown

val ty_name : ty -> string

type def_kind = Var | Func | Type | Param

val kind_name : def_kind -> string

(** An exported (top-level) binding, in source order.  [b_token] is the
    absolute token offset of the defining occurrence. *)
type binding = {
  b_name : string;
  b_kind : def_kind;
  b_ty : ty;
  b_token : int;
}

(** One diagnostic.  [d_code] is one of ["unbound-name"],
    ["use-before-decl"], ["unused-binding"], ["type-mismatch"];
    [d_token] the absolute token offset it is anchored to. *)
type diag = { d_code : string; d_token : int; d_message : string }

type result = {
  bindings : binding list;  (** exported bindings, source order *)
  diags : diag list;  (** sorted by token offset, then code *)
  types : (int * ty) list;
      (** computed types of statement expressions and initializers,
          keyed by the expression's first token offset *)
  typedefs : string list;  (** typedef names in force, sorted *)
}

(** §4.2 disambiguation policies. *)
type policy =
  | Namespace_only
      (** C: the identifier's namespace decides; a type name in
          expression position (or vice versa) is a semantic error. *)
  | Prefer_decl
      (** C++: when both interpretations remain plausible (the leading
          identifier names a type), prefer the declaration (§4.1 / ref
          [3]). *)

(** The §4.2 side of a run: [decided], [reinterpreted] and
    [prefer_decl_applied] count this run's work, the rest describe the
    tree. *)
type report = {
  typedefs : int;  (** typedef declarations *)
  choices : int;  (** choice nodes the walk crossed *)
  decided : int;
      (** decisions taken: at new choices, or where the leading name, its
          status or the selection changed since the last decision *)
  reinterpreted : int;  (** decisions that flipped an earlier selection *)
  unresolved : int;  (** choices left with multiple interpretations *)
  prefer_decl_applied : int;  (** C++ rule applications *)
  errors : (string * string) list;
      (** (kind, name): ["unknown-type-name"], ["type-in-expression-position"] *)
}

type t

val supported : Grammar.Cfg.t -> bool
(** The analyses understand the [calc] grammar and the C-like subsets
    (recognised by their nonterminal vocabulary); other languages are
    not supported and [create] refuses them. *)

val create : ?policy:policy -> Grammar.Cfg.t -> t
(** Without [policy] the walks follow the selections they find (first
    alternatives while undecided) and take no decisions.
    @raise Invalid_argument when the grammar is not {!supported}. *)

val engine : t -> Query.t
(** The backing query engine (stats, tests, metrics). *)

val commit : t -> watermark:int -> Parsedag.Node.t -> unit
(** Forward a session commit into the engine: dirty the cells that read
    freshly built subtrees ([Query.commit_tree]).  Subscribe as
    [Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root)]. *)

val touch : t -> Parsedag.Node.t -> unit
(** Dirty cells that read [n]: a choice node whose selection something
    other than this analyzer flipped in place. *)

val on_select : t -> (Parsedag.Node.t -> unit) -> unit
(** Install a hook called with each choice node whose selection one of
    this analyzer's decisions changed (for a second analyzer over the
    same tree, which must {!touch} it). *)

val run : t -> ?typedefs:string list -> Parsedag.Node.t -> result
(** Analyze the committed tree rooted at [root] (pass the session
    root).  Fetches the per-item cells — recomputing only what the
    edits since the last run invalidated — aggregates, and garbage
    collects cells for items no longer in the tree.  The result's
    [typedefs] are the typedef names exported at top level, or
    [typedefs] when given. *)

val decide : t -> Parsedag.Node.t -> report
(** The §4.2 half of {!run} alone: fetch the items' scope cells (taking
    the decisions under a policy) without resolving names or checking
    types, and garbage collect. *)

val report : t -> report
(** The §4.2 report of the last {!run} or {!decide}. *)

val global_typedefs : t -> string list
(** The typedef names exported at top level as of the last {!run} or
    {!decide}, sorted. *)

val to_json : loc:(int -> int * int) -> result -> (string * Metrics.Json.t) list
(** The [diagnostics], [bindings] and [typedefs] fields of the JSON
    report ([iglrc diag --json], the daemon's [diag] response); [loc]
    maps a token offset to its 1-based line and column. *)

val render : result -> string
(** Deterministic s-expression rendering: equal results render equal —
    the differential oracle's comparison key and the CLI's [--sexp]
    output. *)
