(** Semantic disambiguation of the C-like subsets (§4.2 of the paper).

    A facade over {!Diag}: an analyzer created with a policy, whose scope
    walk decides each choice node from the binding contour in force there
    and retains the unselected alternatives (§4.2's typedef-removal
    scenario; unresolvable regions keep all interpretations, §4.3).
    Re-runs are incremental: only items that are new or whose typedef
    view changed are re-walked, and only the choices in them whose
    leading identifier's typedef status changed are re-decided.
    [Diag.create ~policy] takes the same decisions and also produces the
    diagnostics, from one analyzer. *)

type policy = Diag.policy = Namespace_only | Prefer_decl

(** See {!Diag.report}. *)
type report = Diag.report = {
  typedefs : int;
  choices : int;
  decided : int;
  reinterpreted : int;
  unresolved : int;
  prefer_decl_applied : int;
  errors : (string * string) list;
}

type t
(** Analyzer with memoized decisions; reuse across runs on the same
    document for incremental behaviour. *)

val create : ?policy:policy -> Grammar.Cfg.t -> t
(** [policy] defaults to [Namespace_only].
    @raise Invalid_argument when the grammar is not [Diag.supported]. *)

val analyze : t -> Parsedag.Node.t -> report
(** Decide the tree's choices ({!Diag.decide}). *)

val engine : t -> Query.t
(** The query engine backing the decisions (stats, tests). *)

val on_select : t -> (Parsedag.Node.t -> unit) -> unit
(** {!Diag.on_select}: for a second analyzer over the same tree. *)

(** The selected interpretation of a disambiguated choice node ([None]
    while unresolved).  After selection, tools can treat choice nodes as
    transparent: [chosen] is the embedded-tree view of §4.2(d). *)
val chosen : Parsedag.Node.t -> Parsedag.Node.t option

(** Typedef names visible at top level after the last run. *)
val global_typedefs : t -> string list
