(** Utilities over sequence spines (the builder's [star]/[plus] notation).

    Sequence nonterminals parse as left-recursive spines; tools usually
    want the flat element list (the paper's "abstract" view of associative
    sequences, §3.4).  These helpers flatten and measure spines without
    the caller knowing the desugared productions. *)

(** [elements g node] — the elements of a sequence spine rooted at [node]
    (a node whose symbol is a sequence nonterminal), in source order,
    skipping separators.  For a non-sequence node, the singleton list.
    A choice between spine shapes follows its selected (or first)
    alternative; an element that is itself a choice node is returned as
    is, so an element keeps its identity when a semantic filter flips
    its selection (tools key side tables on elements). *)
val elements : Grammar.Cfg.t -> Node.t -> Node.t list

(** [elements_at g node] — {!elements}, each paired with its token offset
    from the start of [node]: the tokens of every kid before it, spliced
    error nodes and separators included. *)
val elements_at : Grammar.Cfg.t -> Node.t -> (int * Node.t) list

(** [spine_depth g node] — length of the left-recursive spine (the list
    length); the paper's motivation for balancing: access to the i-th
    element costs O(depth - i). *)
val spine_depth : Grammar.Cfg.t -> Node.t -> int

(** [is_element g n] — [n] is an element of a sequence spine: its parent,
    through choice wrappers, is a spine node of a sequence nonterminal
    holding [n] in its element slot.  These are the units error isolation
    masks out (a statement, a declaration). *)
val is_element : Grammar.Cfg.t -> Node.t -> bool

(** [is_interior g n] — [n] is an interior node of a spine: the spine link
    under a longer spine of the same sequence, not the spine's root.
    Checks that visit each spine once run only where this is false. *)
val is_interior : Grammar.Cfg.t -> Node.t -> bool

(** [max_depth node] — structural depth of the whole subtree (via first
    alternatives); the quantity that bounds incremental reparse cost. *)
val max_depth : Node.t -> int
