(** Input-stream traversal over the previous version of the tree: the
    cursor every incremental parser drives its input stream through
    (Appendix A's [pop_lookahead] is {!advance}, [left_breakdown] is
    {!descend}).

    During a reparse the old tree stays intact; the parser's input stream
    is produced by walking it left to right.  Alternatives of a choice
    node are not siblings of each other — the traversal descends into the
    first alternative and climbs {e past} the choice node, so each
    ambiguous region contributes its terminal yield exactly once.

    Parent-pointer navigation would cost a linear scan of the parent's
    child array per step, which is quadratic over a freshly lexed
    document (the root holds every token).  A cursor materializes the
    path from the root to the current input subtree with explicit child
    indices, making [advance] amortized O(1) and [descend] O(1). *)

type cursor

(** [cursor_at root] — positioned on the first subtree after [bos].
    The previous-version structure must not be spliced while a cursor is
    live. *)
val cursor_at : Node.t -> cursor

(** Current input subtree (the [Eos] sentinel at end). *)
val current : cursor -> Node.t

(** Move past the current subtree: to its right sibling, or the nearest
    ancestor's right sibling (Appendix A's [pop_lookahead]). *)
val advance : cursor -> unit

(** Replace the current subtree by its first child (first alternative of
    a choice); a node with no children is skipped (Appendix A's
    [left_breakdown]). *)
val descend : cursor -> unit

(** Leftmost terminal at or after the cursor, without moving it. *)
val peek_terminal : cursor -> Node.t
