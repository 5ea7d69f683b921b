(** Incremental relexing.

    Given the old token sequence (the tree's terminal leaves), their byte
    offsets, and one textual edit, computes the minimal damaged token
    range and the replacement tokens, resynchronizing with the old stream
    at the first clean boundary past the edit.

    A token is damaged when the bytes it {e examined} — its trivia, its
    lexeme, and its recorded lookahead — intersect the edit.  Resynchron-
    ization happens at a new-text offset that coincides with the start
    boundary of an old token lying entirely after the edited region; lexing
    is boundary-deterministic (no cross-token scanner state), so the rest
    of the old stream is guaranteed to reproduce and can be reused. *)

type result = {
  first : int;  (** index of the first replaced leaf *)
  replaced : int;  (** how many old leaves are replaced *)
  tokens : Lexgen.Scanner.token list;  (** replacement tokens *)
  trailing : string option;
      (** new trailing trivia when the edit ran to end of text *)
}

(** [starts] is the document's position map over [leaves]: the byte
    offset of each leaf's leading trivia, then the end of the last token.
    The resynchronisation point is a binary search in it.
    @raise Lexgen.Scanner.Lex_error when the new text is unscannable and
    the spec has no catch-all rule. *)
val relex :
  lexer:Lexgen.Spec.t ->
  leaves:Parsedag.Node.t array ->
  starts:int array ->
  pos:int ->
  del:int ->
  insert:string ->
  new_text:string ->
  result

(** [search a ~lo ~hi x] — the first index in [\[lo, hi)] of the sorted
    array [a] holding a value [>= x], or [hi]. *)
val search : int array -> lo:int -> hi:int -> int -> int
