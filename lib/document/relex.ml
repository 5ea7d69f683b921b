module Node = Parsedag.Node
module Scanner = Lexgen.Scanner

type result = {
  first : int;
  replaced : int;
  tokens : Scanner.token list;
  trailing : string option;
}

let search (a : int array) ~lo ~hi x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go lo hi

let lookahead (n : Node.t) =
  match n.Node.kind with
  | Node.Term i -> i.Node.lex_la
  | _ -> invalid_arg "Relex: leaf is not a terminal"

let relex ~lexer ~leaves ~starts ~pos ~del ~insert ~new_text =
  let n = Array.length leaves in
  (* First leaf whose examined bytes reach the edit. *)
  let damage_lo =
    let rec find i =
      if i >= n || starts.(i + 1) + lookahead leaves.(i) > pos then i
      else find (i + 1)
    in
    find 0
  in
  let delta = String.length insert - del in
  (* The old token, lying after the edited range, that starts at new-text
     offset [cur]. *)
  let resync cur =
    let old = cur - delta in
    let j = search starts ~lo:damage_lo ~hi:n old in
    if old >= pos + del && j < n && starts.(j) = old then Some j else None
  in
  let rec scan acc cur =
    match resync cur with
    | Some j ->
        {
          first = damage_lo;
          replaced = j - damage_lo;
          tokens = List.rev acc;
          trailing = None;
        }
    | None -> (
        match Scanner.next lexer new_text ~pos:cur with
        | Some (tok, cur') -> scan (tok :: acc) cur'
        | None ->
            (* Only trivia remains: everything to the right of the damage
               is replaced and the document's trailing trivia changes. *)
            {
              first = damage_lo;
              replaced = n - damage_lo;
              tokens = List.rev acc;
              trailing =
                Some (String.sub new_text cur (String.length new_text - cur));
            })
  in
  scan [] starts.(damage_lo)
