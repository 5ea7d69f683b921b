module Cfg = Grammar.Cfg

let resolve_choice (n : Node.t) =
  match n.Node.kind with
  | Node.Choice ci ->
      let pick = if ci.selected >= 0 then ci.selected else 0 in
      n.Node.kids.(pick)
  | _ -> n

let spine_role g (n : Node.t) =
  let n = resolve_choice n in
  match n.Node.kind with
  | Node.Prod p ->
      let prod = Cfg.production g p in
      if Cfg.seq_kind g prod.Cfg.lhs = Cfg.Seq then Some (prod, n) else None
  | _ -> None

let elements_at g node =
  (* [base] is the token offset of [n] from the start of [node]; an
     element's offset counts every kid before it (separators, spliced
     error nodes). *)
  let rec collect (n : Node.t) base acc =
    match spine_role g n with
    | None -> (base, n) :: acc
    | Some (prod, n) -> (
        match prod.Cfg.role with
        | Cfg.Seq_empty -> acc
        | Cfg.Seq_one -> (base, n.Node.kids.(0)) :: acc
        | Cfg.Seq_cons ->
            (* [L -> L elem] or [L -> L sep elem]. *)
            let last = Array.length n.Node.kids - 1 in
            collect n.Node.kids.(0) base
              ((base + Node.tokens_before n last, n.Node.kids.(last)) :: acc)
        | Cfg.Plain ->
            (* A wrapper such as the separated star's [L -> L1]. *)
            if Array.length n.Node.kids = 1 then collect n.Node.kids.(0) base acc
            else (base, n) :: acc)
  in
  collect node 0 []

let elements g node = List.map snd (elements_at g node)

let spine_depth g node = List.length (elements g node)

let rec is_element g (n : Node.t) =
  match n.Node.parent with
  | None -> false
  | Some p -> (
      match p.Node.kind with
      | Node.Choice _ -> is_element g p
      | Node.Prod pr -> (
          let prod = Cfg.production g pr in
          Cfg.seq_kind g prod.Cfg.lhs = Cfg.Seq
          &&
          match prod.Cfg.role with
          | Cfg.Seq_one | Cfg.Seq_cons ->
              (* The element slot is the last kid in every spine pattern. *)
              Array.length p.Node.kids > 0
              && p.Node.kids.(Array.length p.Node.kids - 1) == n
          | Cfg.Seq_empty | Cfg.Plain -> false)
      | _ -> false)

let is_interior g (n : Node.t) =
  match n.Node.parent with
  | Some ({ Node.kind = Node.Prod q; _ } as p) ->
      let prod = Cfg.production g q in
      prod.Cfg.role = Cfg.Seq_cons
      && Cfg.seq_kind g prod.Cfg.lhs = Cfg.Seq
      && Array.length p.Node.kids > 0
      && p.Node.kids.(0) == n
  | _ -> false

let rec max_depth (n : Node.t) =
  let n = resolve_choice n in
  if Array.length n.Node.kids = 0 then 1
  else 1 + Array.fold_left (fun acc k -> max acc (max_depth k)) 0 n.Node.kids
