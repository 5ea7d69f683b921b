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

let elements g node =
  let rec collect (n : Node.t) acc =
    match spine_role g n with
    | None -> n :: acc
    | Some (prod, n) -> (
        match prod.Cfg.role with
        | Cfg.Seq_empty -> acc
        | Cfg.Seq_one -> n.Node.kids.(0) :: acc
        | Cfg.Seq_cons ->
            (* [L -> L elem] or [L -> L sep elem]. *)
            collect n.Node.kids.(0)
              (n.Node.kids.(Array.length n.Node.kids - 1) :: acc)
        | Cfg.Plain ->
            (* A wrapper such as the separated star's [L -> L1]. *)
            if Array.length n.Node.kids = 1 then collect n.Node.kids.(0) acc
            else n :: acc)
  in
  collect node []

let spine_depth g node = List.length (elements g node)

let rec max_depth (n : Node.t) =
  let n = resolve_choice n in
  if Array.length n.Node.kids = 0 then 1
  else 1 + Array.fold_left (fun acc k -> max acc (max_depth k)) 0 n.Node.kids
