open Syntax

type key = Syntax.field * Syntax.value

let compare_mods a b =
  let rec go = function
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_key x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

let compare_buckets a b =
  let rec go = function
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_mods x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

let compare_police (a : police) (b : police) =
  let c = Int.compare a.meter_id b.meter_id in
  if c <> 0 then c
  else
    let c = Int.compare a.rate_kbps b.rate_kbps in
    if c <> 0 then c else Int.compare a.burst_kb b.burst_kb

module Act = struct
  type t = {
    mods : (Syntax.field * Syntax.value) list;
    police : Syntax.police option;
    balance : (Syntax.field * Syntax.value) list list option;
  }

  (* Last write per field wins, result sorted by field rank. *)
  let normalize_mods mods =
    let tbl =
      List.fold_left
        (fun acc (f, v) ->
          (f, v) :: List.filter (fun (f', _) -> compare_field f f' <> 0) acc)
        [] mods
    in
    List.sort compare_key tbl

  let find_mod mods f =
    List.find_map
      (fun (f', v) -> if compare_field f f' = 0 then Some v else None)
      mods

  let make ?police ?balance mods =
    (* No discard-erases-rewrites normalisation here: a later composition
       can overwrite [Loc] and resurrect the packet, at which point the
       "unobservable" rewrites are observable after all.  Discard is
       quotiented away only at observation time ([is_plain_disc],
       {!strip_disc}), where the location really is final. *)
    let mods = normalize_mods mods in
    let balance = Option.map (List.map normalize_mods) balance in
    { mods; police; balance }

  let id = { mods = []; police = None; balance = None }
  let is_id a = a.mods = [] && a.police = None && a.balance = None

  (* Rewrites don't matter: with the location finally [Disc] and no
     bucket choice to override it, nothing is emitted, so only a meter
     side effect could distinguish the action from doing nothing. *)
  let is_plain_disc a =
    a.police = None && a.balance = None
    &&
    match find_mod a.mods Loc with Some (At Disc) -> true | _ -> false

  let loc a =
    match find_mod a.mods Loc with Some (At l) -> Some l | _ -> None

  let compare a b =
    let c = compare_mods a.mods b.mods in
    if c <> 0 then c
    else
      let c = Option.compare compare_police a.police b.police in
      if c <> 0 then c
      else Option.compare compare_buckets a.balance b.balance

  let equal a b = compare a b = 0

  let pp ppf a =
    if is_id a then Format.pp_print_string ppf "id"
    else begin
      let sep = ref false in
      let item f =
        if !sep then Format.pp_print_string ppf "; ";
        sep := true;
        f ()
      in
      List.iter
        (fun (f, v) ->
          item (fun () ->
              Format.fprintf ppf "%s:=%a" (field_name f) pp_value v))
        a.mods;
      Option.iter
        (fun p ->
          item (fun () ->
              Format.fprintf ppf "police(meter:%d %dkbps burst:%dkb)"
                p.meter_id p.rate_kbps p.burst_kb))
        a.police;
      Option.iter
        (fun buckets ->
          item (fun () ->
              Format.fprintf ppf "balance{%a}"
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
                   (fun ppf mods ->
                     if mods = [] then Format.pp_print_string ppf "id"
                     else pp_mods ppf mods))
                buckets))
        a.balance
    end

  let to_string a = Format.asprintf "%a" pp a

  (* [compose a b] is "do [a], then [b]".  The caller guarantees
     [a.balance = None] (tests and further policy after a balance are
     rejected in [seq_act]). *)
  let compose a b =
    assert (a.balance = None);
    let police =
      match (a.police, b.police) with
      | Some _, Some _ ->
          invalid_arg "Policy.Fdd: two meters in sequence on one path"
      | Some p, None | None, Some p -> Some p
      | None, None -> None
    in
    make ?police ?balance:b.balance (a.mods @ b.mods)
end

type t = { uid : int; node : node }
and node = Leaf of Act.t list | Branch of key * t * t

let equal a b = a.uid = b.uid

(* Hash-consing tables, keyed structurally: a leaf on its sorted action
   list, a branch on its test and the uids of its children.  Every
   component is plain data (ints, strings, int32s), so the polymorphic
   hash agrees with [Act.equal]/[compare_key] and nothing is rendered. *)
module Leaf_tbl = Hashtbl.Make (struct
  type t = Act.t list

  let equal = List.equal Act.equal
  let hash = Hashtbl.hash
end)

module Branch_tbl = Hashtbl.Make (struct
  type t = key * int * int

  let equal (k1, h1, l1) (k2, h2, l2) =
    h1 = h2 && l1 = l2 && compare_key k1 k2 = 0

  let hash (k, h, l) = Hashtbl.hash (Hashtbl.hash k, h, l)
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = Hashtbl.hash (a, b)
end)

module Uid_tbl = Hashtbl.Make (Int)

type ctx = {
  mutable next_uid : int;
  leaf_tbl : t Leaf_tbl.t;
  branch_tbl : t Branch_tbl.t;
  sum_memo : t Pair_tbl.t;
  prod_memo : t Pair_tbl.t;
  ors_memo : t Pair_tbl.t;
  seq_memo : t Pair_tbl.t;
  negate_memo : t Uid_tbl.t;
  drop : t;
  id : t;
}

let context () =
  let leaf_tbl = Leaf_tbl.create 256 in
  let drop = { uid = 0; node = Leaf [] } in
  let id = { uid = 1; node = Leaf [ Act.id ] } in
  Leaf_tbl.add leaf_tbl [] drop;
  Leaf_tbl.add leaf_tbl [ Act.id ] id;
  {
    next_uid = 2;
    leaf_tbl;
    branch_tbl = Branch_tbl.create 512;
    sum_memo = Pair_tbl.create 512;
    prod_memo = Pair_tbl.create 512;
    ors_memo = Pair_tbl.create 64;
    seq_memo = Pair_tbl.create 256;
    negate_memo = Uid_tbl.create 128;
    drop;
    id;
  }

let fresh c node =
  let t = { uid = c.next_uid; node } in
  c.next_uid <- c.next_uid + 1;
  t

let drop c = c.drop
let id c = c.id

let leaf c acts =
  (* Only the order/duplicate quotient here — notably discard actions are
     NOT dropped next to others: a later [seq] can still test or
     overwrite a discarded state's fields, so that quotient is deferred
     to {!strip_disc} where the actions really are final. *)
  let acts = List.sort_uniq Act.compare acts in
  match Leaf_tbl.find_opt c.leaf_tbl acts with
  | Some t -> t
  | None ->
      let t = fresh c (Leaf acts) in
      Leaf_tbl.add c.leaf_tbl acts t;
      t

(* Restrict [d] to packets satisfying [key]: prunes re-tests of the same
   field with a different value (which the key makes statically false).
   Sound because keys strictly increase along paths, so any same-field
   test below [key] carries a different value. *)
let rec assume ((f, _) as key) d =
  match d.node with
  | Leaf _ -> d
  | Branch ((f', _), _, lo) ->
      if compare_field f f' = 0 then assume key lo else d

(* The reductions giving a unique normal form for a field with more than
   two candidate values (a chain of [(f, v1)], [(f, v2)], ... tests down
   the [lo] edges, like a [case] with a default arm): a test is redundant
   exactly when its [hi] equals what a packet satisfying the test would
   reach by falling through the rest of its field's chain — [assume key
   lo].  For a [lo] not re-testing the field this degenerates to the
   familiar BDD [hi == lo] collapse.  No context-sensitive rewrite beyond
   this (such as eliminating a modification [f := v] under the test
   [(f, v)]) is applied: a rewrite that fires only where a test node
   happens to sit above a leaf makes the normal form depend on
   construction order, breaking the structural algebraic laws.  The
   redundant write is semantically harmless — rewriting a field to the
   value it already holds changes no packet. *)
let branch c key hi lo =
  if hi == assume key lo then lo
  else
    let k = (key, hi.uid, lo.uid) in
    match Branch_tbl.find_opt c.branch_tbl k with
    | Some t -> t
    | None ->
        let t = fresh c (Branch (key, hi, lo)) in
        Branch_tbl.add c.branch_tbl k t;
        t

let atom c key = branch c key c.id c.drop
let natom c key = branch c key c.drop c.id

(* Generic ordered merge: pairs the leaves reached by the same packet in
   both diagrams and combines them with [op].  [unit] answers the pairs
   whose result is one of the operands outright (a merge with {!drop} or
   {!id}); walking them would rebuild that operand node by node. *)
let merge c tbl unit op =
  let rec go d1 d2 =
    match unit d1 d2 with
    | Some r -> r
    | None -> (
        let k = (d1.uid, d2.uid) in
        match Pair_tbl.find_opt tbl k with
        | Some r -> r
        | None ->
            let r =
              match (d1.node, d2.node) with
              | Leaf a, Leaf b -> leaf c (op a b)
              | Leaf _, Branch (key, hi, lo) ->
                  branch c key (go d1 hi) (go d1 lo)
              | Branch (key, hi, lo), Leaf _ ->
                  branch c key (go hi d2) (go lo d2)
              | Branch (k1, h1, l1), Branch (k2, h2, l2) ->
                  let cmp = compare_key k1 k2 in
                  if cmp = 0 then branch c k1 (go h1 h2) (go l1 l2)
                  else if cmp < 0 then
                    branch c k1 (go h1 (assume k1 d2)) (go l1 d2)
                  else branch c k2 (go (assume k2 d1) h2) (go d1 l2)
            in
            Pair_tbl.add tbl k r;
            r)
  in
  go

(* [drop] is the unit of union and of fallback on either side. *)
let drop_unit c d1 d2 =
  if d1 == c.drop then Some d2 else if d2 == c.drop then Some d1 else None

let sum c = merge c c.sum_memo (drop_unit c) (fun a b -> a @ b)

let as_guard name a k =
  match a with
  | [] -> []
  | [ x ] when Act.is_id x -> k ()
  | _ -> invalid_arg ("Policy.Fdd: " ^ name ^ " guard is not a predicate")

(* Only the guard side short-cuts, so a non-predicate guard still raises. *)
let prod c =
  merge c c.prod_memo
    (fun d1 d2 ->
      if d1 == c.drop then Some c.drop else if d1 == c.id then Some d2 else None)
    (fun a b -> as_guard "prod" a (fun () -> b))

let ors c = merge c c.ors_memo (drop_unit c) (fun a b -> if a = [] then b else a)

let negate c =
  let rec go d =
    match Uid_tbl.find_opt c.negate_memo d.uid with
    | Some r -> r
    | None ->
        let r =
          match d.node with
          | Leaf [] -> c.id
          | Leaf [ a ] when Act.is_id a -> c.drop
          | Leaf _ -> invalid_arg "Policy.Fdd: negation of a non-predicate"
          | Branch (key, hi, lo) -> branch c key (go hi) (go lo)
        in
        Uid_tbl.add c.negate_memo d.uid r;
        r
  in
  go

(* [cond key hi lo]: branch on [key] without assuming [hi]/[lo] respect the
   key order — the ordered merges in [prod]/[sum] restore the invariant. *)
let cond c key hi lo =
  sum c (prod c (atom c key) hi) (prod c (natom c key) lo)

let seq c =
  let rec seq d1 d2 =
    let k = (d1.uid, d2.uid) in
    match Pair_tbl.find_opt c.seq_memo k with
    | Some r -> r
    | None ->
        let r =
          match d1.node with
          | Leaf acts ->
              List.fold_left (fun acc a -> sum c acc (seq_act a d2)) c.drop acts
          | Branch (key, hi, lo) -> cond c key (seq hi d2) (seq lo d2)
        in
        Pair_tbl.add c.seq_memo k r;
        r
  and seq_act (a : Act.t) d2 =
    match a.balance with
    | Some _ -> (
        (* After a hash-based bucket choice the residual policy must be the
           identity (or drop): the compiled select group is terminal. *)
        match d2.node with
        | Leaf [] -> c.drop
        | Leaf [ x ] when Act.is_id x -> leaf c [ a ]
        | _ -> invalid_arg "Policy.Fdd: tests or writes after balance")
    | None -> (
        match d2.node with
        | Leaf acts2 -> leaf c (List.map (Act.compose a) acts2)
        | Branch (((f, v) as key), hi, lo) -> (
            match Act.find_mod a.mods f with
            | Some v' ->
                if equal_value v' v then seq_act a hi else seq_act a lo
            | None -> cond c key (seq_act a hi) (seq_act a lo)))
  in
  seq

let of_pred c p =
  let rec go = function
    | True -> c.id
    | False -> c.drop
    | Test (f, v) -> atom c (f, v)
    | And (a, b) -> prod c (go a) (go b)
    | Or (a, b) -> sum c (go a) (go b)
    | Not a -> negate c (go a)
  in
  go p

let of_policy c pol =
  Syntax.check pol;
  let rec go = function
    | Filter p -> of_pred c p
    | Mod (f, v) -> leaf c [ Act.make [ (f, v) ] ]
    | Union (a, b) -> sum c (go a) (go b)
    | Seq (a, b) -> seq c (go a) (go b)
    | Orelse (a, b) -> ors c (go a) (go b)
    | Police p -> leaf c [ Act.make ~police:p [] ]
    | Balance buckets -> leaf c [ Act.make ~balance:buckets [] ]
  in
  go pol

let eval env d =
  let rec go d =
    match d.node with
    | Leaf acts -> acts
    | Branch ((f, v), hi, lo) -> (
        match env f with
        | Some v' when equal_value v v' -> go hi
        | _ -> go lo)
  in
  go d

let strip_disc c d =
  let memo = Uid_tbl.create 64 in
  let rec go d =
    match Uid_tbl.find_opt memo d.uid with
    | Some r -> r
    | None ->
        let r =
          match d.node with
          | Leaf acts ->
              leaf c (List.filter (fun a -> not (Act.is_plain_disc a)) acts)
          | Branch (key, hi, lo) -> branch c key (go hi) (go lo)
        in
        Uid_tbl.add memo d.uid r;
        r
  in
  go d

let size d =
  let seen = Hashtbl.create 64 in
  let rec go d =
    if not (Hashtbl.mem seen d.uid) then begin
      Hashtbl.add seen d.uid ();
      match d.node with
      | Leaf _ -> ()
      | Branch (_, hi, lo) ->
          go hi;
          go lo
    end
  in
  go d;
  Hashtbl.length seen

let leaves d =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec go d =
    if not (Hashtbl.mem seen d.uid) then begin
      Hashtbl.add seen d.uid ();
      match d.node with
      | Leaf acts -> out := acts :: !out
      | Branch (_, hi, lo) ->
          go hi;
          go lo
    end
  in
  go d;
  List.rev !out

let rec pp ppf d =
  match d.node with
  | Leaf [] -> Format.pp_print_string ppf "drop"
  | Leaf acts ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " , ")
           Act.pp)
        acts
  | Branch ((f, v), hi, lo) ->
      Format.fprintf ppf "(%s=%a ? %a : %a)" (field_name f) pp_value v pp hi
        pp lo

let to_string d = Format.asprintf "%a" pp d
