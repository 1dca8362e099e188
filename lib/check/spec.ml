(* The kernel-spec shorthands (v, c, +!, a1/a2, loop, stmt) are the same
   vocabulary the hand-written paper kernels use; the generator builds its
   random programs out of them. *)
open Iolb_kernels.Shorthand
module Json = Iolb_util.Json

type nest = {
  depth : int;
  sizes : int list;
  triangular : bool list;
  param_n : int option;
  n_stmts : int;
  write_arity : int;
  read_shifts : int list;
  self_read : bool;
  consumer : bool;
  shallow : bool;
}

type hourglass = {
  m : int;
  temporal_trip : int;
  neutral : bool;
  neutral_trip : int;
  triangular : bool;
  q_read : bool;
  flat_reads : int;
  init_stmt : bool;
}

type t = Nest of nest | Hourglass of hourglass

let b2i b = if b then 1 else 0

let size = function
  | Nest n ->
      n.depth
      + List.fold_left ( + ) 0 n.sizes
      + (match n.param_n with None -> 0 | Some v -> v + 1)
      + n.n_stmts + n.write_arity + List.length n.read_shifts
      + List.fold_left (fun acc s -> acc + abs s) 0 n.read_shifts
      + List.fold_left (fun acc t -> acc + b2i t) 0 n.triangular
      + b2i n.self_read + b2i n.consumer + b2i n.shallow
  | Hourglass h ->
      h.m + h.temporal_trip
      + (if h.neutral then h.neutral_trip + 1 else 0)
      + b2i h.triangular + b2i h.q_read + h.flat_reads + b2i h.init_stmt

let clamp lo hi v = max lo (min hi v)

(* [take n xs padded with d]: lists in specs always have length [depth]. *)
let take n d xs =
  List.init n (fun i -> match List.nth_opt xs i with Some x -> x | None -> d)

let normalize = function
  | Nest n ->
      let depth = clamp 1 4 n.depth in
      let sizes = take depth 2 n.sizes |> List.map (clamp 1 5) in
      let triangular =
        match take depth false n.triangular with
        | [] -> []
        | _ :: tl -> false :: tl (* the outermost level has no predecessor *)
      in
      Nest
        {
          depth;
          sizes;
          triangular;
          param_n = Option.map (clamp 1 4) n.param_n;
          n_stmts = clamp 1 3 n.n_stmts;
          write_arity = clamp 1 (min 2 depth) n.write_arity;
          read_shifts =
            take (clamp 0 3 (List.length n.read_shifts)) 0 n.read_shifts
            |> List.map (clamp (-2) 2);
          self_read = n.self_read;
          consumer = n.consumer;
          shallow = n.shallow;
        }
  | Hourglass h ->
      Hourglass
        {
          m = clamp 2 8 h.m;
          temporal_trip = clamp 2 4 h.temporal_trip;
          neutral = h.neutral;
          neutral_trip = clamp 1 4 h.neutral_trip;
          triangular = h.triangular && h.neutral;
          q_read = h.q_read;
          flat_reads = clamp 0 2 h.flat_reads;
          init_stmt = h.init_stmt;
        }

(* ------------------------------------------------------------------ *)
(* Nest family.                                                        *)

let dim i = Printf.sprintf "d%d" i

let build_nest n =
  let dims = List.init n.depth dim in
  (* Per-level inclusive (lo, hi) bounds.  A triangular level starts at the
     previous level's variable; its upper bound is the previous level's
     running maximum plus its own size, so every trip count stays
     non-negative across the enclosing domain (a [Program.cardinal]
     requirement) even under a symbolic outermost bound. *)
  let bounds =
    let rec go i max_prev =
      if i = n.depth then []
      else
        let sz = List.nth n.sizes i in
        let tri = i > 0 && List.nth n.triangular i in
        let lo = if tri then v (dim (i - 1)) else c 0 in
        let hi =
          if i = 0 then
            match n.param_n with
            | Some _ -> v "N" -! c 1
            | None -> c (sz - 1)
          else if tri then max_prev +! c (sz - 1)
          else c (sz - 1)
        in
        (lo, hi) :: go (i + 1) hi
    in
    go 0 (c 0)
  in
  let write_dims = List.filteri (fun i _ -> i < n.write_arity) dims in
  let arr k = Printf.sprintf "A%d" k in
  let write k = Access.make (arr k) (List.map v write_dims) in
  let innermost = dim (n.depth - 1) in
  let x_reads =
    List.map
      (fun shift -> a1 "X" (v innermost +! c shift))
      n.read_shifts
  in
  let stmts =
    List.init n.n_stmts (fun k ->
        let w = write k in
        let reads =
          (if n.self_read then [ w ] else [])
          @ (if k = 0 then x_reads else [ write (k - 1) ])
        in
        stmt (Printf.sprintf "S%d" k) ~writes:[ w ] ~reads)
  in
  let consumer =
    if n.consumer then
      [
        stmt "C"
          ~writes:[ Access.make "B" (List.map v write_dims) ]
          ~reads:[ write (n.n_stmts - 1) ];
      ]
    else []
  in
  let shallow =
    if n.shallow then
      [
        stmt "H"
          ~writes:[ a1 "D" (v (dim 0)) ]
          ~reads:[ a1 "Y" (v (dim 0)) ];
      ]
    else []
  in
  let rec nest i =
    if i = n.depth then stmts @ consumer
    else
      let lo, hi = List.nth bounds i in
      let below = nest (i + 1) in
      let body = if i = 0 then below @ shallow else below in
      [ loop (dim i) lo hi body ]
  in
  let params, assumptions, verify =
    match n.param_n with
    | Some value ->
        ([ "N" ], [ Constr.ge_of (v "N") (c 1) ], [ ("N", value) ])
    | None -> ([], [], [])
  in
  (Program.make ~name:"check_nest" ~params ~assumptions (nest 0), verify)

(* ------------------------------------------------------------------ *)
(* Hourglass family: an MGS/A2V-column-shaped reduction-then-broadcast
   chain.  [SR] reduces the array [A] (over the parametric dimension [i])
   into [R]; [SU] broadcasts [R] back into every [A[i]], so consecutive
   temporal iterations are linked through full reduction lines of width
   [M] - precisely the pattern of Section 3 of the paper. *)

let build_hourglass h =
  let idx_r = if h.neutral then [ v "k"; v "j" ] else [ v "k" ] in
  let idx_a = if h.neutral then [ v "i"; v "j" ] else [ v "i" ] in
  let r = Access.make "R" idx_r in
  let a = Access.make "A" idx_a in
  let q = a2 "Q" (v "i") (v "k") in
  let flats =
    List.init h.flat_reads (fun k ->
        if k = 0 then a1 "X0" (v "i")
        else a1 "X1" (if h.neutral then v "j" else v "k"))
  in
  let sr_reads = (r :: a :: (if h.q_read then [ q ] else [])) @ flats in
  let su_reads = a :: r :: (if h.q_read then [ q ] else []) in
  let chain =
    (if h.init_stmt then [ stmt "S0" ~writes:[ r ] ~reads:[] ]
     else [])
    @ [
        loop_lt "i" (c 0) (v "M")
          [ stmt "SR" ~writes:[ r ] ~reads:sr_reads ];
        loop_lt "i" (c 0) (v "M")
          [ stmt "SU" ~writes:[ a ] ~reads:su_reads ];
      ]
  in
  let body =
    if h.neutral then
      let lo = if h.triangular then v "k" +! c 1 else c 0 in
      let hi =
        if h.triangular then c (h.temporal_trip + h.neutral_trip - 1)
        else c (h.neutral_trip - 1)
      in
      [
        loop_lt "k" (c 0)
          (c h.temporal_trip)
          [ loop "j" lo hi chain ];
      ]
    else [ loop_lt "k" (c 0) (c h.temporal_trip) chain ]
  in
  ( Program.make ~name:"check_hourglass" ~params:[ "M" ]
      ~assumptions:[ Constr.ge_of (v "M") (c 2) ]
      body,
    [ ("M", h.m) ] )

let to_program spec =
  match normalize spec with
  | Nest n -> build_nest n
  | Hourglass h -> build_hourglass h

(* ------------------------------------------------------------------ *)
(* Serialisation (failure artifacts, counterexample printing).         *)

let to_json spec =
  match normalize spec with
  | Nest n ->
      Json.Obj
        [
          ("family", Json.String "nest");
          ("depth", Json.Int n.depth);
          ("sizes", Json.List (List.map (fun s -> Json.Int s) n.sizes));
          ( "triangular",
            Json.List (List.map (fun b -> Json.Bool b) n.triangular) );
          ( "param_n",
            match n.param_n with None -> Json.Null | Some v -> Json.Int v );
          ("n_stmts", Json.Int n.n_stmts);
          ("write_arity", Json.Int n.write_arity);
          ( "read_shifts",
            Json.List (List.map (fun s -> Json.Int s) n.read_shifts) );
          ("self_read", Json.Bool n.self_read);
          ("consumer", Json.Bool n.consumer);
          ("shallow", Json.Bool n.shallow);
        ]
  | Hourglass h ->
      Json.Obj
        [
          ("family", Json.String "hourglass");
          ("m", Json.Int h.m);
          ("temporal_trip", Json.Int h.temporal_trip);
          ("neutral", Json.Bool h.neutral);
          ("neutral_trip", Json.Int h.neutral_trip);
          ("triangular", Json.Bool h.triangular);
          ("q_read", Json.Bool h.q_read);
          ("flat_reads", Json.Int h.flat_reads);
          ("init_stmt", Json.Bool h.init_stmt);
        ]

let to_string spec = Json.to_string (to_json spec)
let equal (a : t) (b : t) = normalize a = normalize b
