(* Compiled trace production over a flat integer address space.

   [Program.iter_accesses] is the reference semantics: every emitted
   access materializes an index vector and the consumer pays a hash
   (interning) to identify the cell.  At the exact-sweep production rates
   the empirical pipeline targets, that hash dominates.

   A [Cplan.t] removes both costs.  At plan-build time every array gets a
   rectangular hull - per-dimension inclusive bounds that contain every
   index the program can touch, obtained by interval arithmetic over the
   loop nest - and the hulls are laid out back to back in one flat
   row-major address space.  Each access site's index expressions then
   compose with the layout into a single affine form over the loop
   variables, so producing an access is one flat-integer evaluation and
   its cell identity is an [int] already dense enough to index arrays
   with: consumers replace interner hashing by an [addr -> id] table.
   Along an innermost loop the address form moves by a constant, so the
   hot path emits an access with one addition.

   Hulls are keyed by (array, rank): an array name used at two ranks
   names two disjoint cell sets, exactly as the interner keys them.
   Interval bounds, hull volumes and the layout are computed with checked
   arithmetic, so a hull that would leave 63-bit integers is rejected at
   plan time (callers fall back to the interpreter) instead of wrapping
   into a small address space that emits out-of-range addresses.  The
   composed address forms themselves may wrap harmlessly: every address
   the plan emits lies in [0, addr_space), and integer arithmetic modulo
   2^63 computes it exactly.

   Addresses are injective on cells by construction (distinct hulls get
   disjoint ranges; within a hull the row-major map is injective), and
   [decode] inverts them, so a consumer that needs the symbolic cell -
   say, to intern a first occurrence - pays the decode only once per
   distinct cell, never per access.

   The plan keeps every site's array name and index forms too, for the
   sampled scan: the spatial hash is linear in the index vector before
   its final mix, so per call it composes into one affine form per site
   and, along an innermost loop, steps by a per-site constant.

   A plan is immutable; [iter] and [iter_sampled] keep all mutable state
   (environment, per-site cursors) in per-call buffers, so one plan can
   drive several domains concurrently. *)

module Affine = Iolb_poly.Affine
module Rat = Iolb_util.Rat

exception Past_range

type caff = { cconst : int; ccoefs : int array; cslots : int array }

let ceval env a =
  let acc = ref a.cconst in
  for k = 0 to Array.length a.cslots - 1 do
    acc :=
      !acc
      + Array.unsafe_get a.ccoefs k
        * Array.unsafe_get env (Array.unsafe_get a.cslots k)
  done;
  !acc

(* [combine nslots c0 w idx] is the affine form [c0 + sum_d w.(d) *
   idx.(d)] over [nslots] slots: a site's address (row-major strides) or
   the linear part of its cell hash (per-dimension multipliers). *)
let combine nslots c0 w idx =
  let acc = Array.make nslots 0 in
  let const = ref c0 in
  Array.iteri
    (fun d e ->
      const := !const + (w.(d) * e.cconst);
      Array.iteri
        (fun k s -> acc.(s) <- acc.(s) + (w.(d) * e.ccoefs.(k)))
        e.cslots)
    idx;
  let terms = ref [] in
  for s = nslots - 1 downto 0 do
    if acc.(s) <> 0 then terms := (acc.(s), s) :: !terms
  done;
  {
    cconst = !const;
    ccoefs = Array.of_list (List.map fst !terms);
    cslots = Array.of_list (List.map snd !terms);
  }

let coeff_of slot a =
  let c = ref 0 in
  Array.iteri (fun k s -> if s = slot then c := !c + a.ccoefs.(k)) a.cslots;
  !c

type cnode =
  | Cstmt of { sa : caff array; sw : bool array; s0 : int }
      (* reads then writes, in [Program.iter_accesses] emission order;
         site [i] is [sites.(s0 + i)] of the plan *)
  | Cloop of {
      slot : int;
      lo : caff;
      hi : caff;
      rev : bool;
      body : cnode array;
      collapse : bool;
          (* the body's access count does not depend on [slot]: skipping
             the whole loop costs one multiplication *)
    }
  | Cinner of {
      islot : int;
      ilo : caff;
      ihi : caff;
      irev : bool;
      ia : caff array; (* per-site composed address form *)
      iw : bool array; (* per-site write flag *)
      idelta : int array; (* per-site address step when the var steps +1 *)
      i0 : int; (* site [i] is [sites.(i0 + i)] of the plan *)
    }
      (* an innermost loop whose body is one statement: the per-iteration
         site addresses advance by constants *)

type t = {
  body : cnode array;
  nslots : int;
  pinits : (int * int) list;
  sites : (string * caff array) array; (* per site: array, index forms *)
  total : int; (* n_accesses at the plan's parameters *)
  addr_space : int;
  d_names : string array;
  d_base : int array; (* length nhulls + 1; last entry = addr_space *)
  d_lo : int array array;
  d_stride : int array array;
}

let n_accesses t = t.total
let addr_space t = t.addr_space

(* Access count of a subtree at the current [env], by the rectangular
   collapse of [Program.n_accesses]. *)
let rec count env = function
  | Cstmt { sa; _ } -> Array.length sa
  | Cinner c ->
      let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
      if hi_v < lo_v then 0 else (hi_v - lo_v + 1) * Array.length c.ia
  | Cloop l ->
      let lo_v = ceval env l.lo and hi_v = ceval env l.hi in
      if hi_v < lo_v then 0
      else if l.collapse then begin
        env.(l.slot) <- lo_v;
        (hi_v - lo_v + 1)
        * Array.fold_left (fun a c -> a + count env c) 0 l.body
      end
      else begin
        let total = ref 0 in
        for v = lo_v to hi_v do
          env.(l.slot) <- v;
          Array.iter (fun c -> total := !total + count env c) l.body
        done;
        !total
      end

(* --------------------------------------------------------------------- *)
(* Compilation.                                                           *)

type hull = {
  h_name : string;
  h_order : int; (* first-appearance rank: the hull's place in the layout *)
  h_lo : int array;
  h_hi : int array;
}

(* Intermediate tree: like the compiled form of [Program], with per-site
   index forms still separate (the address layout is not known until the
   whole tree has been hulled). *)
type pre =
  | Pstmt of (hull * caff array * bool) array
  | Ploop of {
      pslot : int;
      plo : caff;
      phi : caff;
      prev : bool;
      pbody : pre array;
    }

let compile ~params (p : Program.t) =
  let nslots = ref 0 in
  let scope = ref [] in
  let ivlo = ref (Array.make 16 0) and ivhi = ref (Array.make 16 0) in
  let fresh v lo hi =
    let s = !nslots in
    incr nslots;
    scope := (v, s) :: !scope;
    if s >= Array.length !ivlo then begin
      let grow a =
        let n = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 n 0 (Array.length a);
        n
      in
      ivlo := grow !ivlo;
      ivhi := grow !ivhi
    end;
    !ivlo.(s) <- lo;
    !ivhi.(s) <- hi;
    s
  in
  let slot_of x =
    match List.assoc_opt x !scope with Some s -> s | None -> raise Not_found
  in
  let caffine e =
    let ts = Affine.terms e in
    {
      cconst = Affine.constant e;
      ccoefs = Array.of_list (List.map fst ts);
      cslots = Array.of_list (List.map (fun (_, x) -> slot_of x) ts);
    }
  in
  (* Interval of an affine form over the current per-slot intervals. *)
  let interval a =
    let mn = ref a.cconst and mx = ref a.cconst in
    for k = 0 to Array.length a.cslots - 1 do
      let c = a.ccoefs.(k) and s = a.cslots.(k) in
      let at_lo = Rat.mul_exn c !ivlo.(s) and at_hi = Rat.mul_exn c !ivhi.(s) in
      mn := Rat.add_exn !mn (min at_lo at_hi);
      mx := Rat.add_exn !mx (max at_lo at_hi)
    done;
    (!mn, !mx)
  in
  let hulls : (string * int, hull) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let psite is_write (a : Access.t) =
    let idx = Array.of_list (List.map caffine a.index) in
    let nd = Array.length idx in
    let h =
      match Hashtbl.find_opt hulls (a.array, nd) with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = a.array;
              h_order = Hashtbl.length hulls;
              h_lo = Array.make nd max_int;
              h_hi = Array.make nd min_int;
            }
          in
          Hashtbl.add hulls (a.array, nd) h;
          order := h :: !order;
          h
    in
    Array.iteri
      (fun d e ->
        let mn, mx = interval e in
        if mn < h.h_lo.(d) then h.h_lo.(d) <- mn;
        if mx > h.h_hi.(d) then h.h_hi.(d) <- mx)
      idx;
    (h, idx, is_write)
  in
  let pinits = List.map (fun (x, v) -> (fresh x v v, v)) params in
  let rec pre = function
    | Program.Stmt s ->
        Pstmt
          (Array.of_list
             (List.map (psite false) s.reads @ List.map (psite true) s.writes))
    | Program.Loop { var; lo; hi; rev; body } ->
        let plo = caffine lo and phi = caffine hi in
        let lo_mn, _ = interval plo and _, hi_mx = interval phi in
        (* An everywhere-empty loop still gets a well-formed (degenerate)
           interval so inner hulls stay defined; its accesses never run. *)
        let hi_mx = max lo_mn hi_mx in
        let saved = !scope in
        let pslot = fresh var lo_mn hi_mx in
        let pbody = Array.of_list (List.map pre body) in
        scope := saved;
        Ploop { pslot; plo; phi; prev = rev; pbody }
  in
  let pbody = Array.of_list (List.map pre p.body) in
  (* Layout: hulls in first-appearance order, back to back, row-major.
     Every hull was widened by at least one interval, so lo <= hi. *)
  let hull_list = List.rev !order in
  let n_hulls = List.length hull_list in
  let d_lo = Array.make n_hulls [||] and d_stride = Array.make n_hulls [||] in
  let d_base = Array.make (n_hulls + 1) 0 in
  let base = ref 0 in
  List.iter
    (fun h ->
      let nd = Array.length h.h_lo in
      let stride = Array.make nd 1 in
      let size = ref 1 in
      for d = nd - 1 downto 0 do
        stride.(d) <- !size;
        let ext =
          Rat.add_exn (Rat.add_exn h.h_hi.(d) (Rat.mul_exn (-1) h.h_lo.(d))) 1
        in
        size := Rat.mul_exn !size ext
      done;
      d_base.(h.h_order) <- !base;
      d_lo.(h.h_order) <- h.h_lo;
      d_stride.(h.h_order) <- stride;
      base := Rat.add_exn !base !size)
    hull_list;
  d_base.(n_hulls) <- !base;
  (* Compose each site's index forms with the layout into one address
     form: addr = base - sum_d stride_d * hull_lo_d + sum_d stride_d * idx_d. *)
  let compose h idx =
    let stride = d_stride.(h.h_order) in
    let base = ref d_base.(h.h_order) in
    Array.iteri (fun d lo -> base := !base - (stride.(d) * lo)) h.h_lo;
    combine !nslots !base stride idx
  in
  let sites = ref [] in
  let n_sites = ref 0 in
  let rec cnode = function
    | Pstmt ps ->
        let s0 = !n_sites in
        Array.iter (fun (h, idx, _) -> sites := (h.h_name, idx) :: !sites) ps;
        n_sites := s0 + Array.length ps;
        Cstmt
          {
            sa = Array.map (fun (h, idx, _) -> compose h idx) ps;
            sw = Array.map (fun (_, _, w) -> w) ps;
            s0;
          }
    | Ploop { pslot; plo; phi; prev; pbody } -> (
        let body = Array.map cnode pbody in
        match body with
        | [| Cstmt { sa; sw; s0 } |] ->
            Cinner
              {
                islot = pslot;
                ilo = plo;
                ihi = phi;
                irev = prev;
                ia = sa;
                iw = sw;
                idelta = Array.map (coeff_of pslot) sa;
                i0 = s0;
              }
        | _ ->
            let aff_uses slot a = Array.exists (fun s -> s = slot) a.cslots in
            let rec uses slot = function
              | Cstmt _ -> false
              | Cloop l ->
                  aff_uses slot l.lo || aff_uses slot l.hi
                  || Array.exists (uses slot) l.body
              | Cinner c -> aff_uses slot c.ilo || aff_uses slot c.ihi
            in
            Cloop
              {
                slot = pslot;
                lo = plo;
                hi = phi;
                rev = prev;
                body;
                collapse = not (Array.exists (uses pslot) body);
              })
  in
  let body = Array.map cnode pbody in
  let env = Array.make (max !nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) pinits;
  {
    body;
    nslots = !nslots;
    pinits;
    sites = Array.of_list (List.rev !sites);
    total = Array.fold_left (fun a c -> a + count env c) 0 body;
    addr_space = !base;
    d_names = Array.of_list (List.map (fun h -> h.h_name) hull_list);
    d_base;
    d_lo;
    d_stride;
  }

(* Interval bounds, hull extents and volumes, and the layout bases are
   all computed with checked arithmetic. *)
let make ~params p =
  try compile ~params p
  with Rat.Overflow ->
    invalid_arg "Cplan.make: a hull bound or volume leaves 63-bit integers"

(* --------------------------------------------------------------------- *)
(* Decoding.                                                              *)

let decode t addr =
  if addr < 0 || addr >= t.addr_space then
    invalid_arg "Cplan.decode: address out of range";
  let i = ref 0 in
  while t.d_base.(!i + 1) <= addr do
    incr i
  done;
  let i = !i in
  let strides = t.d_stride.(i) and los = t.d_lo.(i) in
  let nd = Array.length strides in
  let idx = Array.make nd 0 in
  let rem = ref (addr - t.d_base.(i)) in
  for d = 0 to nd - 1 do
    idx.(d) <- los.(d) + (!rem / strides.(d));
    rem := !rem mod strides.(d)
  done;
  (t.d_names.(i), idx)

(* --------------------------------------------------------------------- *)
(* Iteration.                                                             *)

let fresh_env t =
  let env = Array.make (max t.nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) t.pinits;
  env

let iter t ~lo ~hi ~on_instance ~on_access =
  if lo < 0 then invalid_arg "Cplan.iter: lo < 0";
  if hi < lo then invalid_arg "Cplan.iter: hi < lo";
  let env = fresh_env t in
  (* per-site address cursors of the innermost loops *)
  let cur = Array.make (Array.length t.sites) 0 in
  let pos = ref 0 in
  let rec exec = function
    | Cstmt { sa; sw; _ } ->
        let k = Array.length sa in
        if !pos >= hi then raise_notrace Past_range;
        if !pos + k <= lo then pos := !pos + k
        else begin
          on_instance ();
          for i = 0 to k - 1 do
            let p = !pos in
            if p >= lo && p < hi then
              on_access p
                (ceval env (Array.unsafe_get sa i))
                (Array.unsafe_get sw i);
            pos := p + 1
          done
        end
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        if hi_v >= lo_v then begin
          let k = Array.length c.ia in
          let trip = hi_v - lo_v + 1 in
          if !pos + (trip * k) <= lo then pos := !pos + (trip * k)
          else begin
            (* skip whole iterations strictly left of the range *)
            let skip = if lo > !pos then (lo - !pos) / k else 0 in
            pos := !pos + (skip * k);
            env.(c.islot) <- (if c.irev then hi_v - skip else lo_v + skip);
            let i0 = c.i0 in
            for i = 0 to k - 1 do
              cur.(i0 + i) <- ceval env (Array.unsafe_get c.ia i)
            done;
            let sw = c.iw in
            let deltas =
              if c.irev then Array.map (fun d -> -d) c.idelta else c.idelta
            in
            let it = ref skip in
            while !it < trip do
              if !pos >= lo && !pos + k <= hi then begin
                (* the hot path: whole iterations fully inside the range *)
                let full = min (trip - !it) ((hi - !pos) / k) in
                for _ = 1 to full do
                  on_instance ();
                  for i = 0 to k - 1 do
                    let p = !pos in
                    on_access p
                      (Array.unsafe_get cur (i0 + i))
                      (Array.unsafe_get sw i);
                    pos := p + 1
                  done;
                  for i = 0 to k - 1 do
                    let s = i0 + i in
                    Array.unsafe_set cur s
                      (Array.unsafe_get cur s + Array.unsafe_get deltas i)
                  done
                done;
                it := !it + full
              end
              else begin
                if !pos >= hi then raise_notrace Past_range;
                (* a boundary iteration: the range cuts the site list *)
                if !pos + k > lo then begin
                  on_instance ();
                  for i = 0 to k - 1 do
                    let p = !pos in
                    if p >= lo && p < hi then
                      on_access p
                        (Array.unsafe_get cur (i0 + i))
                        (Array.unsafe_get sw i);
                    pos := p + 1
                  done
                end
                else pos := !pos + k;
                for i = 0 to k - 1 do
                  let s = i0 + i in
                  Array.unsafe_set cur s
                    (Array.unsafe_get cur s + Array.unsafe_get deltas i)
                done;
                incr it
              end
            done
          end
        end
    | Cloop l ->
        let lo_v = ceval env l.lo and hi_v = ceval env l.hi in
        let body v =
          if !pos >= hi then raise_notrace Past_range;
          env.(l.slot) <- v;
          if !pos < lo then begin
            let c = Array.fold_left (fun a n -> a + count env n) 0 l.body in
            (* [count] mutates slots below ours; restore *)
            env.(l.slot) <- v;
            if !pos + c <= lo then pos := !pos + c else Array.iter exec l.body
          end
          else Array.iter exec l.body
        in
        if l.rev then
          for v = hi_v downto lo_v do
            body v
          done
        else
          for v = lo_v to hi_v do
            body v
          done
  in
  try Array.iter exec t.body with Past_range -> ()

(* --------------------------------------------------------------------- *)
(* Spatially-hashed sampled iteration (SHARDS-style).                     *)

(* All hashing is native-int (62-bit) so the hot loop never boxes: a
   mutable [Int64] field would allocate on every store.  [mix] is a
   splitmix-style finalizer with constants truncated to fit OCaml's int
   literals; the result is masked to 62 bits, i.e. uniform on [0, 2^62). *)
let hash_bits_mask = (1 lsl 62) - 1

let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 27) in
  let h = h * 0x106689D45497FDB5 in
  (h lxor (h lsr 31)) land hash_bits_mask

(* The cell hash must be a pure function of (name, index) - every
   consumer (the plan scan, the interpreted fallback, oracles, tests) has
   to agree on which cells a given seed selects - and linear in the index
   vector modulo the final [mix]:
     h = mix (name_h + sum_d r_d * i_d)
   with per-dimension odd multipliers r_d derived from the seed.  Integer
   arithmetic is a ring modulo 2^63, so the linear part composes with a
   site's affine index forms into one affine form over the loop slots,
   giving the same hash bit for bit. *)
let sample_dim_coef seed0 d = mix (seed0 + 0x9e37 + d) lor 1

let sample_seed0 seed = mix ((seed land hash_bits_mask) + 1)

let sample_name_hash seed0 name =
  let h = ref seed0 in
  String.iter (fun c -> h := mix (!h + Char.code c + 1)) name;
  !h

let sample_hash ~seed name idx =
  let seed0 = sample_seed0 seed in
  let s = ref (sample_name_hash seed0 name) in
  for d = 0 to Array.length idx - 1 do
    s := !s + (sample_dim_coef seed0 d * idx.(d))
  done;
  mix !s

(* Budget polling granularity, in accesses scanned: fine enough that a
   deadline is noticed in well under a millisecond, coarse enough that
   the indirect call vanishes from the per-access cost. *)
let tick_stride = 65_536

let iter_sampled t ~seed ~thresh ~on_tick ~on_access =
  let seed0 = sample_seed0 seed in
  (* Per call, once: each site's hash linear part as an affine form over
     the slots, and its step along the enclosing innermost loop (signed
     by the loop direction). *)
  let hform =
    Array.map
      (fun (name, idx) ->
        combine t.nslots
          (sample_name_hash seed0 name)
          (Array.init (Array.length idx) (sample_dim_coef seed0))
          idx)
      t.sites
  in
  let hstep = Array.make (Array.length t.sites) 0 in
  let rec steps = function
    | Cstmt _ -> ()
    | Cloop l -> Array.iter steps l.body
    | Cinner c ->
        for s = c.i0 to c.i0 + Array.length c.iw - 1 do
          let d = coeff_of c.islot hform.(s) in
          hstep.(s) <- (if c.irev then -d else d)
        done
  in
  Array.iter steps t.body;
  let cur = Array.make (Array.length t.sites) 0 in
  let env = fresh_env t in
  let pending = ref 0 in
  let tick n =
    pending := !pending + n;
    if !pending >= tick_stride then begin
      on_tick !pending;
      pending := 0
    end
  in
  let rec exec = function
    | Cstmt { sw; s0; _ } ->
        let k = Array.length sw in
        tick k;
        for i = 0 to k - 1 do
          let h = mix (ceval env (Array.unsafe_get hform (s0 + i))) in
          if h < thresh then on_access h (Array.unsafe_get sw i)
        done
    | Cloop l ->
        let lo_v = ceval env l.lo and hi_v = ceval env l.hi in
        if l.rev then
          for v = hi_v downto lo_v do
            env.(l.slot) <- v;
            Array.iter exec l.body
          done
        else
          for v = lo_v to hi_v do
            env.(l.slot) <- v;
            Array.iter exec l.body
          done
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        let k = Array.length c.iw in
        if hi_v >= lo_v && k > 0 then begin
          let i0 = c.i0 and i1 = c.i0 + k - 1 and sw = c.iw in
          env.(c.islot) <- (if c.irev then hi_v else lo_v);
          for s = i0 to i1 do
            Array.unsafe_set cur s (ceval env (Array.unsafe_get hform s))
          done;
          (* Ticks are hoisted out of the iteration and charged per
             block, so the per-access cost is one [mix] and one compare,
             and the per-site cost of a step one addition. *)
          let step () =
            for s = i0 to i1 do
              let h = mix (Array.unsafe_get cur s) in
              if h < thresh then on_access h (Array.unsafe_get sw (s - i0))
            done
          in
          step ();
          let left = ref (hi_v - lo_v) in
          while !left > 0 do
            let block = min !left (1 + (tick_stride / k)) in
            for _ = 1 to block do
              for s = i0 to i1 do
                Array.unsafe_set cur s
                  (Array.unsafe_get cur s + Array.unsafe_get hstep s)
              done;
              step ()
            done;
            left := !left - block;
            tick (block * k)
          done;
          tick k
        end
  in
  Array.iter exec t.body;
  if !pending > 0 then on_tick !pending
