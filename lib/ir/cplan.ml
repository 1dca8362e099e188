(* The one loop-nest compiler: a program lowered at concrete parameters.

   Every variable (parameter or loop variable) gets a dense slot in a
   flat int environment and every affine expression becomes parallel
   coefficient/slot arrays, so walking the program is flat integer
   arithmetic.  One plan serves every concrete walk of the program: the
   CDAG builder and the interning trace producers ([iter_cells]), the
   dense-address trace producers ([iter]) and the sampled scan
   ([iter_sampled]).

   On top of that, a plan usually carries a flat address layout.  Every
   array gets a rectangular hull - per-dimension inclusive bounds that
   contain every index the program can touch, obtained by interval
   arithmetic over the loop nest - and the hulls are laid out back to
   back in one flat row-major address space.  Each access site's index
   expressions then compose with the layout into a single affine form
   over the loop variables, so producing an access is one flat-integer
   evaluation and its cell identity is an [int] already dense enough to
   index arrays with: consumers replace interner hashing by an
   [addr -> id] table.  Along an innermost loop the address form moves
   by a constant, so the hot path emits an access with one addition.

   Hulls are keyed by (array, rank): an array name used at two ranks
   names two disjoint cell sets, exactly as the interner keys them.
   Interval bounds, hull volumes and the layout are computed with checked
   arithmetic, so a hull that would leave 63-bit integers leaves the plan
   without a layout (callers intern the cells of [iter_cells] instead)
   rather than wrapping into a small address space that emits
   out-of-range addresses.  The composed address forms themselves may
   wrap harmlessly: every address the plan emits lies in
   [0, addr_space), and integer arithmetic modulo 2^63 computes it
   exactly.

   Addresses are injective on cells by construction (distinct hulls get
   disjoint ranges; within a hull the row-major map is injective), and
   [decode] inverts them, so a consumer that needs the symbolic cell -
   say, to intern a first occurrence - pays the decode only once per
   distinct cell, never per access.

   The sampled scan needs no layout: the spatial hash is linear in the
   index vector before its final mix, so per call it composes with each
   site's index forms into one affine form and, along an innermost loop,
   steps by a per-site constant.

   A plan is immutable; every walk keeps its mutable state (environment,
   per-site cursors, borrowed buffers) in per-call buffers, so one plan
   can drive several domains concurrently. *)

module Affine = Iolb_poly.Affine
module Rat = Iolb_util.Rat

exception Past_range

type caff = { cconst : int; ccoefs : int array; cslots : int array }

(* Unsafe indexing is in bounds by construction: [ccoefs] and [cslots]
   have the same length, and every slot is < nslots = length of [env]. *)
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

(* [span rev lo hi f] is [f v] for [v] from [lo] to [hi], or from [hi]
   downto [lo] when [rev]. *)
let span rev lo hi f =
  if rev then
    for v = hi downto lo do
      f v
    done
  else
    for v = lo to hi do
      f v
    done

(* A statement: its access sites are [s0, s0 + nr) (the reads, in
   statement order) and then [s0 + nr, s1) (the writes). *)
type stmt = {
  name : string;
  vec : int array; (* slots of the enclosing loop vars, outermost first *)
  s0 : int;
  nr : int;
  s1 : int;
}

type cnode =
  | Cstmt of stmt
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
  | Cinner of { islot : int; ilo : caff; ihi : caff; irev : bool; st : stmt }
      (* an innermost loop whose body is one statement: the
         per-iteration site addresses and hashes advance by constants *)

type layout = {
  addr_space : int;
  addr : caff array; (* per site: composed address form *)
  astep : int array;
      (* per site of an innermost loop: the address step per iteration,
         signed by the loop direction *)
  d_names : string array;
  d_base : int array; (* length nhulls + 1; last entry = addr_space *)
  d_lo : int array array;
  d_stride : int array array;
}

type t = {
  body : cnode array;
  nslots : int;
  pinits : (int * int) list;
  site_array : string array; (* per site *)
  site_index : caff array array; (* per site: index forms *)
  site_write : bool array; (* per site *)
  layout : layout option;
}

let fresh_env t =
  let env = Array.make (max t.nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) t.pinits;
  env

(* Access count of a subtree at the current [env]: a loop whose body's
   count does not depend on its variable contributes extent * body-count,
   so rectangular sub-nests collapse to multiplications and only the
   variables that shape inner bounds (triangular nests) are enumerated. *)
let rec count env = function
  | Cstmt st -> st.s1 - st.s0
  | Cinner c ->
      let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
      if hi_v < lo_v then 0 else (hi_v - lo_v + 1) * (c.st.s1 - c.st.s0)
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

let n_accesses t =
  let env = fresh_env t in
  Array.fold_left (fun a c -> a + count env c) 0 t.body

let addr_space t = Option.map (fun l -> l.addr_space) t.layout

(* Per site of an innermost loop, the step of its form in [forms] (an
   address or a hash form per site) when the loop advances one
   iteration, signed by the loop direction; 0 for the other sites. *)
let inner_steps t forms =
  let step = Array.make (Array.length forms) 0 in
  let rec go = function
    | Cstmt _ -> ()
    | Cloop l -> Array.iter go l.body
    | Cinner c ->
        for s = c.st.s0 to c.st.s1 - 1 do
          let d = coeff_of c.islot forms.(s) in
          step.(s) <- (if c.irev then -d else d)
        done
  in
  Array.iter go t.body;
  step

(* --------------------------------------------------------------------- *)
(* Compilation.                                                           *)

let compile ~params (p : Program.t) =
  let nslots = ref 0 in
  let scope = ref [] in
  let fresh v =
    let s = !nslots in
    incr nslots;
    scope := (v, s) :: !scope;
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
  let pinits = List.map (fun (x, v) -> (fresh x, v)) params in
  let sites = ref [] and n_sites = ref 0 in
  let aff_uses slot a = Array.exists (fun s -> s = slot) a.cslots in
  let rec uses slot = function
    | Cstmt _ -> false
    | Cloop l ->
        aff_uses slot l.lo || aff_uses slot l.hi
        || Array.exists (uses slot) l.body
    | Cinner c -> aff_uses slot c.ilo || aff_uses slot c.ihi
  in
  let rec cnode path = function
    | Program.Stmt s ->
        let s0 = !n_sites in
        let site is_write (a : Access.t) =
          sites :=
            (a.array, Array.of_list (List.map caffine a.index), is_write)
            :: !sites;
          incr n_sites
        in
        List.iter (site false) s.reads;
        List.iter (site true) s.writes;
        Cstmt
          {
            name = s.name;
            vec = Array.of_list (List.rev path);
            s0;
            nr = List.length s.reads;
            s1 = !n_sites;
          }
    | Program.Loop { var; lo; hi; rev; body } -> (
        (* Bounds are evaluated in the enclosing scope: compile them before
           binding [var]. *)
        let lo = caffine lo and hi = caffine hi in
        let saved = !scope in
        let slot = fresh var in
        let body = Array.of_list (List.map (cnode (slot :: path)) body) in
        scope := saved;
        match body with
        | [| Cstmt st |] ->
            Cinner { islot = slot; ilo = lo; ihi = hi; irev = rev; st }
        | _ ->
            Cloop
              {
                slot;
                lo;
                hi;
                rev;
                body;
                collapse = not (Array.exists (uses slot) body);
              })
  in
  let body = Array.of_list (List.map (cnode []) p.body) in
  let sites = Array.of_list (List.rev !sites) in
  {
    body;
    nslots = !nslots;
    pinits;
    site_array = Array.map (fun (a, _, _) -> a) sites;
    site_index = Array.map (fun (_, idx, _) -> idx) sites;
    site_write = Array.map (fun (_, _, w) -> w) sites;
    layout = None;
  }

type hull = {
  h_name : string;
  h_order : int; (* first-appearance rank: the hull's place in the layout *)
  h_lo : int array;
  h_hi : int array;
}

(* The flat address layout of a compiled plan.  Every interval bound,
   hull extent and volume and layout base is computed with checked
   arithmetic: @raise Rat.Overflow when one leaves 63-bit integers. *)
let layout t =
  let ivlo = Array.make (max t.nslots 1) 0 in
  let ivhi = Array.make (max t.nslots 1) 0 in
  List.iter
    (fun (s, v) ->
      ivlo.(s) <- v;
      ivhi.(s) <- v)
    t.pinits;
  (* Interval of an affine form over the current per-slot intervals. *)
  let interval a =
    let mn = ref a.cconst and mx = ref a.cconst in
    for k = 0 to Array.length a.cslots - 1 do
      let c = a.ccoefs.(k) and s = a.cslots.(k) in
      let at_lo = Rat.mul_exn c ivlo.(s) and at_hi = Rat.mul_exn c ivhi.(s) in
      mn := Rat.add_exn !mn (min at_lo at_hi);
      mx := Rat.add_exn !mx (max at_lo at_hi)
    done;
    (!mn, !mx)
  in
  let hulls : (string * int, hull) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let widen st =
    for s = st.s0 to st.s1 - 1 do
      let name = t.site_array.(s) and idx = t.site_index.(s) in
      let nd = Array.length idx in
      let h =
        match Hashtbl.find_opt hulls (name, nd) with
        | Some h -> h
        | None ->
            let h =
              {
                h_name = name;
                h_order = Hashtbl.length hulls;
                h_lo = Array.make nd max_int;
                h_hi = Array.make nd min_int;
              }
            in
            Hashtbl.add hulls (name, nd) h;
            order := h :: !order;
            h
      in
      Array.iteri
        (fun d e ->
          let mn, mx = interval e in
          if mn < h.h_lo.(d) then h.h_lo.(d) <- mn;
          if mx > h.h_hi.(d) then h.h_hi.(d) <- mx)
        idx
    done
  in
  let bind slot lo hi =
    let lo_mn, _ = interval lo and _, hi_mx = interval hi in
    (* An everywhere-empty loop still gets a well-formed (degenerate)
       interval so inner hulls stay defined; its accesses never run. *)
    ivlo.(slot) <- lo_mn;
    ivhi.(slot) <- max lo_mn hi_mx
  in
  let rec walk = function
    | Cstmt st -> widen st
    | Cinner c ->
        bind c.islot c.ilo c.ihi;
        widen c.st
    | Cloop l ->
        bind l.slot l.lo l.hi;
        Array.iter walk l.body
  in
  Array.iter walk t.body;
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
  let addr =
    Array.mapi
      (fun s idx ->
        let h = Hashtbl.find hulls (t.site_array.(s), Array.length idx) in
        let stride = d_stride.(h.h_order) in
        let base = ref d_base.(h.h_order) in
        Array.iteri (fun d lo -> base := !base - (stride.(d) * lo)) h.h_lo;
        combine t.nslots !base stride idx)
      t.site_index
  in
  {
    addr_space = !base;
    addr;
    astep = inner_steps t addr;
    d_names = Array.of_list (List.map (fun h -> h.h_name) hull_list);
    d_base;
    d_lo;
    d_stride;
  }

let make ~params p =
  let t = compile ~params p in
  match layout t with
  | l -> { t with layout = Some l }
  | exception Rat.Overflow -> t

let layout_exn what t =
  match t.layout with
  | Some l -> l
  | None -> invalid_arg (what ^ ": the plan has no address layout")

(* --------------------------------------------------------------------- *)
(* Decoding.                                                              *)

let decode t addr =
  let l = layout_exn "Cplan.decode" t in
  if addr < 0 || addr >= l.addr_space then
    invalid_arg "Cplan.decode: address out of range";
  let i = ref 0 in
  while l.d_base.(!i + 1) <= addr do
    incr i
  done;
  let i = !i in
  let strides = l.d_stride.(i) and los = l.d_lo.(i) in
  let nd = Array.length strides in
  let idx = Array.make nd 0 in
  let rem = ref (addr - l.d_base.(i)) in
  for d = 0 to nd - 1 do
    idx.(d) <- los.(d) + (!rem / strides.(d));
    rem := !rem mod strides.(d)
  done;
  (l.d_names.(i), idx)

(* --------------------------------------------------------------------- *)
(* Iteration.                                                             *)

let iter t ~lo ~hi ~on_instance ~on_access =
  let l = layout_exn "Cplan.iter" t in
  if lo < 0 then invalid_arg "Cplan.iter: lo < 0";
  if hi < lo then invalid_arg "Cplan.iter: hi < lo";
  let addr = l.addr and astep = l.astep and sw = t.site_write in
  let env = fresh_env t in
  (* per-site address cursors of the innermost loops *)
  let cur = Array.make (Array.length addr) 0 in
  let pos = ref 0 in
  let rec exec = function
    | Cstmt st ->
        let k = st.s1 - st.s0 in
        if !pos >= hi then raise_notrace Past_range;
        if !pos + k <= lo then pos := !pos + k
        else begin
          on_instance ();
          for s = st.s0 to st.s1 - 1 do
            let p = !pos in
            if p >= lo && p < hi then
              on_access p
                (ceval env (Array.unsafe_get addr s))
                (Array.unsafe_get sw s);
            pos := p + 1
          done
        end
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        if hi_v >= lo_v then begin
          let i0 = c.st.s0 and i1 = c.st.s1 - 1 in
          let k = i1 - i0 + 1 in
          let trip = hi_v - lo_v + 1 in
          if !pos + (trip * k) <= lo then pos := !pos + (trip * k)
          else begin
            (* skip whole iterations strictly left of the range *)
            let skip = if lo > !pos then (lo - !pos) / k else 0 in
            pos := !pos + (skip * k);
            env.(c.islot) <- (if c.irev then hi_v - skip else lo_v + skip);
            for s = i0 to i1 do
              cur.(s) <- ceval env (Array.unsafe_get addr s)
            done;
            let it = ref skip in
            while !it < trip do
              if !pos >= lo && !pos + k <= hi then begin
                (* the hot path: whole iterations fully inside the range *)
                let full = min (trip - !it) ((hi - !pos) / k) in
                for _ = 1 to full do
                  on_instance ();
                  for s = i0 to i1 do
                    let p = !pos in
                    on_access p (Array.unsafe_get cur s)
                      (Array.unsafe_get sw s);
                    pos := p + 1
                  done;
                  for s = i0 to i1 do
                    Array.unsafe_set cur s
                      (Array.unsafe_get cur s + Array.unsafe_get astep s)
                  done
                done;
                it := !it + full
              end
              else begin
                if !pos >= hi then raise_notrace Past_range;
                (* a boundary iteration: the range cuts the site list *)
                if !pos + k > lo then begin
                  on_instance ();
                  for s = i0 to i1 do
                    let p = !pos in
                    if p >= lo && p < hi then
                      on_access p (Array.unsafe_get cur s)
                        (Array.unsafe_get sw s);
                    pos := p + 1
                  done
                end
                else pos := !pos + k;
                for s = i0 to i1 do
                  Array.unsafe_set cur s
                    (Array.unsafe_get cur s + Array.unsafe_get astep s)
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
        span l.rev lo_v hi_v body
  in
  try Array.iter exec t.body with Past_range -> ()

let iter_cells t ~on_load ~on_stmt ~on_store =
  let env = fresh_env t in
  (* borrowed per-call buffers: one index vector per site, one iteration
     vector per loop depth (at most one per slot) *)
  let ibuf = Array.map (fun i -> Array.make (Array.length i) 0) t.site_index in
  let vbuf = Array.init (t.nslots + 1) (fun depth -> Array.make depth 0) in
  let cell s =
    let idx = Array.unsafe_get t.site_index s and b = Array.unsafe_get ibuf s in
    for d = 0 to Array.length idx - 1 do
      Array.unsafe_set b d (ceval env (Array.unsafe_get idx d))
    done;
    b
  in
  (* manual loops: no per-instance closures, no per-instance arrays *)
  let visit st =
    for s = st.s0 to st.s0 + st.nr - 1 do
      on_load (Array.unsafe_get t.site_array s) (cell s)
    done;
    let vec = st.vec in
    let b = Array.unsafe_get vbuf (Array.length vec) in
    for d = 0 to Array.length vec - 1 do
      Array.unsafe_set b d (Array.unsafe_get env (Array.unsafe_get vec d))
    done;
    on_stmt st.name b;
    for s = st.s0 + st.nr to st.s1 - 1 do
      on_store (Array.unsafe_get t.site_array s) (cell s)
    done
  in
  let rec exec = function
    | Cstmt st -> visit st
    | Cinner c ->
        span c.irev (ceval env c.ilo) (ceval env c.ihi) (fun v ->
            env.(c.islot) <- v;
            visit c.st)
    | Cloop l ->
        span l.rev (ceval env l.lo) (ceval env l.hi) (fun v ->
            env.(l.slot) <- v;
            Array.iter exec l.body)
  in
  Array.iter exec t.body

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
   consumer (the plan scan, oracles, tests) has to agree on which cells a
   given seed selects - and linear in the index vector modulo the final
   [mix]:
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
    Array.map2
      (fun name idx ->
        combine t.nslots
          (sample_name_hash seed0 name)
          (Array.init (Array.length idx) (sample_dim_coef seed0))
          idx)
      t.site_array t.site_index
  in
  let hstep = inner_steps t hform in
  let sw = t.site_write in
  let cur = Array.make (Array.length hform) 0 in
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
    | Cstmt st ->
        tick (st.s1 - st.s0);
        for s = st.s0 to st.s1 - 1 do
          let h = mix (ceval env (Array.unsafe_get hform s)) in
          if h < thresh then on_access h (Array.unsafe_get sw s)
        done
    | Cloop l ->
        span l.rev (ceval env l.lo) (ceval env l.hi) (fun v ->
            env.(l.slot) <- v;
            Array.iter exec l.body)
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        let i0 = c.st.s0 and i1 = c.st.s1 - 1 in
        let k = i1 - i0 + 1 in
        if hi_v >= lo_v && k > 0 then begin
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
              if h < thresh then on_access h (Array.unsafe_get sw s)
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
