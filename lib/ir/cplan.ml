(* The one loop-nest compiler: a program lowered at concrete parameters.

   Every variable (parameter or loop variable) gets a dense slot in a
   flat int environment and every affine expression becomes parallel
   coefficient/slot arrays, so walking the program is flat integer
   arithmetic.  One plan serves every concrete walk of the program: the
   numbered exact access stream behind every trace and exact sweep
   ([iter]: the seek walk [iter_dense] on a dense layout, the instance
   walk [walk] elsewhere), the same stream with every statement instance
   announced ([iter_instances], the CDAG builder's instance walk) and the
   sampled scan ([iter_sampled]).

   On top of that, a plan usually carries a flat address layout.  Every
   array gets a rectangular hull - per-dimension inclusive bounds that
   contain every index the program can touch, obtained by interval
   arithmetic over the loop nest - and the hulls are laid out back to
   back in one flat row-major address space.  Each access site's index
   expressions then compose with the layout into a single affine form
   over the loop variables, so producing an access is one flat-integer
   evaluation and its cell identity is an [int] already dense enough to
   index arrays with: [iter] numbers cells through a flat [addr -> id]
   table instead of hashing them.  Along an innermost loop the address
   form moves by a constant, so the hot path emits an access with one
   addition and one table read.

   Hulls are keyed by (array, rank): an array name used at two ranks
   names two disjoint cell sets, exactly as the interner keys them.
   Interval bounds, hull volumes and the layout are computed with checked
   arithmetic, so a hull that would leave 63-bit integers leaves the plan
   without a layout (its exact walks intern cells instead) rather than
   wrapping into a small address space that emits out-of-range
   addresses.  The composed address forms themselves may wrap
   harmlessly: every address the plan emits lies in [0, addr_space), and
   integer arithmetic modulo 2^63 computes it exactly.

   Addresses are injective on cells by construction (distinct hulls get
   disjoint ranges; within a hull the row-major map is injective), so
   numbering addresses by first occurrence numbers cells by first
   occurrence.

   The sampled scan's spatial hash is linear in the index vector before
   its final mix, so per call it composes with each site's index forms
   into one affine form and, along an innermost loop, steps by a per-site
   constant: without a layout every access costs one addition, one mix
   and one compare.  On a dense layout that spans no more addresses than
   its long innermost loops make accesses, the scan hashes every address
   once instead and finds each such loop's kept accesses in the kept
   addresses along each site's constant address step, so a dropped
   access there costs nothing.

   A plan is immutable; every walk keeps its mutable state (environment,
   per-site cursors, numbering tables, borrowed buffers) in per-call
   buffers, so one plan can drive several domains concurrently. *)

module Affine = Iolb_poly.Affine
module Rat = Iolb_util.Rat
module Budget = Iolb_util.Budget

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
  index : int; (* its place in the program text, from 0 *)
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

type hull_place = {
  hname : string;
  hbase : int; (* address of the hull's low corner *)
  hlo : int array; (* per dimension: the hull's low bound *)
  hstride : int array; (* per dimension: its row-major stride *)
}

type layout = {
  addr_space : int;
  hulls : hull_place array; (* in address order: decodes an address *)
  addr : caff array; (* per site: composed address form *)
  astep : int array;
      (* per site of an innermost loop: the address step per iteration,
         signed by the loop direction *)
}

type t = {
  body : cnode array;
  stmts : stmt array; (* by index *)
  nslots : int;
  pinits : (int * int) list;
  site_array : string array; (* per site *)
  site_index : caff array array; (* per site: index forms *)
  site_write : bool array; (* per site *)
  site_class : int array;
      (* per site: its (array, rank) pair, numbered by first appearance *)
  layout : layout option;
}

let fresh_env t =
  let env = Array.make (max t.nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) t.pinits;
  env

(* [hi - lo + 1] for [lo <= hi], checked: the true difference is
   non-negative, so it left the ints iff it wrapped negative. *)
let extent lo hi =
  let d = hi - lo in
  if d < 0 || d = max_int then raise Rat.Overflow;
  d + 1

(* Weighted instance count of a subtree at the current [env], [w n st]
   the weight of [n] consecutive instances of [st] (an innermost loop's
   [n] iterations, or [n = 1] for a statement beside others): a loop
   whose body's count does not depend on its variable contributes
   extent * body-count, so rectangular sub-nests collapse to
   multiplications and only the variables that shape inner bounds
   (triangular nests) are enumerated.  Every sum and product is checked.
   @raise Rat.Overflow when the count leaves the ints. *)
let rec count w env = function
  | Cstmt st -> w 1 st
  | Cinner c ->
      let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
      if hi_v < lo_v then 0 else w (extent lo_v hi_v) c.st
  | Cloop l ->
      let lo_v = ceval env l.lo and hi_v = ceval env l.hi in
      if hi_v < lo_v then 0
      else if l.collapse then begin
        env.(l.slot) <- lo_v;
        Rat.mul_exn (extent lo_v hi_v) (sum w env l.body)
      end
      else begin
        let total = ref 0 in
        for v = lo_v to hi_v do
          env.(l.slot) <- v;
          total := Rat.add_exn !total (sum w env l.body)
        done;
        !total
      end

and sum w env body =
  Array.fold_left (fun a c -> Rat.add_exn a (count w env c)) 0 body

let accesses st = st.s1 - st.s0

(* [w] per instance, as a weight of [n] instances for [count] *)
let per_instance w n st = Rat.mul_exn n (w st)

let total what w t =
  match sum (per_instance w) (fresh_env t) t.body with
  | n -> n
  | exception Rat.Overflow ->
      Iolb_util.Engine_error.raise_error
        (Invalid_input
           (Printf.sprintf "the %s count exceeds max_int (%d)" what max_int))

let n_accesses = total "access" accesses

(* Instances with at least one access: the ones the exact walks gate. *)
let n_instances = total "instance" (fun st -> if st.s1 > st.s0 then 1 else 0)

type totals = { instances : int; reads : int; coords : int }

let totals t =
  let instances = total "instance" (fun _ -> 1) t in
  let reads = total "read" (fun st -> st.nr) t in
  { instances; reads; coords = total "loop-variable" (fun st -> Array.length st.vec) t }

let n_stmts t = Array.length t.stmts
let stmt_name t s = t.stmts.(s).name
let stmt_depth t s = Array.length t.stmts.(s).vec

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
  let stmts = ref [] in
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
        let st =
          {
            index = List.length !stmts;
            name = s.name;
            vec = Array.of_list (List.rev path);
            s0;
            nr = List.length s.reads;
            s1 = !n_sites;
          }
        in
        stmts := st :: !stmts;
        Cstmt st
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
  let classes = Hashtbl.create 8 in
  let class_of (a, idx, _) =
    let key = (a, Array.length idx) in
    match Hashtbl.find_opt classes key with
    | Some c -> c
    | None ->
        let c = Hashtbl.length classes in
        Hashtbl.add classes key c;
        c
  in
  {
    body;
    stmts = Array.of_list (List.rev !stmts);
    nslots = !nslots;
    pinits;
    site_array = Array.map (fun (a, _, _) -> a) sites;
    site_index = Array.map (fun (_, idx, _) -> idx) sites;
    site_write = Array.map (fun (_, _, w) -> w) sites;
    site_class = Array.map class_of sites;
    layout = None;
  }

type hull = { h_name : string; h_lo : int array; h_hi : int array }

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
  (* One hull per (array, rank) pair, in first-appearance order: the
     order of the layout. *)
  let first = Array.make (Array.fold_left max (-1) t.site_class + 1) (-1) in
  Array.iteri (fun s c -> if first.(c) < 0 then first.(c) <- s) t.site_class;
  let hulls =
    Array.map
      (fun s ->
        let nd = Array.length t.site_index.(s) in
        {
          h_name = t.site_array.(s);
          h_lo = Array.make nd max_int;
          h_hi = Array.make nd min_int;
        })
      first
  in
  let widen st =
    for s = st.s0 to st.s1 - 1 do
      let h = hulls.(t.site_class.(s)) in
      Array.iteri
        (fun d e ->
          let mn, mx = interval e in
          if mn < h.h_lo.(d) then h.h_lo.(d) <- mn;
          if mx > h.h_hi.(d) then h.h_hi.(d) <- mx)
        t.site_index.(s)
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
  let base = ref 0 in
  let places =
    Array.map
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
        let p = { hname = h.h_name; hbase = !base; hlo = h.h_lo; hstride = stride } in
        base := Rat.add_exn !base !size;
        p)
      hulls
  in
  (* Compose each site's index forms with the layout into one address
     form: addr = base - sum_d stride_d * hull_lo_d + sum_d stride_d * idx_d. *)
  let addr =
    Array.mapi
      (fun s idx ->
        let p = places.(t.site_class.(s)) in
        let base = ref p.hbase in
        Array.iteri (fun d lo -> base := !base - (p.hstride.(d) * lo)) p.hlo;
        combine t.nslots !base p.hstride idx)
      t.site_index
  in
  { addr_space = !base; hulls = places; addr; astep = inner_steps t addr }

let make ~params p =
  let t = compile ~params p in
  match layout t with
  | l -> { t with layout = Some l }
  | exception Rat.Overflow -> t

(* --------------------------------------------------------------------- *)
(* The numbered exact walks.                                              *)

(* Address-space cap for the flat numbering tables: [iter] allocates one
   per slice and [globalize] one per stream, so pathologically sparse
   hulls (giant strides around a tiny footprint) must not allocate
   gigabytes.  2^23 entries = 64 MB of table at most; beyond that
   interning the cells is the better trade. *)
let max_dense_addr_space = 1 lsl 23

let dense_layout t =
  match t.layout with
  | Some l when l.addr_space <= max_dense_addr_space -> Some l
  | Some _ | None -> None

type cells =
  | Addrs of int array (* per local id: its address *)
  | Keys of Interner.t (* per local id: its interned cell *)

let footprint = function Addrs a -> Array.length a | Keys p -> Interner.count p

(* First-occurrence numbering of the addresses [0, space): [ids.(a)] is
   the id of address [a], -1 while unseen, and [addrs] the inverse.  The
   table read is bounds-checked, so an address outside the layout raises
   instead of aliasing. *)
type numbering = { ids : int array; mutable addrs : int array; mutable n : int }

let numbering space =
  { ids = Array.make (max space 1) (-1); addrs = Array.make 64 0; n = 0 }

let number nb a =
  let c = nb.n in
  nb.ids.(a) <- c;
  if c = Array.length nb.addrs then begin
    let b = Array.make (2 * c) 0 in
    Array.blit nb.addrs 0 b 0 c;
    nb.addrs <- b
  end;
  nb.addrs.(c) <- a;
  nb.n <- c + 1;
  c

let[@inline] id_of nb a =
  let c = nb.ids.(a) in
  if c >= 0 then c else number nb a

(* The seek walk's budget hook, once per statement instance with an
   access in the slice: a [Cdag_build] checkpoint, a no-op on an
   unlimited budget.  Callers check node caps: a walk sees one slice. *)
let instance_gate budget =
  if Budget.is_unlimited budget then ignore
  else fun () -> Budget.checkpoint budget Budget.Cdag_build

(* The dense walk: the layout's addresses, numbered through a flat
   table inside the loop, so the consumer's closure stays the only
   indirect call per access. *)
let iter_dense t l ~budget ~lo ~hi ~on_access =
  let addr = l.addr and astep = l.astep and sw = t.site_write in
  let weigh = per_instance accesses in
  let on_instance = instance_gate budget in
  let nb = numbering l.addr_space in
  let env = fresh_env t in
  (* per-site address cursors of the innermost loops *)
  let cur = Array.make (Array.length addr) 0 in
  let pos = ref 0 in
  let rec exec = function
    | Cstmt st ->
        let k = st.s1 - st.s0 in
        if !pos >= hi then raise_notrace Past_range;
        if !pos + k <= lo then pos := !pos + k
        else if k > 0 then begin
          on_instance ();
          for s = st.s0 to st.s1 - 1 do
            let p = !pos in
            if p >= lo && p < hi then
              on_access
                (id_of nb (ceval env (Array.unsafe_get addr s)))
                (Array.unsafe_get sw s);
            pos := p + 1
          done
        end
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        let i0 = c.st.s0 and i1 = c.st.s1 - 1 in
        let k = i1 - i0 + 1 in
        if hi_v >= lo_v && k > 0 then begin
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
                    on_access
                      (id_of nb (Array.unsafe_get cur s))
                      (Array.unsafe_get sw s)
                  done;
                  for s = i0 to i1 do
                    Array.unsafe_set cur s
                      (Array.unsafe_get cur s + Array.unsafe_get astep s)
                  done
                done;
                pos := !pos + (full * k);
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
                      on_access
                        (id_of nb (Array.unsafe_get cur s))
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
            let c =
              Array.fold_left (fun a n -> a + count weigh env n) 0 l.body
            in
            (* [count] mutates slots below ours; restore *)
            env.(l.slot) <- v;
            if !pos + c <= lo then pos := !pos + c else Array.iter exec l.body
          end
          else Array.iter exec l.body
        in
        span l.rev lo_v hi_v body
  in
  (try Array.iter exec t.body with Past_range -> ());
  Addrs (Array.sub nb.addrs 0 nb.n)

(* The instance walk: every instance in program order, its cells
   numbered through the flat table on a dense layout and through a pool
   otherwise.  [on_instance env st] precedes every instance not wholly
   left of [lo], access-free ones included; the instances left of [lo]
   are passed one by one, polling only the deadline.  The seek walk could
   not announce vectors: it steps address cursors, not loop variables. *)
let walk t ~budget ~lo ~hi ~on_instance ~on_access =
  let dense = dense_layout t in
  let nb = numbering (match dense with Some l -> l.addr_space | None -> 0) in
  let pool = Interner.create () in
  (* borrowed: one index vector per site *)
  let ibuf = Array.map (fun i -> Array.make (Array.length i) 0) t.site_index in
  let sw = t.site_write and polls = not (Budget.is_unlimited budget) in
  let env = fresh_env t in
  let pos = ref 0 and passed = ref 0 in
  let visit st =
    let k = st.s1 - st.s0 and p0 = !pos in
    pos := p0 + k;
    if p0 < lo && p0 + k <= lo then begin
      incr passed;
      if polls && !passed land (Budget.deadline_stride - 1) = 0 then
        Budget.check_deadline budget Budget.Cdag_build
    end
    else begin
      if p0 >= hi then raise_notrace Past_range;
      on_instance env st;
      (* [instance_gate]'s checkpoint, without a call per instance *)
      if polls && k > 0 then Budget.checkpoint budget Budget.Cdag_build;
      (* the sites with an access in [lo, hi): all but at the slice's ends *)
      let s0 = if lo > p0 then st.s0 + (lo - p0) else st.s0 in
      let s1 = if hi - p0 < k then st.s0 + (hi - p0) else st.s1 in
      match dense with
      | Some l ->
          for s = s0 to s1 - 1 do
            let a = ceval env (Array.unsafe_get l.addr s) in
            on_access (id_of nb a) (Array.unsafe_get sw s)
          done
      | None ->
          for s = s0 to s1 - 1 do
            let e = t.site_index.(s) and b = ibuf.(s) in
            for d = 0 to Array.length e - 1 do
              b.(d) <- ceval env e.(d)
            done;
            on_access (Interner.intern_view pool t.site_array.(s) b) sw.(s)
          done
    end
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
  (try Array.iter exec t.body with Past_range -> ());
  match dense with
  | Some _ -> Addrs (Array.sub nb.addrs 0 nb.n)
  | None -> Keys pool

let iter t ~budget ~lo ~hi ~on_access =
  if lo < 0 then invalid_arg "Cplan.iter: lo < 0";
  if hi < lo then invalid_arg "Cplan.iter: hi < lo";
  match dense_layout t with
  | Some l -> iter_dense t l ~budget ~lo ~hi ~on_access
  | None -> walk t ~budget ~lo ~hi ~on_instance:(fun _ _ -> ()) ~on_access

let iter_instances t ~on_instance ~on_access =
  (* borrowed: one iteration vector per loop depth (at most one per slot) *)
  let vbuf = Array.init (t.nslots + 1) (fun depth -> Array.make depth 0) in
  let announce env st =
    let vec = st.vec in
    let b = Array.unsafe_get vbuf (Array.length vec) in
    for d = 0 to Array.length vec - 1 do
      Array.unsafe_set b d (Array.unsafe_get env (Array.unsafe_get vec d))
    done;
    on_instance st.index b
  in
  walk t ~budget:Budget.unlimited ~lo:0 ~hi:max_int ~on_instance:announce
    ~on_access

(* An address lies in the last hull whose base is at or below it; its
   offset there is row-major. *)
let cell t cells id =
  match (cells, t.layout) with
  | Keys p, _ ->
      let name, idx = Interner.key p id in
      (name, Array.copy idx)
  | Addrs a, Some l ->
      let addr = a.(id) in
      let h = ref l.hulls.(0) in
      Array.iter (fun g -> if g.hbase <= addr then h := g) l.hulls;
      let h = !h in
      let rest = ref (addr - h.hbase) in
      ( h.hname,
        Array.mapi
          (fun d stride ->
            let q = !rest / stride in
            rest := !rest - (q * stride);
            h.hlo.(d) + q)
          h.hstride )
  | Addrs _, None -> invalid_arg "Cplan.cell: cells of another plan"

let globalize t slices =
  let nb = lazy (numbering (Option.value (addr_space t) ~default:0)) in
  let pool = Interner.create () in
  List.map
    (function
      | Addrs a -> Array.map (id_of (Lazy.force nb)) a
      | Keys p ->
          Array.init (Interner.count p) (fun c ->
              Interner.intern pool (Interner.key p c)))
    slices

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

(* The ticks of one execution of an innermost loop of [trip >= 1]
   iterations and [k] sites: after its first iteration, blocks of at
   most [1 + tick_stride / k] iterations, each charged once [run block]
   has run it, and the first iteration's [k] last.  Both sampled walks
   charge these amounts in this order. *)
let inner_blocks ~trip ~k ~tick run =
  let left = ref (trip - 1) in
  while !left > 0 do
    let block = min !left (1 + (tick_stride / k)) in
    run block;
    left := !left - block;
    tick (block * k)
  done;
  tick k

(* The skip index of a dense layout.  Hashing every address of the
   layout once costs no more than hashing every access when the layout
   spans no more addresses than the skip walk passes by.  Along an
   innermost loop a site's address moves by its constant [astep], so its
   kept iterations are the kept addresses of one arithmetic progression;
   sorted by (address mod q, address), the kept addresses of any
   progression of step q form one contiguous run, found by one
   directory probe instead of one hash per iteration. *)

(* The kept addresses keyed [(a mod q) * width + a / q], [width] bounding
   [a / q], and sorted; [dir.(b)] is the first position whose key has
   [key lsr shift >= b], with about one key per bucket. *)
type run_index = {
  q : int;
  width : int;
  keys : int array;
  shift : int;
  dir : int array;
}

(* Every address of the layout whose cell hash is below [thresh], in
   ascending order.  Along a hull's row-major odometer the linear part of
   the hash steps by the moving dimension's multiplier. *)
let kept_addresses l ~seed0 ~thresh =
  let kept = ref (Array.make 256 0) and n = ref 0 in
  let push a =
    if !n = Array.length !kept then begin
      let b = Array.make (2 * !n) 0 in
      Array.blit !kept 0 b 0 !n;
      kept := b
    end;
    Array.unsafe_set !kept !n a;
    incr n
  in
  let nh = Array.length l.hulls in
  Array.iteri
    (fun i p ->
      let size =
        (if i + 1 < nh then l.hulls.(i + 1).hbase else l.addr_space) - p.hbase
      in
      let nd = Array.length p.hlo in
      let r = Array.init nd (sample_dim_coef seed0) in
      let h0 = ref (sample_name_hash seed0 p.hname) in
      Array.iteri (fun d lo -> h0 := !h0 + (r.(d) * lo)) p.hlo;
      (* [dim d a h ext]: the [ext] values of dimension [d] from address
         [a], hash linear part [h] *)
      let rec dim d a h ext =
        if d = nd - 1 then begin
          let h = ref h and rd = r.(d) in
          for a = a to a + ext - 1 do
            if mix !h < thresh then push a;
            h := !h + rd
          done
        end
        else
          let stride = p.hstride.(d) and rd = r.(d) in
          let inner = stride / p.hstride.(d + 1) in
          for j = 0 to ext - 1 do
            dim (d + 1) (a + (j * stride)) (h + (j * rd)) inner
          done
      in
      if nd = 0 then (if mix !h0 < thresh then push p.hbase)
      else dim 0 p.hbase !h0 (size / p.hstride.(0)))
    l.hulls;
  Array.sub !kept 0 !n

let run_index ~space kept q =
  let n = Array.length kept and width = ((space - 1) / q) + 1 in
  let keys =
    if q = 1 then kept
    else if q <= (2 * n) + 64 then begin
      (* counting sort by residue: [kept] ascends, so each run does *)
      let start = Array.make (q + 1) 0 in
      Array.iter
        (fun a ->
          let r = (a mod q) + 1 in
          start.(r) <- start.(r) + 1)
        kept;
      for r = 1 to q do
        start.(r) <- start.(r) + start.(r - 1)
      done;
      let keys = Array.make n 0 in
      Array.iter
        (fun a ->
          let r = a mod q in
          keys.(start.(r)) <- (r * width) + (a / q);
          start.(r) <- start.(r) + 1)
        kept;
      keys
    end
    else begin
      let keys = Array.map (fun a -> ((a mod q) * width) + (a / q)) kept in
      Array.sort Int.compare keys;
      keys
    end
  in
  (* keys lie in [0, q * width); at most max 1 n buckets *)
  let shift = ref 0 in
  while ((q * width) - 1) lsr !shift >= max 1 n do
    incr shift
  done;
  let nb = (((q * width) - 1) lsr !shift) + 1 in
  let dir = Array.make (nb + 1) n and p = ref 0 in
  for b = 0 to nb - 1 do
    while !p < n && keys.(!p) lsr !shift < b do
      incr p
    done;
    dir.(b) <- !p
  done;
  { q; width; keys; shift = !shift; dir }

(* The first position in [r.keys] whose key is at least [k >= 0]. *)
let lower_bound r k =
  let b = k lsr r.shift in
  if b >= Array.length r.dir - 1 then Array.length r.keys
  else begin
    let keys = r.keys in
    let p = ref (Array.unsafe_get r.dir b) in
    while !p < Array.length keys && Array.unsafe_get keys !p < k do
      incr p
    done;
    !p
  end

(* Innermost loops shorter than this are hashed iteration by iteration:
   there a site's directory probe costs more than its hashes. *)
let min_skip_trip = 16

(* Accesses of the innermost loop executions of at least [min_skip_trip]
   iterations, the ones the skip walk passes by, saturating at max_int. *)
let skippable_accesses t =
  let w n st = if n < min_skip_trip then 0 else Rat.mul_exn n (accesses st) in
  match sum w (fresh_env t) t.body with
  | n -> n
  | exception Rat.Overflow -> max_int

(* Per site of an innermost loop: the run index of its address step's
   magnitude (shared by the sites of one step); a dummy for steps of 0. *)
let skip_index l ~seed0 ~thresh =
  let kept = kept_addresses l ~seed0 ~thresh in
  let by_step = Hashtbl.create 4 in
  let none = { q = 0; width = 0; keys = [||]; shift = 0; dir = [||] } in
  Array.map
    (fun q ->
      let q = abs q in
      if q = 0 then none
      else
        match Hashtbl.find_opt by_step q with
        | Some r -> r
        | None ->
            let r = run_index ~space:l.addr_space kept q in
            Hashtbl.add by_step q r;
            r)
    l.astep

(* Above this keep threshold (a quarter of the hash space) most
   iterations keep an access, and emitting them from the runs costs more
   than hashing them. *)
let max_skip_thresh = 1 lsl 60

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
  let sw = t.site_write and cls = t.site_class in
  let nsites = Array.length hform in
  let cur = Array.make nsites 0 in
  let env = fresh_env t in
  let pending = ref 0 in
  let tick n =
    pending := !pending + n;
    if !pending >= tick_stride then begin
      on_tick !pending;
      pending := 0
    end
  in
  let[@inline] emit s h =
    on_access h (Array.unsafe_get cls s) (Array.unsafe_get sw s)
  in
  (* One execution of an innermost loop, every iteration hashed: the
     per-access cost is one [mix] and one compare, and the per-site cost
     of a step one addition. *)
  let scan i0 i1 trip =
    let step () =
      for s = i0 to i1 do
        let h = mix (Array.unsafe_get cur s) in
        if h < thresh then emit s h
      done
    in
    step ();
    inner_blocks ~trip ~k:(i1 - i0 + 1) ~tick (fun block ->
        for _ = 1 to block do
          for s = i0 to i1 do
            Array.unsafe_set cur s
              (Array.unsafe_get cur s + Array.unsafe_get hstep s)
          done;
          step ()
        done)
  in
  let skip =
    match dense_layout t with
    | Some l
      when thresh <= max_skip_thresh && l.addr_space <= skippable_accesses t ->
        Some (l, skip_index l ~seed0 ~thresh)
    | Some _ | None -> None
  in
  (* The skip walk's per-site cursors: a position in the site's run
     index, the key of its first iteration and its next kept iteration
     (max_int when none is left). *)
  let pos = Array.make nsites 0 in
  let key0 = Array.make nsites 0 in
  let next = Array.make nsites max_int in
  (* One execution of an innermost loop from the kept addresses; [false]
     (nothing emitted) when a kept loop-invariant site makes it hash every
     iteration instead.  A site's hash base ([cur]) is evaluated only
     when it has a kept iteration. *)
  let skipped l runs i0 i1 trip =
    let invariant_kept = ref false in
    for s = i0 to i1 do
      if Array.unsafe_get l.astep s = 0 then begin
        let h = ceval env (Array.unsafe_get hform s) in
        Array.unsafe_set cur s h;
        if mix h < thresh then invariant_kept := true
      end
    done;
    if !invariant_kept then false
    else begin
      (* the next kept iteration of site [s] at position [p] of its run *)
      let seek s keys p =
        pos.(s) <- p;
        let j =
          if p < 0 || p >= Array.length keys then max_int
          else if l.astep.(s) > 0 then Array.unsafe_get keys p - key0.(s)
          else key0.(s) - Array.unsafe_get keys p
        in
        next.(s) <- (if j < trip then j else max_int)
      in
      for s = i0 to i1 do
        let q = l.astep.(s) in
        if q = 0 then next.(s) <- max_int
        else begin
          let r = runs.(s) and a = ceval env l.addr.(s) in
          let quo = a / r.q in
          let k = ((a - (quo * r.q)) * r.width) + quo in
          key0.(s) <- k;
          seek s r.keys
            (if q > 0 then lower_bound r k else lower_bound r (k + 1) - 1);
          if next.(s) < max_int then cur.(s) <- ceval env hform.(s)
        end
      done;
      (* merge the sites' kept iterations in (iteration, site) order *)
      let more = ref true in
      while !more do
        let j = ref max_int in
        for s = i0 to i1 do
          if next.(s) < !j then j := next.(s)
        done;
        let j = !j in
        if j = max_int then more := false
        else
          for s = i0 to i1 do
            if next.(s) = j then begin
              emit s (mix (cur.(s) + (j * hstep.(s))));
              seek s runs.(s).keys
                (if l.astep.(s) > 0 then pos.(s) + 1 else pos.(s) - 1)
            end
          done
      done;
      inner_blocks ~trip ~k:(i1 - i0 + 1) ~tick ignore;
      true
    end
  in
  let rec exec = function
    | Cstmt st ->
        tick (st.s1 - st.s0);
        for s = st.s0 to st.s1 - 1 do
          let h = mix (ceval env (Array.unsafe_get hform s)) in
          if h < thresh then emit s h
        done
    | Cloop l ->
        span l.rev (ceval env l.lo) (ceval env l.hi) (fun v ->
            env.(l.slot) <- v;
            Array.iter exec l.body)
    | Cinner c ->
        let lo_v = ceval env c.ilo and hi_v = ceval env c.ihi in
        let i0 = c.st.s0 and i1 = c.st.s1 - 1 in
        if hi_v >= lo_v && i1 >= i0 then begin
          env.(c.islot) <- (if c.irev then hi_v else lo_v);
          let trip = hi_v - lo_v + 1 in
          let skipped =
            match skip with
            | Some (l, runs) when trip >= min_skip_trip ->
                skipped l runs i0 i1 trip
            | Some _ | None -> false
          in
          if not skipped then begin
            for s = i0 to i1 do
              Array.unsafe_set cur s (ceval env (Array.unsafe_get hform s))
            done;
            scan i0 i1 trip
          end
        end
  in
  Array.iter exec t.body;
  if !pending > 0 then on_tick !pending
