(** Analysis driver for parsed programs: the single rendering path behind
    [iolb analyze], [iolb bounds --file] and the differential tests.

    Byte-identity contract: for a source file that {!resolve}s to a built-in
    registry entry, {!render_source} produces exactly the bytes [iolb
    analyze <name>] (with [logs:true]) or the kernel's section of [iolb
    bounds] (with [logs:false]) prints today; for any other well-formed
    source it produces the graceful-degradation ladder report the CLI
    prints for baselines. *)

open Iolb_lang

(** [resolve src] is the registry entry whose program is
    {!Iolb_ir.Program.equal} to the parsed one with the same verify
    bindings, if any.  Resolution is structural: renaming a statement or
    perturbing a bound makes a source a custom program, never a mislabelled
    built-in. *)
val resolve : Front.source -> Iolb.Report.entry option

(** [render_analysis ~logs a] renders a registry analysis; [logs] appends
    each bound's derivation log lines as [iolb analyze] does. *)
val render_analysis : logs:bool -> Iolb.Report.analysis -> string

(** [render_outcome ~logs o] renders a ladder outcome (degradation line,
    the no-bound notice, then each bound). *)
val render_outcome : logs:bool -> Iolb.Derive.outcome -> string

(** What a KERNEL name on the command line denotes: a paper kernel with
    its registry entry, or a program analysed through the degradation
    ladder - a baseline, or a parsed [--file] source - with its verify
    sizes. *)
type subject = Paper of Iolb.Report.entry | Program of Front.source

(** [source subject] is the subject's program with its verify sizes. *)
val source : subject -> Front.source

(** [lookup name] resolves a paper kernel (by {!Iolb.Report.find}'s names)
    or a baseline.  Any other name is [Invalid_input] with
    {!Iolb.Report.find}'s message. *)
val lookup : string -> (subject, Iolb_util.Engine_error.t) result

(** [eval_entry name] is the registry entry [eval] evaluates: {!lookup}'s
    paper kernel, since [eval] needs its theorem formula.  A baseline is
    [Unsupported]; any other name is {!lookup}'s error. *)
val eval_entry : string -> (Iolb.Report.entry, Iolb_util.Engine_error.t) result

(** [point ?s ?overrides subject ~m ~n] is the concrete parameter binding
    of a subject: {!Iolb.Report.concrete_params} at [(m, n)] for a paper
    kernel, the verify sizes with [overrides] applied for a program
    ([m]/[n] are ignored there; [overrides] are rejected for paper
    kernels and must name parameters of the program).  The point must
    then satisfy every assumption of the program, and [s >= 1] when [s] is
    given; otherwise the result is [Invalid_input] naming the violated
    constraint. *)
val point :
  ?s:int ->
  ?overrides:(string * int) list ->
  subject ->
  m:int ->
  n:int ->
  ((string * int) list, Iolb_util.Engine_error.t) result

(** [render_kernel ~budget ~logs name] is the report for a {!lookup}ed
    name: the registry report for a paper kernel, the ladder report for a
    baseline. *)
val render_kernel :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  string ->
  (string, Iolb_util.Engine_error.t) result

val render_source :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  Front.source ->
  (string, Iolb_util.Engine_error.t) result

(** [render_file ~budget ~logs path] parses [path] and renders it. *)
val render_file :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  string ->
  (string, Iolb_util.Engine_error.t) result

(** [render_bounds ?jobs ~budget files] is what [iolb bounds] prints: the
    report of every registry kernel when [files] is empty, else of each
    source file, in order, rendered on [jobs] {!Iolb_util.Pool} domains.
    [budget ()] mints one budget per report, all before the fan-out: a
    deadline starts with the call, and a step or node cap counts one
    report's work, so capped output is the same at every [jobs]. *)
val render_bounds :
  ?jobs:int ->
  budget:(unit -> Iolb_util.Budget.t) ->
  string list ->
  (string, Iolb_util.Engine_error.t) result list

(** [describe src] is a one-line structural summary for [iolb check
    --parse]: parameter, statement and dependence-relation counts, plus
    the resolved built-in name when the program matches one.  A
    dependence relation is a (write, read) access pair, over any two
    statements, on a common array at equal rank. *)
val describe : Front.source -> string
