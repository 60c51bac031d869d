(** The rtlint engine (the codebase prong of the static-analysis
    layer): syntactic rules over the Parsetree, parsed with the
    in-tree compiler front-end so the grammar always matches the
    toolchain.

    Rules (ids are stable, see {!Rt_check.Finding.rules}):
    - RTL001 no-poly-hash — [Hashtbl.hash] family
    - RTL002 no-poly-compare — bare/[Stdlib.compare], and [=]/[<>]
      against a Depval constructor; a file-local [let compare]
      rebinding disables the bare-ident form for that file
    - RTL003 no-wall-clock — [Unix.gettimeofday]/[Unix.time]/
      [Sys.time]/[Random.self_init] outside [lib/obs] and [lib/sim]
    - RTL004 no-captured-mutation — closures handed to [Domain_pool]
      mutating state they did not allocate
    - RTL005 depval-wildcard — catch-all cases in matches over the
      7-value lattice
    - RTL006 no-hot-loop-alloc — record/tuple construction inside a
      [while]/[for] body of the ingest path ([stream_io.ml],
      [mmap_io.ml]); raise/fail error paths are exempt
    - RTL000 suppression-needs-reason; RTL999 parse-error

    Suppression: [(* rtlint: allow RTL00X <reason> *)] on the flagged
    line, or on any line of the run of allow-comments directly above
    it (so one site can suppress several rules). *)

val lint_source : file:string -> string -> Rt_check.Finding.t list
(** Lint source text as if read from [file]; [file] also drives the
    directory-scoped rules. Findings are sorted and suppressions
    already applied. *)

val lint_raw : file:string -> string -> Rt_check.Finding.t list
(** Like {!lint_source} but before suppression application and
    unsorted — the deep pass unions these with its own findings and
    applies suppressions once over the combined set. *)

type suppression = { s_line : int; s_rule : string; s_reason : string }

val scan_suppressions : string -> suppression list
(** Every [rtlint: allow] comment in the source text, in line order. *)

val apply_suppressions :
  file:string ->
  text:string ->
  Rt_check.Finding.t list ->
  Rt_check.Finding.t list * (int * string) list
(** Apply allow-comments to raw findings. Returns the surviving
    findings (reasonless suppressions become RTL000 errors) plus the
    consumed suppression sites as sorted [(line, rule)] pairs — the
    complement against {!scan_suppressions} is what RTL998 flags. *)

val read_file : string -> string

val ml_files_under : string list -> (string list, string) result
(** Every [.ml] under the given files/directories (skipping [_build],
    [.git] and test [fixtures]), depth-first in sorted directory
    order; [Error] when a path does not exist. *)

val lint_file : string -> Rt_check.Finding.t list

val lint_paths : string list -> (Rt_check.Finding.t list, string) result
(** Recursively lint every [.ml] under the given files/directories
    (skipping [_build], [.git] and test [fixtures]); [Error] when a
    path does not exist. *)
