(** The experiment drivers: one function per entry of DESIGN.md's
    per-experiment index (E1-E14).

    The paper is pure theory — no measured tables or figures exist in it —
    so each experiment regenerates the corresponding {e theorem's}
    prediction as a table: the exactly-computed quantity next to the bound
    it must respect, or a protocol's measured behaviour next to the
    theorem's guarantee.  EXPERIMENTS.md records the expected shapes.

    Every driver takes a [seed] (default 42) and sizes chosen so the full
    suite completes in a few minutes; `dune exec bench/main.exe` prints all
    of them. *)

type table = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

val print : Format.formatter -> table -> unit

val to_csv : table -> string
(** Comma-separated rendering: a header row of column names, then the
    data rows; cells containing commas or quotes are quoted. *)

val to_json : table -> Artifact.json
(** The structured form of a table (id, title, columns, rows, notes). *)

val artifact : ?seed:int -> table -> Artifact.json
(** {!to_json} wrapped in the artifact envelope (schema version, seed,
    row/column counts, git describe). *)

val write_artifact : ?dir:string -> ?seed:int -> table -> string
(** Writes [EXP_<id>.json] under [dir] (default [Artifact.default_dir])
    and returns the path. *)

val e1_lemma_1_10 : ?seed:int -> unit -> table
val e2_lemma_1_8 : ?seed:int -> unit -> table
val e3_restricted_lemmas : ?seed:int -> unit -> table
val e4_one_round_transcripts : ?seed:int -> unit -> table
val e5_distinguisher_advantage : ?seed:int -> ?n:int -> unit -> table
val e6_lemma_5_2 : ?seed:int -> unit -> table
val e7_hybrid_lemmas : ?seed:int -> unit -> table
val e8_prg_fooling : ?seed:int -> unit -> table
val e9_seed_attack : ?seed:int -> unit -> table
val e10_full_rank_average_case : ?seed:int -> unit -> table
val e11_time_hierarchy : ?seed:int -> unit -> table
val e12_planted_clique_algorithm : ?seed:int -> unit -> table
val e13_newman : ?seed:int -> unit -> table
val e14_derandomization : ?seed:int -> unit -> table

(** {1 Extensions beyond the paper's stated results}

    E15-E19 exercise components the paper relies on implicitly (Claims
    2/4, the Section 3 framework) or nominates as future work (Section 9:
    triangle counting, community detection), plus the unicast baseline of
    Section 1.2. *)

val e15_consistency_sets : ?seed:int -> unit -> table
val e16_framework : ?seed:int -> unit -> table
val e17_triangles : ?seed:int -> unit -> table
val e18_sbm : ?seed:int -> unit -> table
val e19_unicast_baseline : ?seed:int -> unit -> table
val e20_structural_inequalities : ?seed:int -> unit -> table
val e21_diameter_connectivity : ?seed:int -> unit -> table
val e22_mst : ?seed:int -> unit -> table
val e23_hamiltonicity : ?seed:int -> unit -> table
val e24_connectivity : ?seed:int -> unit -> table
val e25_search_baselines : ?seed:int -> unit -> table
val e26_randomized_separation : ?seed:int -> unit -> table
val e27_f2_moment : ?seed:int -> unit -> table
val e28_toy_prg_exact : ?seed:int -> unit -> table
val e29_progress_growth : ?seed:int -> unit -> table

val e30_sparse_planted : ?seed:int -> unit -> table
(** The sparse-regime experiment: planted clique at [n = 10^5],
    [p = n^{-1/2}], sampled and recovered entirely on the CSR backend
    ([Sparse] / [Bcc_kern.Spgraph] through [Clique.Recover] and
    [Distinguishers.Generic]), plus distinguisher advantages across the
    sparse detectability boundary and in-artifact dense-vs-sparse oracle
    rows. *)

val e31_million_vertex : ?seed:int -> unit -> table
(** The million-vertex rung: planted clique at [n = 10^6] (override with
    BCC_E31_N on constrained hosts), [p = n^{-1/2}], [k = 16 n^{1/4}],
    sampled by the sharded word-level skip sampler
    ([Sparse.sample_planted_sharded]) and recovered exactly through
    [Clique.Recover] over the CSR backend, with in-artifact
    block-vs-scalar and sharded-sampler oracle rows. *)

val all : ?seed:int -> unit -> table list
(** All thirty-one, in order. *)

val by_id : string -> (?seed:int -> unit -> table) option
(** Look up a driver by its id ("e1" ... "e26"). *)

val ids : string list
