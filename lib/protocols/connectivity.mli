(** Graph connectivity in the Broadcast Congested Clique via AGM sketches.

    Section 9 lists "graph connectivity" among the problems the paper's
    technique should be pointed at; this protocol is the natural upper
    bound such a lower bound would be measured against.  It is the
    sketching algorithm used throughout the congested-clique literature:

    + all processors share public hash seeds (public coins);
    + each Boruvka phase, every processor broadcasts {!Agm_sketch}es of
      its edge-incidence vector ([copies] independent sketches, chunked
      into [msg_bits]-wide messages);
    + by linearity every processor locally XORs each current component's
      sketches to obtain the sketch of its {e cut}, recovers one outgoing
      edge, and merges components in a shared union-find;
    + [O(log n)] phases collapse everything, for
      [O(log n * copies * log^2 n / msg_bits)] rounds total.

    The decode and merge step is a function of the transcript alone, so
    the simulator runs it once per round as the run's public state
    ({!Bcast.instance}) and every processor reads the union-find.

    Inputs are symmetric adjacency rows (use {!Gnp.sample}); asymmetric
    entries are symmetrized by OR.  All processors output the same
    component count. *)

type config = {
  n : int;
  seed : int;  (** Public hash seed. *)
  copies : int;  (** Independent sketches per phase (recovery boosting). *)
  phases : int;  (** Boruvka phases; [2 ceil(log2 n) + 3] is safe. *)
  msg_bits : int;  (** Broadcast width per round (e.g. [16]). *)
}

val default_config : n:int -> seed:int -> config

val protocol : config -> int Bcast.protocol
(** Output: the number of connected components every processor computed. *)

val rounds : config -> int

val exact_components : Digraph.t -> int
(** Reference answer (BFS over the symmetrized graph). *)

val run_on : config -> Digraph.t -> Prng.t -> int
(** Convenience: run the protocol on a graph's rows, return processor 0's
    component count. *)
