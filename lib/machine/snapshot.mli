(** Incremental snapshots of AVM state with a Merkle hash tree
    (paper §4.4, "Snapshots").

    Each snapshot carries the pages written since the previous one
    (memory dirty bits), the machine meta-state, and the Merkle root
    over {e all} pages at that instant; the AVMM records
    {!state_digest} in the tamper-evident log, and audits verify both
    downloaded snapshots and replayed executions against it through
    {!machine_digest}. The page hashes behind every root are cached in
    {!Memory} itself, so recorder and auditor alike rehash only the
    pages that changed since they were last hashed. *)

type t = {
  seq : int;  (** 0-based snapshot number *)
  at_icount : int;  (** instruction count when taken *)
  meta : string;  (** {!Machine.serialize_meta} at that instant *)
  pages : (int * string) list;  (** pages changed since snapshot [seq-1] *)
  full : bool;  (** [true] for the first snapshot (all pages present) *)
  root : string;  (** Merkle root over all page hashes *)
  page_count : int;
}

type tracker
(** Snapshot numbering for one machine: the first {!take} is full. *)

val tracker : unit -> tracker

val take : tracker -> Machine.t -> t
(** [take tr m] snapshots [m]'s current state — the pages dirtied since
    the previous take (every page on the first) — and clears the
    memory dirty bits. Must be called with the same machine each
    time. *)

val state_digest : t -> string
(** [H(meta || root || at_icount)]: the value the AVMM logs. *)

val machine_digest : ?at_icount:int -> Machine.t -> string
(** The same digest computed from a live machine: what replay checks a
    [Snapshot_ref] against and what an auditor authenticates
    downloaded state with. [at_icount] defaults to the machine's
    instruction count; pass the logged one when authenticating a
    download. *)

val size_bytes : t -> int
(** Serialized size, the unit of Figure 9's transfer costs. *)

val encode : t -> string
val decode : string -> t
(** @raise Avm_util.Wire.Malformed on garbage. *)

val chain_upto : t list -> int -> t list
(** [chain_upto snapshots upto] is the snapshots with [seq <= upto] in
    ascending-seq order — the pre-filtered chain {!materialize}
    expects. Callers replaying many chunks should build the sorted
    chain once and slice prefixes instead of calling this per chunk. *)

val materialize :
  ?mem_words:int -> image:int array -> t list -> (Machine.t, string) result
(** [materialize ~mem_words ~image chain] reconstructs the machine at
    the last snapshot of [chain] by starting from [image] and applying
    each snapshot's page deltas in order (the chain must be ascending
    and start with a full snapshot or cover every changed page since
    boot — see {!chain_upto}). Pages rewritten with the contents they
    already hold keep their cached hashes. Snapshots are untrusted
    input: a page index out of range, a page of the wrong length or a
    meta-state that does not decode is an [Error] naming the snapshot.
    @raise Invalid_argument on an empty chain. *)

val verify : Machine.t -> expected_root:string -> bool
(** [verify m ~expected_root] compares the Merkle root of [m]'s
    current memory with [expected_root]. *)

val merkle_of_machine : Machine.t -> Avm_crypto.Merkle.t
(** Merkle tree over the machine's pages ({!Memory.merkle}) — lets an
    auditor serve or check per-page inclusion proofs (partial-state
    audits, paper §7.3). *)
