(** Spot checking: auditing k consecutive inter-snapshot segments
    instead of the whole log (paper §3.5, §6.12) — and, built on the
    same partition, the snapshot-parallel semantic audit.

    The log is divided into {e segments} by its Snapshot_ref entries;
    [k] consecutive segments form a {e k-chunk}. To check a chunk the
    auditor downloads the machine state at the chunk's first snapshot
    (authenticated against the logged digest), the compressed log
    segment, and replays it. Cost is therefore a fixed part (state
    transfer, decompression) plus a part linear in [k] — Figure 9.

    Because chunks between snapshots are independently verifiable,
    they are also independently {e replayable}: {!parallel_replay}
    cuts the whole log at its snapshot boundaries and replays every
    piece concurrently on a {!Avm_util.Domain_pool}. *)

type boundary = { entry_seq : int; snapshot_seq : int; at_icount : int }

val boundaries : Avm_tamperlog.Log.t -> boundary list
(** The Snapshot_ref entries of a log, in order. *)

type plan
(** A prepared audit plan over one log + snapshot set: the boundary
    index as an array/hashtable (O(1) lookup instead of a list scan
    per chunk) and the snapshot chain sorted and filtered {e once}, so
    each chunk slices a prefix instead of re-filtering the full
    snapshot list. Build it once and pass it to every chunk check of
    the same session. Read-only after construction — safe to share
    across worker domains. *)

val plan : log:Avm_tamperlog.Log.t -> snapshots:Avm_machine.Snapshot.t list -> plan
val plan_boundaries : plan -> boundary list

val authenticated_state :
  image:int array ->
  ?mem_words:int ->
  digest:string ->
  at_icount:int ->
  entry_seq:int ->
  Avm_machine.Snapshot.t list ->
  (Avm_machine.Machine.t, Replay.divergence) result
(** [authenticated_state ~image ~digest ~at_icount ~entry_seq chain]
    materializes a downloaded snapshot chain ({!Avm_machine.Snapshot.chain_upto})
    and authenticates it against the [digest] logged at the
    [Snapshot_ref] entry [entry_seq]. A forged download is a
    [Snapshot_mismatch] divergence naming [entry_seq], never an
    exception: both state that does not match the digest and a chain
    that cannot be materialized at all (a page out of range or of the
    wrong length, a meta-state that does not decode). The state
    transfer step shared by {!check_chunk}, {!parallel_replay} and
    {!Online_audit}'s cache-hit re-seat.
    @raise Invalid_argument on an empty chain. *)

type chunk_report = {
  start_snapshot : int;
  k : int;
  state_bytes : int;  (** authenticated state downloaded at chunk start *)
  log_bytes_compressed : int;  (** compressed log segment shipped *)
  replay_instructions : int;
  outcome : Replay.outcome;
}

val check_chunk :
  ?plan:plan ->
  ?cache:Replay_cache.t ->
  image:int array ->
  mem_words:int ->
  snapshots:Avm_machine.Snapshot.t list ->
  log:Avm_tamperlog.Log.t ->
  peers:(int * string) list ->
  start_snapshot:int ->
  k:int ->
  unit ->
  chunk_report
(** [check_chunk ~start_snapshot ~k ...] audits the k-chunk beginning
    at snapshot [start_snapshot]. The snapshot chain is verified
    against the log's digest before replay; a forged snapshot is
    reported as a divergence. Pass [?plan] (built once) when checking
    many chunks of the same session — otherwise each call rebuilds the
    boundary index and re-sorts the snapshot chain.

    With [cache], the chunk is fingerprinted against the {e logged}
    boundary digest (no state materialized) and run through
    {!Replay_cache.memo}: a hit skips the state download and the
    replay outright — the fleet dedup fast path — which is sound
    because entries are only remembered after a miss-path replay
    from downloaded state authenticated against that same claimed
    digest.
    @raise Invalid_argument if the chunk runs past the last snapshot. *)

val check_chunks :
  ?par:Audit_ctx.parallelism ->
  ?cache:Replay_cache.t ->
  image:int array ->
  mem_words:int ->
  snapshots:Avm_machine.Snapshot.t list ->
  log:Avm_tamperlog.Log.t ->
  peers:(int * string) list ->
  (int * int) list ->
  chunk_report list
(** [check_chunks ... [(start, k); ...]] runs {!check_chunk} for every
    [(start_snapshot, k)] pair against one shared {!plan} — in
    parallel when [par] resolves to more than one lane
    ({!Audit_ctx.parallelism}). Reports come back in input order. *)

val parallel_replay :
  ?par:Audit_ctx.parallelism ->
  image:int array ->
  ?mem_words:int ->
  ?fuel:int ->
  snapshots:Avm_machine.Snapshot.t list ->
  log:Avm_tamperlog.Log.t ->
  peers:(int * string) list ->
  ?upto:int ->
  unit ->
  Replay.outcome
(** The parallel semantic audit: cut [1..upto] (default: the whole
    log) at every snapshot boundary whose state [snapshots] can
    materialize, replay all pieces concurrently (each from its
    authenticated downloaded state, the first from the boot image),
    and merge outcomes in sequence order.

    With a complete, honest snapshot set this returns exactly what the
    sequential {!Replay.replay_chunks} over the whole log returns: an
    earlier piece only verifies if its replayed state matches the
    logged digest at its end boundary, so the next piece's
    materialized start state is the state the sequential replay would
    have carried there — the first divergence (and the all-verified
    instruction/entry totals, which telescope across boundaries) is
    identical. Differences are possible only where the designs
    genuinely differ: a forged {e downloaded} snapshot is reported
    here (kind [Snapshot_mismatch]) but invisible to a sequential
    replay that never downloads state, and [fuel] bounds each piece
    rather than the whole run.

    When [par] resolves to a single lane the whole range is replayed
    by the plain streaming pass (no pieces, no downloaded state). *)
