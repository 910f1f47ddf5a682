(** Deduplicated re-execution: a fleet-wide memo table for replay
    chunks (ROADMAP item 2, after "The Efficient Server Audit Problem,
    Deduplicated Re-execution, and the Web").

    A replay chunk is fingerprinted by what {e determines} its
    execution — the guest image digest, the authenticated pre-state
    digest it starts from, and a digest of its input-event stream —
    and the table remembers what the one full replay of that
    fingerprint {e established}: that the chunk's claims (the output
    payloads it logged and the post-state digest it sealed with) are
    exactly what deterministic re-execution produces, together with
    the instruction/entry counts of that verified replay. An identical
    chunk anywhere else in the fleet then audits as a three-digest
    compare: fingerprint match, claimed-outputs match, claimed
    post-state match. Any claim that differs from the cached one is a
    {e miss}, never a hit — so a cheater whose inputs collide with an
    honest node's cached chunk still gets fully replayed (and caught),
    because its tampered snapshot digest or forged outputs cannot
    equal the honest claims without breaking SHA-256.

    The remaining attack surface is a {e poisoned} table entry (an
    adversary who can write to the auditor's cache inserts its own
    claims as "verified"). The defense is spot-check scheduling
    (paper §3.5 applied to the cache): a seeded, fingerprint-
    deterministic minority of chunks is designated for full replay
    {e even on a hit}; a cached entry whose claims full replay fails
    to reproduce is evicted and counted under [replay.cache_poisoned].
    Determinism in the fingerprint (not in cache state or audit order)
    keeps verdict vectors identical across job counts.

    Domain-safety follows the {!Avm_crypto.Sigcache} design — bounded
    FIFO eviction — except the store is genuinely shared
    (lock-striped) rather than per-domain, because one epoch's
    (target, witness) jobs must dedup against each other across
    {!Witness.run_sharded} worker domains. There is no global switch:
    an audit without a cache is one that is given none. *)

type t

val create : ?capacity:int -> ?stripes:int -> ?spot_rate:int -> ?seed:int64 -> unit -> t
(** A fresh cache. [capacity] bounds total remembered chunks (default
    8192, FIFO per stripe); [stripes] is the lock-striping factor
    (default 16, rounded up to a power of two); [spot_rate] designates
    1-in-[spot_rate] fingerprints for full replay even on hit
    (default 8; [0] disables spot checks, [1] replays every hit);
    [seed] keys the designation so an adversary cannot predict — or a
    test can force — which chunks escape the cache. *)

val clear : t -> unit
val size : t -> int
val capacity : t -> int

val fuel : int
(** The replay budget of every cached path ({!Replay.default_fuel} is
    this constant). A remembered replay that needed more instructions
    is never a hit. *)

(** {1 Fingerprints} *)

type print
(** The fingerprint of one replay chunk {e plus} the chunk's claims:
    [key] (SHA-256 over image digest, memory geometry, landmark
    strictness, pre-state digest and the input-event stream), a
    separate digest of the auditor's peer map (matched only for
    packet-emitting chunks — see {!remember}), the claimed post-state
    digest (the last [Snapshot_ref] in the chunk, [""] if none) and
    the claimed-outputs digest (every [Send] destination/payload and
    every [Snapshot_ref] digest, in sequence order). Claim fields are
    deliberately {e excluded} from [key]: inputs determine execution,
    claims are what execution must be checked against. *)

type fp
(** A streaming fingerprint builder (one pass, no entry list
    materialized — segments feed it straight from {!Avm_tamperlog.Log.iter_range}). *)

val fp_create :
  image:int array ->
  ?mem_words:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  pre_state:string ->
  unit ->
  fp

val fp_feed : fp -> Avm_tamperlog.Entry.t -> unit
val fp_finish : fp -> print

val fingerprint :
  image:int array ->
  ?mem_words:int ->
  ?strict_landmarks:bool ->
  peers:(int * string) list ->
  pre_state:string ->
  Avm_tamperlog.Entry.t list ->
  print
(** [fp_create] / [fp_feed] / [fp_finish] over a materialized chunk. *)

val key_hex : print -> string
(** Hex of the lookup key (tests, debugging). *)

(** {1 The memo protocol}

    {!Spot_check.check_chunk} runs it through {!memo};
    {!Online_audit.Session} calls {!find} and later {!settle}. *)

type cached = { instructions : int; entries_consumed : int }
(** What the original verified replay measured — a hit reconstructs
    the exact [Replay.Verified] payload, so verdict vectors are
    byte-identical cache-on vs cache-off. *)

val find : t -> print -> [ `Hit of cached | `Spot of cached | `Miss ]
(** [`Hit c]: fingerprint present and {e both} claim digests equal the
    cached ones — the chunk is verified without replay. [`Spot c]:
    same, but this fingerprint is designated for spot-check replay;
    the caller must replay fully and then {!settle} with [~spot:(Some
    c)]. [`Miss]: absent, claims differ (counted under
    [replay.cache_claim_mismatches]), or the cached replay needed more
    than {!fuel} instructions. Bumps [replay.cache_hits] /
    [replay.cache_misses] / [replay.cache_bytes_saved]. *)

val settle : t -> print -> spot:cached option -> emitted:bool -> cached option -> unit
(** The post-replay half of the protocol. [settle t p ~spot ~emitted
    verified] reports a finished replay of [p]: [verified] is its
    counts, [None] if it diverged. After a spot-designated hit
    ([spot = Some c]) the entry is confirmed if [verified = Some c],
    and otherwise evicted and counted under [replay.cache_poisoned].
    After a miss ([spot = None]) a verified replay is remembered, with
    [emitted] (did it emit guest packets? see {!measure_replay}) as its
    peers sensitivity. *)

val memo :
  t -> print:(unit -> print) -> hit:(cached -> 'a) -> counts:('a -> cached option) ->
  (unit -> 'a) -> 'a
(** [memo t ~print ~hit ~counts replay] runs the whole protocol around
    one replay thunk: {!find} on [print ()], [hit] on a plain hit,
    otherwise [replay ()] under {!measure_replay} followed by {!settle}
    on its [counts]. The outcome equals what [replay ()] would return,
    except against a poisoned entry on a non-designated fingerprint —
    the window the seeded spot checks bound. Each path's wall time,
    fingerprint included, lands in [spot_check.cache_hit_seconds],
    [spot_check.cache_spot_seconds] or [spot_check.cache_miss_seconds]. *)

val remember :
  t -> print -> ?peers_sensitive:bool -> instructions:int -> entries_consumed:int ->
  unit -> unit
(** Store the result of a full {e verified} replay of [print]. Only
    verified outcomes may be remembered (divergences must re-replay
    everywhere — they are evidence, not overhead).

    [peers_sensitive] (default [true], the conservative choice) says
    whether that replay emitted any guest packet. The peer map is the
    one execution input kept {e out} of the fingerprint key — it only
    matters when packets are emitted, and fleet nodes all have
    different witness maps, so folding it into the key would kill
    cross-node dedup of the idle majority. Instead the rememberer's
    peers digest is stored with the entry and enforced on hit only
    when [peers_sensitive]; emission is itself determined by the
    fingerprint, so fingerprint-equal chunks agree on the flag. Use
    {!measure_replay} to compute it. *)

val note_packet_emitted : unit -> unit
(** Called by the replay engine once per guest packet emission (mapped
    to a peer or not); feeds {!measure_replay}. *)

val measure_replay : (unit -> 'a) -> 'a * bool
(** Run a replay thunk and report whether it emitted guest packets
    (the {!note_packet_emitted} delta around the call). Deltas from
    concurrent domains can only inflate the answer — pollution makes
    an entry peers-sensitive that needn't be, costing cross-peer hits
    but never soundness. *)

type stats = {
  hits : int;
  misses : int;
  spot_checks : int;
  claim_mismatches : int;
  poisoned : int;
  bytes_saved : int;
  instructions_saved : int;
}

val stats : t -> stats
(** This instance's counters (the [replay.cache_*] metrics aggregate
    across instances). *)
