(* Shared plumbing for the workloads: harness spans, counter deltas,
   the per-iteration sample, and the statistics the report uses. *)

module Metrics = Avm_obs.Metrics
module Clock = Avm_obs.Clock

(* --- Harness spans ------------------------------------------------------- *)

(* Spans recorded by the benchmark's own code around public calls into
   [lib/]. They live in memory until the run writes them out at exit.
   With tracing off, [span] is a plain call. *)

type span = { name : string; iter : int; start_s : float; dur_s : float; depth : int }

let tracing = ref false
let iteration = ref 0
let depth = ref 0
let recorded : span list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let d = !depth in
    depth := d + 1;
    let t0 = Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        depth := d;
        recorded :=
          { name; iter = !iteration; start_s = t0; dur_s = Clock.now_s () -. t0; depth = d }
          :: !recorded)
      f
  end

(* Total duration of this iteration's harness spans that [keep]s. *)
let spans_s keep =
  List.fold_left
    (fun acc s -> if s.iter = !iteration && keep s then acc +. s.dur_s else acc)
    0.0 !recorded

let span_total name = spans_s (fun s -> s.name = name)

(* The outermost spans: the phase time that layer calls account for. *)
let covered_s () = spans_s (fun s -> s.depth = 0)

let timed f =
  let t0 = Clock.now_s () in
  let v = f () in
  (v, Clock.now_s () -. t0)

(* The program's own spans of this iteration (the ring is cleared
   before each iteration), as durations in ms. *)
let program_ms name =
  List.filter_map
    (fun (s : Avm_obs.Trace.span) ->
      if s.Avm_obs.Trace.name = name then Some (s.Avm_obs.Trace.dur_us /. 1e3) else None)
    (Avm_obs.Trace.spans ())

(* --- Counters ------------------------------------------------------------ *)

(* Counter snapshots around a phase the harness owns. *)
type phase = { before : Metrics.snapshot; after : Metrics.snapshot }

let delta p name =
  float_of_int (Metrics.counter p.after name - Metrics.counter p.before name)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- One iteration of a workload ---------------------------------------- *)

type sample = {
  setup_s : float;  (** key generation, image compile, world creation *)
  record_s : float;  (** host seconds of the record phase *)
  record_entries : int;  (** log entries appended while recording *)
  audit_s : float;  (** host seconds of the audit phase *)
  audit_entries : int;  (** log entries taken to a verdict *)
  virtual_s : float;  (** virtual seconds recorded *)
  stored_bytes : int;  (** log bytes at rest after recording *)
  wire_bytes : int;  (** [net.bytes_sent] *)
  own : float list;  (** samples of the workload's own metrics (its [report]) *)
  targets : int;  (** nodes whose verdict was checked against ground truth *)
  errors : int;  (** missed cheats + false flags + audits that raised *)
  signature : string;  (** digest of the verdict vector *)
  layers : (string * string * float) list;
      (** per-layer (name, unit, value); empty on untraced iterations *)
  attributed_s : float;  (** phase time covered by layer spans *)
}

(* --- Statistics ---------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs p =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it, if any. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

(* One line of the end-to-end report: a median over [n] samples, and
   the tail percentile if one has ten samples beyond it. *)
type line = { name : string; unit : string; value : float; n : int; tail : (float * float) option }

let summary name unit xs =
  let n = List.length xs in
  let tail = Option.map (fun p -> (p, percentile xs p)) (tail_percentile n) in
  { name; unit; value = median xs; n; tail }

(* --- Process-level readings ---------------------------------------------- *)

(* The process's peak resident memory, from Linux's [VmHWM]. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
      in
      scan ())

(* --- Per-layer metrics ---------------------------------------------------- *)

(* Busy seconds of each witness-pool shard ([witness.shardN.seconds]). *)
let shard_seconds (snap : Metrics.snapshot) =
  List.filter_map
    (fun (name, (h : Metrics.histogram)) ->
      if String.starts_with ~prefix:"witness.shard" name && String.ends_with ~suffix:".seconds" name
      then Some h.Metrics.total
      else None)
    snap.Metrics.histograms

(* The per-layer metrics of one traced iteration, as (name, unit,
   value); a layer the workload does not use reports 0. [record] and
   [audit] are the counter phases; a workload whose record and audit
   interleave inside one public call passes that call for both.
   [measured] supplies the values read from outcome fields and harness
   spans: net.run_s, sim.events, audit.syntactic_s, audit.semantic_s,
   witness.audit_s and pool.lanes. *)
let layers ~record ~audit ~audit_entries measured =
  let r = delta record and a = delta audit in
  let whole name = delta { before = record.before; after = audit.after } name in
  let m name = List.assoc name measured in
  let pct name p = match program_ms name with [] -> 0.0 | ds -> percentile ds p in
  let shards = shard_seconds audit.after in
  let shard_max = List.fold_left Float.max 0.0 shards in
  let shard_mean = ratio (List.fold_left ( +. ) 0.0 shards) (float_of_int (List.length shards)) in
  let sig_hits = a "crypto.sig_cache_hits" in
  let cache_hits = a "replay.cache_hits" and cache_misses = a "replay.cache_misses" in
  [
    ("net.run_s", "s", m "net.run_s");
    ("sim.events", "count", m "sim.events");
    ("net.packets_sent", "count", r "net.packets_sent");
    ("net.retransmissions", "count", r "net.retransmissions");
    ("avmm.instructions", "count", r "avmm.instructions");
    ("avmm.events_logged", "count", r "avmm.events_logged");
    ("avmm.sends", "count", r "avmm.sends");
    ("record.rsa_signs", "count", r "crypto.rsa_signs");
    ("record.rsa_verifies", "count", r "crypto.rsa_verifies");
    ("log.entries_appended", "count", whole "log.entries_appended");
    ("log.segments_sealed", "count", whole "log.segments_sealed");
    ("log.bytes_sealed", "B", whole "log.bytes_sealed");
    ("log.bytes_compressed", "B", whole "log.bytes_compressed");
    ("log.inflate_cache_hits", "count", whole "log.inflate_cache_hits");
    ("log.inflate_cache_misses", "count", whole "log.inflate_cache_misses");
    ("audit.syntactic_s", "s", m "audit.syntactic_s");
    ("audit.semantic_s", "s", m "audit.semantic_s");
    ("audit.entries_checked", "count", a "audit.entries_checked");
    ("audit.recv_signatures_verified", "count", a "audit.recv_signatures_verified");
    ("audit.chunk_ms_p50", "ms", pct "audit.chunk" 50.0);
    ("audit.chunk_ms_p95", "ms", pct "audit.chunk" 95.0);
    ("audit.rsa_verifies", "count", a "crypto.rsa_verifies");
    ("audit.rsa_batched", "count", a "crypto.rsa_batched");
    ("audit.sig_cache_hits", "count", sig_hits);
    ("audit.sig_cache_hit_rate", "share", ratio sig_hits (sig_hits +. a "crypto.sig_cache_misses"));
    ("audit.digest_bytes", "B", a "crypto.digest_bytes");
    ( "audit.digest_bytes_per_entry", "B/entry",
      ratio (a "crypto.digest_bytes") (float_of_int audit_entries) );
    ("replay.instructions", "count", a "replay.instructions");
    ("replay.entries_fed", "count", a "replay.entries_fed");
    ("replay.chunks_replayed", "count", a "replay.chunks_replayed");
    ("replay.mips", "MIPS", ratio (a "replay.instructions") (m "audit.semantic_s") /. 1e6);
    ("replay_cache.hits", "count", cache_hits);
    ("replay_cache.misses", "count", cache_misses);
    ("replay_cache.hit_rate", "share", ratio cache_hits (cache_hits +. cache_misses));
    ("replay_cache.spot_checks", "count", a "replay.cache_spot_checks");
    ("replay_cache.bytes_saved", "B", a "replay.cache_bytes_saved");
    ("spot_check.pieces_replayed", "count", a "spot_check.pieces_replayed");
    ("spot_check.replay_instructions", "count", a "spot_check.replay_instructions");
    ("spot_check.state_bytes", "B", a "spot_check.state_bytes");
    ("witness.jobs", "count", a "witness.jobs");
    ("witness.audit_s", "s", m "witness.audit_s");
    ("witness.shard_s_max", "s", shard_max);
    ("witness.shard_skew", "ratio", ratio shard_max shard_mean);
    ("pool.lanes", "count", m "pool.lanes");
    ("service.pump_ms_p50", "ms", pct "service.pump" 50.0);
    ("service.entries_ingested", "count", a "service.entries_ingested");
    ("online_audit.advances", "count", a "online_audit.advances");
    ("online_audit.chunks_retired", "count", a "online_audit.chunks_retired");
    ("online_audit.backpressure_engaged", "count", a "online_audit.backpressure_engaged");
  ]
