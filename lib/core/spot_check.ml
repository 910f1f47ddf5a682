open Avm_tamperlog
open Avm_machine

type boundary = { entry_seq : int; snapshot_seq : int; at_icount : int }

(* Answered from the log's snapshot index — no entry data is touched,
   so a fully compressed log plans its spot checks without inflating a
   single segment. *)
let boundaries log =
  List.map
    (fun (entry_seq, snapshot_seq, at_icount) -> { entry_seq; snapshot_seq; at_icount })
    (Log.snapshot_index log)

(* A prepared audit plan: the boundary index as an array + hashtable
   (one O(n) build instead of a List.find_opt scan per lookup) and the
   snapshot chain sorted once, so every chunk slices a prefix instead
   of re-filtering the full snapshot list. *)
type plan = {
  p_bounds : boundary array; (* ascending entry_seq *)
  p_by_snap : (int, boundary) Hashtbl.t; (* snapshot_seq -> boundary *)
  p_chain : Snapshot.t array; (* ascending snapshot seq *)
}

let plan ~log ~snapshots =
  let p_bounds = Array.of_list (boundaries log) in
  let p_by_snap = Hashtbl.create (max 16 (Array.length p_bounds)) in
  Array.iter (fun b -> Hashtbl.replace p_by_snap b.snapshot_seq b) p_bounds;
  { p_bounds; p_by_snap; p_chain = Array.of_list (Snapshot.chain_upto snapshots max_int) }

let plan_boundaries pl = Array.to_list pl.p_bounds

let boundary_of pl i =
  match Hashtbl.find_opt pl.p_by_snap i with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Spot_check: no snapshot %d in log" i)

(* The pre-filtered chain for [Snapshot.materialize]: the prefix of the
   sorted snapshot array with seq <= s. *)
let chain_to pl s =
  let n = Array.length pl.p_chain in
  let k = ref 0 in
  while !k < n && pl.p_chain.(!k).Snapshot.seq <= s do
    incr k
  done;
  Array.to_list (Array.sub pl.p_chain 0 !k)

let has_snapshot pl s = Array.exists (fun (sn : Snapshot.t) -> sn.seq = s) pl.p_chain

(* Materialize downloaded state and authenticate it against the digest
   logged at its boundary. A forged download — one that does not match,
   or cannot even be materialized — is itself the divergence. *)
let authenticated_state ~image ?mem_words ~digest ~at_icount ~entry_seq chain =
  let mismatch at detail =
    { Replay.kind = Replay.Snapshot_mismatch; at; entry_seq = Some entry_seq; detail }
  in
  match Snapshot.materialize ?mem_words ~image chain with
  | Error why ->
    Error
      (mismatch
         { Landmark.icount = at_icount; pc = 0; branches = 0 }
         ("downloaded snapshot is malformed: " ^ why))
  | Ok machine when String.equal (Snapshot.machine_digest ~at_icount machine) digest -> Ok machine
  | Ok machine ->
    Error
      (mismatch (Machine.landmark machine) "downloaded snapshot does not match the logged digest")

type chunk_report = {
  start_snapshot : int;
  k : int;
  state_bytes : int;
  log_bytes_compressed : int;
  replay_instructions : int;
  outcome : Replay.outcome;
}

(* The logged digest at a boundary — the pre-state half of a chunk
   fingerprint. Using the *claimed* digest (not a materialized state's)
   is what lets a cache hit skip the state download entirely, and it
   is sound because entries are only remembered after the miss path's
   [downloaded_state] authenticated that very claim: a forged claim
   either misses (different fingerprint) or collides with an entry
   whose execution was verified to start from the claimed state. *)
let logged_digest log (b : boundary) =
  match (Log.entry log b.entry_seq).Entry.content with
  | Entry.Snapshot_ref { digest; _ } -> digest
  | _ -> assert false

let downloaded_state pl ~image ?mem_words ~log (b : boundary) =
  authenticated_state ~image ?mem_words ~digest:(logged_digest log b) ~at_icount:b.at_icount
    ~entry_seq:b.entry_seq (chain_to pl b.snapshot_seq)

let check_chunk ?plan:pl ?cache ~image ~mem_words ~snapshots ~log ~peers ~start_snapshot
    ~k () =
  Avm_obs.Trace.with_span ~name:"spot_check.chunk"
    ~attrs:[ ("start_snapshot", string_of_int start_snapshot); ("k", string_of_int k) ]
  @@ fun () ->
  let pl = match pl with Some pl -> pl | None -> plan ~log ~snapshots in
  let start_b = boundary_of pl start_snapshot in
  let end_b = boundary_of pl (start_snapshot + k) in
  let from = start_b.entry_seq + 1 and upto = end_b.entry_seq in
  let full () =
    let log_bytes_compressed = Log.transfer_bytes log ~from ~upto in
    (* Materialize the authenticated state at the chunk's first
       snapshot; a forged download is itself the divergence, with
       nothing usable transferred or replayed. *)
    let state_bytes, replay_instructions, outcome =
      match downloaded_state pl ~image ~mem_words ~log start_b with
      | Error d -> (0, 0, Replay.Diverged d)
      | Ok machine ->
        (* What the auditor transfers: the full state at the chunk
           start (the paper's "memory + disk snapshots") plus the
           compressed log. *)
        let state_bytes =
          String.length (Machine.serialize_meta machine)
          + (Memory.page_count (Machine.mem machine) * Memory.page_size * 4)
        in
        let outcome =
          Replay.replay_chunks ~image ~mem_words ~start:machine ~peers
            ~chunks:(Log.chunk_seq log ~from ~upto) ()
        in
        let replay_instructions =
          match outcome with
          | Replay.Verified { instructions; _ } -> instructions
          | Replay.Diverged _ -> Machine.icount machine - start_b.at_icount
        in
        (state_bytes, replay_instructions, outcome)
    in
    Avm_obs.Metrics.incr ~by:state_bytes "spot_check.state_bytes";
    Avm_obs.Metrics.incr ~by:log_bytes_compressed "spot_check.log_bytes_compressed";
    Avm_obs.Metrics.incr ~by:replay_instructions "spot_check.replay_instructions";
    { start_snapshot; k; state_bytes; log_bytes_compressed; replay_instructions; outcome }
  in
  let report =
    match cache with
    | None -> full ()
    | Some c ->
      (* Fingerprinted straight off the log, segment at a time, against
         the logged boundary digest. *)
      let print () =
        let f =
          Replay_cache.fp_create ~image ~mem_words ~peers ~pre_state:(logged_digest log start_b)
            ()
        in
        Log.iter_range log ~from ~upto (Replay_cache.fp_feed f);
        Replay_cache.fp_finish f
      in
      Replay_cache.memo c ~print
        ~hit:(fun { Replay_cache.instructions; entries_consumed } ->
          (* Nothing downloaded, nothing executed: the audit is the
             three-digest compare, and the report says so. *)
          {
            start_snapshot;
            k;
            state_bytes = 0;
            log_bytes_compressed = 0;
            replay_instructions = 0;
            outcome = Replay.Verified { instructions; entries_consumed };
          })
        ~counts:(fun r ->
          match r.outcome with
          | Replay.Verified { instructions; entries_consumed } ->
            Some { Replay_cache.instructions; entries_consumed }
          | Replay.Diverged _ -> None)
        full
  in
  Avm_obs.Metrics.incr "spot_check.chunks_checked";
  report

let check_chunks ?par ?cache ~image ~mem_words ~snapshots ~log ~peers chunks =
  let pl = plan ~log ~snapshots in
  let job (start_snapshot, k) =
    check_chunk ~plan:pl ?cache ~image ~mem_words ~snapshots ~log ~peers ~start_snapshot
      ~k ()
  in
  Audit_ctx.map ?par job chunks

(* --- snapshot-partitioned full replay (the parallel semantic audit) ------ *)

(* The full log [1..upto] cut at every snapshot boundary whose state the
   auditor can actually materialize. Each piece replays independently:
   the first from the boot image, the rest from downloaded snapshot
   state, exactly like a k=1 spot check. *)
type piece = {
  pc_start : [ `Fresh | `Boundary of boundary ];
  pc_from : int;
  pc_upto : int;
}

let pieces pl ~upto =
  let cuts =
    List.filter
      (fun b -> b.entry_seq < upto && has_snapshot pl b.snapshot_seq)
      (Array.to_list pl.p_bounds)
  in
  let rec go start from = function
    | [] -> [ { pc_start = start; pc_from = from; pc_upto = upto } ]
    | b :: rest ->
      { pc_start = start; pc_from = from; pc_upto = b.entry_seq }
      :: go (`Boundary b) (b.entry_seq + 1) rest
  in
  go `Fresh 1 cuts

let replay_piece pl ~image ?mem_words ?fuel ~peers ~log piece =
  Avm_obs.Trace.with_span ~name:"replay.piece"
    ~attrs:
      [ ("from", string_of_int piece.pc_from); ("upto", string_of_int piece.pc_upto) ]
  @@ fun () ->
  Avm_obs.Metrics.incr "spot_check.pieces_replayed";
  let replay start =
    Replay.replay_chunks ~image ?mem_words ?start ?fuel ~peers
      ~chunks:(Log.chunk_seq log ~from:piece.pc_from ~upto:piece.pc_upto)
      ()
  in
  match piece.pc_start with
  | `Fresh -> replay None
  | `Boundary b -> (
    match downloaded_state pl ~image ?mem_words ~log b with
    | Error d -> Replay.Diverged d
    | Ok machine -> replay (Some machine))

(* Merge per-piece outcomes in sequence order: the earliest diverged
   piece wins (its replay saw exactly the states the sequential pass
   would have seen there — see the mli), and an all-verified run sums
   to the sequential totals because piece boundaries telescope. *)
let merge_outcomes outcomes =
  let rec go instructions fed = function
    | [] -> Replay.Verified { instructions; entries_consumed = fed }
    | Replay.Diverged d :: _ -> Replay.Diverged d
    | Replay.Verified { instructions = i; entries_consumed = f } :: rest ->
      go (instructions + i) (fed + f) rest
  in
  go 0 0 outcomes

let parallel_replay ?par ~image ?mem_words ?fuel ~snapshots ~log ~peers ?upto () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  let streaming () =
    Replay.replay_chunks ~image ?mem_words ?fuel ~peers
      ~chunks:(Log.chunk_seq log ~from:1 ~upto)
      ()
  in
  Audit_ctx.with_parallelism ?par (fun p ->
      match p with
      | None -> streaming ()
      | Some pool -> (
        let pl = plan ~log ~snapshots in
        match pieces pl ~upto with
        | [ _ ] | [] ->
          (* nothing to partition: plain streaming replay *)
          streaming ()
        | ps ->
          merge_outcomes
            (Avm_util.Domain_pool.map_list pool
               (replay_piece pl ~image ?mem_words ?fuel ~peers ~log)
               ps)))
