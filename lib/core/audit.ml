open Avm_tamperlog
module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace
module Clock = Avm_obs.Clock

type ctx = Audit_ctx.ctx = {
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
  auths : Auth.t list;
  ack_grace : int;
}

let ctx = Audit_ctx.ctx

type parallelism = Audit_ctx.parallelism = {
  jobs : int;
  pool : Avm_util.Domain_pool.t option;
}

let sequential = Audit_ctx.sequential
let parallel = Audit_ctx.parallel

type syntactic_report = {
  entries_checked : int;
  auths_matched : int;
  recv_signatures_verified : int;
  failures : string list;
}

(* Every syntactic report is settled by [syn_finish], so the [audit.*]
   counters agree with the report whatever chunking produced it. *)
let record_syntactic_metrics r =
  Metrics.incr ~by:r.entries_checked "audit.entries_checked";
  Metrics.incr ~by:r.auths_matched "audit.auths_matched";
  Metrics.incr ~by:r.recv_signatures_verified "audit.recv_signatures_verified";
  Metrics.incr ~by:(List.length r.failures) "audit.failures"

module Pool = Avm_util.Domain_pool

(* The syntactic check as an incremental stream: all five checks
   (hash chain, authenticator matching, RECV sender signatures, send
   acknowledgement, input-stream cross-references) run against one
   pass over the entry stream, whose state lives in a record so a
   long-lived session ({!Online_audit}) can push entries as they
   arrive and read failures mid-stream. Only the collected
   authenticators — a set far smaller than the log — are pre-indexed
   up front; obligations that can only be settled once the cut point
   is known (unacked sends) are resolved by [syn_finish].

   A batch audit cuts its range into chunks and runs one stream per
   chunk — on the pool, or inline with one lane — then folds them in
   log order into the first ([absorb]) before [syn_finish]. A chunk
   stream opens at its boundary with the state the single stream
   would carry there: the index's chain hash, the expected next seq
   and the range's origin seq. *)

(* A failure-stream cell. [Cell_msg] is a finished message. [Cell_sig]
   is the positional placeholder of a deferred RECV signature check:
   deferring lets the stream hand whole batches to [Rsa.verify_batch];
   a placeholder that verifies is dropped at flush time, one that
   fails becomes its message in exactly the position an immediate
   check would have put it. The other two arise only in a stream that
   opens mid-range, for the two checks that depend on entries before
   the chunk; [absorb] settles them:
   - [Cell_chain] is the chunk's first chain break, dropped if an
     earlier chunk already broke (only the first break is reported);
   - [Cell_xref (seq, msg)] is an rx read whose target is not (yet) a
     RECV in this chunk, re-checked against the earlier chunks' RECVs. *)
type syn_cell =
  | Cell_msg of string
  | Cell_sig of int  (* index into the pending batch *)
  | Cell_chain of string
  | Cell_xref of int * int  (* (entry seq, referenced msg seq) *)

(* Flush once this many signature checks are queued; bounds both the
   placeholder scan and the batch array. *)
let sig_batch_cap = 512

type syn_stream = {
  ss_node : string;
  ss_peer_certs : (string * Avm_crypto.Identity.certificate) list;
  ss_ack_grace : int;
  ss_auth_by_seq : (int, Auth.t) Hashtbl.t;  (* shared, read-only *)
  ss_head : bool;  (* opens the audited range: chain and xref misses are final *)
  (* Entry hashes recomputed at inflation ([Log.chunk_spec.spec_derived]):
     past the first entry the per-entry digest comparison is a
     tautology and is skipped; every other check still runs. *)
  ss_derived : bool;
  mutable ss_failures : syn_cell list; (* newest first *)
  mutable ss_nfail : int; (* resolved failures only *)
  mutable ss_entries_checked : int;
  mutable ss_auths_matched : int;
  mutable ss_recv_sigs : int;
  (* Deferred RECV signature checks: (seq, cert, body, signature),
     newest first, batched through [Identity.verify_batch]. *)
  mutable ss_sig_pending : (int * Avm_crypto.Identity.certificate * string * string) list;
  mutable ss_sig_npending : int;
  (* Hash-chain state; only the first break is reported, matching
     [Log.verify_segment]. *)
  mutable ss_prev : string;
  mutable ss_expected_seq : int;
  mutable ss_chain_broken : bool;
  (* Cross-reference and acknowledgement state. *)
  mutable ss_first_seq : int;
  mutable ss_last_seq : int;
  ss_recv_seqs : (int, unit) Hashtbl.t;
  ss_acked : (int, unit) Hashtbl.t;
  mutable ss_pending_sends : int list;
}

let syn_cell s c = s.ss_failures <- c :: s.ss_failures

let syn_fail s fmt =
  Printf.ksprintf
    (fun m ->
      syn_cell s (Cell_msg m);
      s.ss_nfail <- s.ss_nfail + 1)
    fmt

let xref_failure seq msg = Printf.sprintf "entry #%d: rx read references non-RECV entry %d" seq msg

(* Resolve every queued signature check: one batched verification,
   then placeholders collapse in place. *)
let syn_flush s =
  if s.ss_sig_npending > 0 then begin
    let pending = Array.of_list (List.rev s.ss_sig_pending) in
    s.ss_sig_pending <- [];
    s.ss_sig_npending <- 0;
    let verdicts =
      Avm_crypto.Identity.verify_batch
        (Array.map (fun (_, cert, body, signature) -> (cert, body, signature)) pending)
    in
    s.ss_failures <-
      List.filter_map
        (function
          | Cell_sig i ->
            if verdicts.(i) then begin
              s.ss_recv_sigs <- s.ss_recv_sigs + 1;
              None
            end
            else begin
              let seq, _, _, _ = pending.(i) in
              s.ss_nfail <- s.ss_nfail + 1;
              Some (Cell_msg (Printf.sprintf "entry #%d: forged RECV — sender signature invalid" seq))
            end
          | c -> Some c)
        s.ss_failures
  end

(* Cut [xs] into at most [n] contiguous, near-equal slices, in order;
   an empty list gives one empty slice. *)
let split n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let per = max 1 ((len + n - 1) / n) in
  let rec go i cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | x :: rest when i = per -> go 1 [ x ] (List.rev cur :: acc) rest
    | x :: rest -> go (i + 1) (x :: cur) acc rest
  in
  go 0 [] [] xs

(* Verify the collected authenticators addressed to the audited node —
   batched, they share the one node key; with a pool, one batch per
   lane — and index the genuine ones by seq. Failures come back in
   authenticator order, which is also the [Hashtbl.add] order that
   [find_all] reflects. *)
let auth_index ?pool ~node_cert auths =
  let node = Avm_crypto.Identity.cert_name node_cert in
  let verify slice =
    let mine = Array.of_list (List.filter (fun (a : Auth.t) -> String.equal a.node node) slice) in
    let ok = Auth.verify_batch (Array.map (fun a -> (node_cert, a)) mine) in
    List.mapi (fun i a -> (a, ok.(i))) (Array.to_list mine)
  in
  let lanes = match pool with Some p -> Pool.jobs p | None -> 1 in
  let by_seq = Hashtbl.create 256 in
  let failures =
    List.concat (Audit_ctx.map ~par:{ jobs = 1; pool } verify (split lanes auths))
    |> List.filter_map (fun ((a : Auth.t), ok) ->
           if ok then begin
             Hashtbl.add by_seq a.seq a;
             None
           end
           else Some (Printf.sprintf "authenticator #%d: bad signature or inconsistent hash" a.seq))
  in
  (by_seq, failures)

(* [auths] is an [auth_index] result; the stream that opens the range
   reports its failures ahead of any entry's. *)
let open_stream ~ctx ~auths:(auth_by_seq, auth_failures) ~head ~derived ~origin ~prev_hash
    ~expected =
  let s =
    {
      ss_node = Avm_crypto.Identity.cert_name ctx.node_cert;
      ss_peer_certs = ctx.peer_certs;
      ss_ack_grace = ctx.ack_grace;
      ss_auth_by_seq = auth_by_seq;
      ss_head = head;
      ss_derived = derived;
      ss_failures = [];
      ss_nfail = 0;
      ss_entries_checked = 0;
      ss_auths_matched = 0;
      ss_recv_sigs = 0;
      ss_sig_pending = [];
      ss_sig_npending = 0;
      ss_prev = prev_hash;
      ss_expected_seq = expected;
      ss_chain_broken = false;
      ss_first_seq = origin;
      ss_last_seq = 0;
      ss_recv_seqs = Hashtbl.create 256;
      ss_acked = Hashtbl.create 64;
      ss_pending_sends = [];
    }
  in
  if head then List.iter (syn_fail s "%s") auth_failures;
  s

let syn_stream ~ctx ~prev_hash =
  open_stream ~ctx
    ~auths:(auth_index ~node_cert:ctx.node_cert ctx.auths)
    ~head:true ~derived:false ~origin:(-1) ~prev_hash ~expected:(-1)

let chain_break s m =
  s.ss_chain_broken <- true;
  if s.ss_head then syn_fail s "%s" m else syn_cell s (Cell_chain m)

let syn_push s (e : Entry.t) =
  let hash_derived = s.ss_derived && s.ss_entries_checked > 0 in
  s.ss_entries_checked <- s.ss_entries_checked + 1;
  if s.ss_first_seq < 0 then s.ss_first_seq <- e.seq;
  s.ss_last_seq <- e.seq;
  (* 1. Hash chain. *)
  if not s.ss_chain_broken then begin
    if s.ss_expected_seq >= 0 && e.seq <> s.ss_expected_seq then
      chain_break s
        (Printf.sprintf "chain: sequence gap: expected %d, found %d" s.ss_expected_seq e.seq)
    else if (not hash_derived) && not (Entry.chain_ok ~prev:s.ss_prev e) then
      chain_break s (Printf.sprintf "chain: hash chain broken at entry %d" e.seq)
  end;
  s.ss_prev <- e.hash;
  s.ss_expected_seq <- e.seq + 1;
  (* 2. Collected authenticators must match the log. *)
  List.iter
    (fun (a : Auth.t) ->
      if Auth.matches_entry a e then s.ss_auths_matched <- s.ss_auths_matched + 1
      else syn_fail s "authenticator #%d does not match the log (forked or rewritten log)" a.seq)
    (Hashtbl.find_all s.ss_auth_by_seq e.seq);
  match e.content with
  (* 3. RECV sender signatures, deferred into the signature batch. *)
  | Entry.Recv { src; nonce; payload; signature } ->
    Hashtbl.replace s.ss_recv_seqs e.seq ();
    if signature <> "" then begin
      match List.assoc_opt src s.ss_peer_certs with
      | None -> syn_fail s "entry #%d: no certificate for sender %s" e.seq src
      | Some cert ->
        let body = Wireformat.message_body ~src ~dest:s.ss_node ~nonce ~payload in
        syn_cell s (Cell_sig s.ss_sig_npending);
        s.ss_sig_pending <- (e.seq, cert, body, signature) :: s.ss_sig_pending;
        s.ss_sig_npending <- s.ss_sig_npending + 1;
        if s.ss_sig_npending >= sig_batch_cap then syn_flush s
    end
  (* 4. Send acknowledgement bookkeeping, settled at end of stream. *)
  | Entry.Ack { acked_seq; _ } -> Hashtbl.replace s.ss_acked acked_seq ()
  | Entry.Send _ -> s.ss_pending_sends <- e.seq :: s.ss_pending_sends
  (* 5. Input-stream references into the message stream are sane;
     references before the audited range are validated by earlier
     audits. *)
  | Entry.Exec (Avm_machine.Event.Io_in { msg; _ }) when msg >= 0 ->
    if msg >= e.seq then syn_fail s "entry #%d: rx read references future entry %d" e.seq msg
    else if msg >= s.ss_first_seq && not (Hashtbl.mem s.ss_recv_seqs msg) then
      if s.ss_head then syn_fail s "%s" (xref_failure e.seq msg)
      else syn_cell s (Cell_xref (e.seq, msg))
  | _ -> ()

let syn_failure_count s =
  syn_flush s;
  s.ss_nfail

let cell_msg = function
  | Cell_msg m -> m
  | Cell_sig _ | Cell_chain _ | Cell_xref _ -> assert false (* flushed / absorbed *)

let syn_failures s =
  syn_flush s;
  List.rev_map cell_msg s.ss_failures

let syn_report s =
  syn_flush s;
  {
    entries_checked = s.ss_entries_checked;
    auths_matched = s.ss_auths_matched;
    recv_signatures_verified = s.ss_recv_sigs;
    failures = List.rev_map cell_msg s.ss_failures;
  }

let syn_finish s =
  syn_flush s;
  (* Every send acknowledged, modulo the in-flight tail. *)
  List.iter
    (fun seq ->
      if seq <= s.ss_last_seq - s.ss_ack_grace && not (Hashtbl.mem s.ss_acked seq) then
        syn_fail s "entry #%d: SEND was never acknowledged" seq)
    (List.sort compare s.ss_pending_sends);
  let report = syn_report s in
  record_syntactic_metrics report;
  report

let syntactic_feed ~ctx ~prev_hash ~feed () =
  let s = syn_stream ~ctx ~prev_hash in
  feed (syn_push s);
  syn_finish s

(* --- chunked syntactic check --------------------------------------------- *)

(* Fold the flushed stream [c] of the next chunk into [h], the stream
   of everything before it, so that [syn_finish h] reports what one
   stream fed both would. [c]'s deferred cells resolve against [h]'s
   state before [c]'s own RECVs and chain flag join it. *)
let absorb h c =
  List.iter
    (function
      | Cell_msg m -> syn_fail h "%s" m
      | Cell_chain m -> if not h.ss_chain_broken then syn_fail h "%s" m
      | Cell_xref (seq, msg) ->
        if not (Hashtbl.mem h.ss_recv_seqs msg) then syn_fail h "%s" (xref_failure seq msg)
      | Cell_sig _ -> assert false (* flushed *))
    (List.rev c.ss_failures);
  h.ss_chain_broken <- h.ss_chain_broken || c.ss_chain_broken;
  Hashtbl.iter (Hashtbl.replace h.ss_recv_seqs) c.ss_recv_seqs;
  Hashtbl.iter (Hashtbl.replace h.ss_acked) c.ss_acked;
  h.ss_pending_sends <- List.rev_append c.ss_pending_sends h.ss_pending_sends;
  h.ss_entries_checked <- h.ss_entries_checked + c.ss_entries_checked;
  h.ss_auths_matched <- h.ss_auths_matched + c.ss_auths_matched;
  h.ss_recv_sigs <- h.ss_recv_sigs + c.ss_recv_sigs;
  if c.ss_entries_checked > 0 then h.ss_last_seq <- c.ss_last_seq

type chunk = {
  c_prev_hash : string;  (* chain hash just before the chunk *)
  c_expected : int;  (* expected first seq; -1 = no check *)
  c_origin : int;  (* first seq of the audited range; -1 = unknown yet *)
  c_derived : bool;  (* entry hashes recomputed at inflation (Log.spec_derived) *)
  c_load : unit -> Entry.t list;
}

let chunk_span i f =
  Trace.with_span ~name:"audit.chunk" ~attrs:[ ("chunk", string_of_int i) ] f

(* One stream per chunk, the first opening the range; all are pushed
   (concurrently with a pool), flushed, then folded in log order.
   [chunks] is never empty. *)
let check_chunks ~ctx ~pool chunks =
  let auths = auth_index ?pool ~node_cert:ctx.node_cert ctx.auths in
  let run (i, c) =
    let s =
      open_stream ~ctx ~auths ~head:(i = 0) ~derived:c.c_derived ~origin:c.c_origin
        ~prev_hash:c.c_prev_hash ~expected:c.c_expected
    in
    chunk_span i (fun () ->
        List.iter (syn_push s) (c.c_load ());
        syn_flush s);
    s
  in
  match Audit_ctx.map ~par:{ jobs = 1; pool } run (List.mapi (fun i c -> (i, c)) chunks) with
  | head :: rest ->
    List.iter (absorb head) rest;
    syn_finish head
  | [] -> assert false

(* Chunking a materialized list: with a pool, several contiguous
   near-equal slices per lane so the work-stealing scheduler can
   rebalance uneven chunks (signature-dense slices take far longer
   than EXEC-dense ones). Each boundary carries exactly the state the
   single stream has there. *)
let chunks_per_lane = 4

let list_chunks ~prev_hash ~pieces entries =
  let chunk (prev, expected, origin, acc) piece =
    let c =
      {
        c_prev_hash = prev;
        c_expected = expected;
        c_origin = origin;
        c_derived = false;
        c_load = (fun () -> piece);
      }
    in
    List.fold_left
      (fun (_, _, origin, acc) (e : Entry.t) ->
        (e.hash, e.seq + 1, (if origin < 0 then e.seq else origin), acc))
      (prev, expected, origin, c :: acc)
      piece
  in
  let _, _, _, acc = List.fold_left chunk (prev_hash, -1, -1, []) (split pieces entries) in
  List.rev acc

(* Chunking a segment store: one chunk per sealed segment (tail last),
   straight off the index — compressed segments inflate inside the
   worker, through the per-domain cache. *)
let log_chunks log ~from ~upto =
  let origin = max 1 from in
  match Log.chunk_specs log ~from ~upto with
  | [] ->
    [
      {
        c_prev_hash = Log.prev_hash log from;
        c_expected = -1;
        c_origin = origin;
        c_derived = false;
        c_load = (fun () -> []);
      };
    ]
  | specs ->
    List.map
      (fun (s : Log.chunk_spec) ->
        {
          c_prev_hash = s.Log.spec_prev_hash;
          c_expected = (if s.Log.spec_from <= from then -1 else s.Log.spec_from);
          c_origin = origin;
          c_derived = s.Log.spec_derived;
          c_load = s.Log.spec_load;
        })
      specs

let syntactic ~ctx ~prev_hash ~entries ?par () =
  Audit_ctx.with_parallelism ?par (fun pool ->
      let pieces = match pool with Some p -> Pool.jobs p * chunks_per_lane | None -> 1 in
      check_chunks ~ctx ~pool (list_chunks ~prev_hash ~pieces entries))

let syntactic_of_log ~ctx ~log ?(from = 1) ?upto ?par () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  Audit_ctx.with_parallelism ?par (fun pool ->
      check_chunks ~ctx ~pool (log_chunks log ~from ~upto))

(* --- the unified outcome ------------------------------------------------- *)

type outcome = {
  node : string;
  syntactic : syntactic_report;
  semantic : Replay.outcome option;
  syntactic_seconds : float;
  semantic_seconds : float;
  verdict : (unit, string) result;
  evidence : Evidence.t option;
}

(* Shared tail of [full] / [full_of_log]: run the semantic check only
   if the syntactic check passed (a broken chain is already evidence),
   and package the evidence on any fault. [segment] materializes the
   accused entries lazily — a log-backed audit inflates them only when
   it actually has an accusation to ship. *)
let conclude ~(ctx : ctx) ~syn ~prev_hash ~segment ~t0 ~t1 ~semantic =
  let node = Avm_crypto.Identity.cert_name ctx.node_cert in
  let evidence accusation =
    Some
      {
        Evidence.accused = node;
        prev_hash;
        segment = segment ();
        auths = ctx.auths;
        accusation;
      }
  in
  Metrics.observe "audit.syntactic_seconds" (t1 -. t0);
  if syn.failures <> [] then begin
    let reason = String.concat "; " syn.failures in
    Metrics.incr "audit.verdicts_faulty";
    {
      node;
      syntactic = syn;
      semantic = None;
      syntactic_seconds = t1 -. t0;
      semantic_seconds = 0.0;
      verdict = Error reason;
      evidence = evidence (Evidence.Tampered_log { reason });
    }
  end
  else begin
    let outcome = Trace.with_span ~name:"audit.semantic" semantic in
    let t2 = Clock.now_s () in
    Metrics.observe "audit.semantic_seconds" (t2 -. t1);
    let semantic_seconds = t2 -. t1 in
    match outcome with
    | Replay.Verified _ ->
      Metrics.incr "audit.verdicts_correct";
      {
        node;
        syntactic = syn;
        semantic = Some outcome;
        syntactic_seconds = t1 -. t0;
        semantic_seconds;
        verdict = Ok ();
        evidence = None;
      }
    | Replay.Diverged d ->
      Metrics.incr "audit.verdicts_faulty";
      {
        node;
        syntactic = syn;
        semantic = Some outcome;
        syntactic_seconds = t1 -. t0;
        semantic_seconds;
        verdict = Error (Format.asprintf "%a" Replay.pp_outcome (Replay.Diverged d));
        evidence = evidence (Evidence.Replay_divergence d);
      }
  end

let full ~ctx ~image ?mem_words ?start ?fuel ~peers ~prev_hash ~entries ?par () =
  Audit_ctx.with_parallelism ?par (fun p ->
      let par = { jobs = 1; pool = p } in
      let t0 = Clock.now_s () in
      let syn =
        Trace.with_span ~name:"audit.syntactic" (fun () ->
            syntactic ~ctx ~prev_hash ~entries ~par ())
      in
      let t1 = Clock.now_s () in
      conclude ~ctx ~syn ~prev_hash
        ~segment:(fun () -> entries)
        ~t0 ~t1
        ~semantic:(fun () ->
          Replay.replay ~image ?mem_words ?start ?fuel ~peers ~entries ()))

let full_of_log ~ctx ~image ?mem_words ?start ?fuel ~peers ~log ?(from = 1) ?upto
    ?snapshots ?par () =
  let upto = match upto with Some u -> u | None -> Log.length log in
  Audit_ctx.with_parallelism ?par (fun p ->
      let par = { jobs = 1; pool = p } in
      let t0 = Clock.now_s () in
      let syn =
        Trace.with_span ~name:"audit.syntactic" (fun () ->
            syntactic_of_log ~ctx ~log ~from ~upto ~par ())
      in
      let t1 = Clock.now_s () in
      (* The semantic pass partitions at snapshot boundaries only when
         it owns the whole run: a caller-supplied start state or a
         partial range keeps the plain streaming replay. *)
      let semantic () =
        match (p, snapshots, start) with
        | Some pool, Some snaps, None when from = 1 ->
          Spot_check.parallel_replay ~par:{ jobs = Pool.jobs pool; pool = Some pool } ~image
            ?mem_words ?fuel ~snapshots:snaps ~log ~peers ~upto ()
        | _ ->
          Replay.replay_chunks ~image ?mem_words ?start ?fuel ~peers
            ~chunks:(Log.chunk_seq log ~from ~upto) ()
      in
      conclude ~ctx ~syn
        ~prev_hash:(Log.prev_hash log from)
        ~segment:(fun () -> Log.segment log ~from ~upto)
        ~t0 ~t1 ~semantic)

let check_evidence (ev : Evidence.t) ~ctx ~image ?mem_words ?start ?fuel ~peers () =
  if not (String.equal (Avm_crypto.Identity.cert_name ctx.node_cert) ev.accused) then false
  else begin
    match ev.accusation with
    | Evidence.Unanswered_challenge { auth } ->
      (* The authenticator proves entries up to [auth.seq] exist; that
         is all a third party can verify offline. *)
      Auth.verify ctx.node_cert auth
    | Evidence.Equivocation { a; b } ->
      (* Pure two-signature proof: no log, no replay. Both
         authenticators must be genuine commitments by the accused at
         the same seq with different hashes; anything less (one bad
         signature, a name mismatch, equal hashes) proves nothing. *)
      String.equal a.Auth.node ev.accused
      && Auth.conflicts a b
      && Auth.verify ctx.node_cert a
      && Auth.verify ctx.node_cert b
    | Evidence.Tampered_log _ | Evidence.Replay_divergence _ -> (
      let ctx = { ctx with auths = ev.auths } in
      let o =
        full ~ctx ~image ?mem_words ?start ?fuel ~peers ~prev_hash:ev.prev_hash
          ~entries:ev.segment ()
      in
      match o.verdict with Ok () -> false | Error _ -> true)
  end

let pp_outcome fmt r =
  Format.fprintf fmt "@[<v>audit of %s:@ syntactic: %d entries, %d auths, %d recv sigs — %s@ "
    r.node r.syntactic.entries_checked r.syntactic.auths_matched
    r.syntactic.recv_signatures_verified
    (if r.syntactic.failures = [] then "PASS"
     else "FAIL: " ^ String.concat "; " r.syntactic.failures);
  (match r.semantic with
  | None -> Format.fprintf fmt "semantic: skipped@ "
  | Some o -> Format.fprintf fmt "semantic: %a@ " Replay.pp_outcome o);
  Format.fprintf fmt "verdict: %s@]"
    (match r.verdict with Ok () -> "CORRECT" | Error e -> "FAULTY (" ^ e ^ ")")
