(* Deduplicated re-execution (Replay_cache, DESIGN.md §14): the memo
   protocol's unit behavior on the two paths that run it — k = 1
   spot-check chunks and online sessions — its adversarial edges (a
   planted cheat whose fingerprint collides with a cached honest chunk,
   and a poisoned table entry), and the QCheck equivalence property
   that chunk audits draw identical verdicts with the cache cold, warm,
   cleared mid-audit, or not given at all, at 1 and 4 auditor jobs,
   over randomly tampered logs. *)

open Avm_core
open Avm_tamperlog
module Identity = Avm_crypto.Identity
module Rng = Avm_util.Rng
module Machine = Avm_machine.Machine

(* --- fixtures (a small echo session, as in test_core) -------------------- *)

let guest_src =
  {|
fn main() {
  out(NET_TX, 1);
  out(NET_TX, 77);
  out(NET_TX, in(CLOCK));
  out(NET_TX_SEND, 0);
  while (1) {
    var avail = in(NET_RX_AVAIL);
    while (avail > 0) {
      var len = in(NET_RX_LEN);
      out(NET_TX, 1);
      while (len > 0) { out(NET_TX, in(NET_RX) + 1); len = len - 1; }
      out(NET_RX_NEXT, 0);
      out(NET_TX_SEND, 0);
      avail = in(NET_RX_AVAIL);
    }
  }
}
|}

let guest_image = lazy (Avm_mlang.Compile.compile ~stack_top:4096 guest_src).Avm_isa.Asm.words
let image () = Lazy.force guest_image
let idrng = Rng.create 909L
let ca = Identity.create_ca idrng ~bits:512 "ca"
let alice = Identity.issue ca idrng ~bits:512 "alice"
let bob = Identity.issue ca idrng ~bits:512 "bob"
let cert_of name = Identity.certificate (if name = "alice" then alice else bob)
let peers_a = [ (0, "alice"); (1, "bob") ]
let peers_b = [ (0, "bob"); (1, "alice") ]

(* One recorded session (bob is the node under audit), snapshotted
   every 50 ms so its k = 1 chunks cover most of the log. Recorded
   once; every test forks the log rather than re-running the session. *)
let session =
  lazy
    (let config = Config.make ~snapshot_every_us:(Some 50_000) Config.Avmm_rsa768 in
     let a_out = Queue.create () and b_out = Queue.create () in
     let a =
       Avmm.create ~identity:alice ~config ~image:(image ()) ~mem_words:4096
         ~peers:peers_a
         ~on_send:(fun e -> Queue.add e a_out)
         ()
     in
     let b =
       Avmm.create ~identity:bob ~config ~image:(image ()) ~mem_words:4096 ~peers:peers_b
         ~on_send:(fun e -> Queue.add e b_out)
         ()
     in
     let shuttle src dst outq =
       while not (Queue.is_empty outq) do
         let env = Queue.pop outq in
         match Avmm.deliver dst env ~sender_cert:(cert_of env.Wireformat.src) with
         | `Ack ack | `Duplicate ack ->
           ignore (Avmm.accept_ack src ack ~acker_cert:(cert_of ack.Wireformat.acker))
         | `Rejected r -> Alcotest.failf "rejected: %s" r
       done
     in
     let t = ref 0.0 in
     for _ = 1 to 30 do
       t := !t +. 10_000.0;
       ignore (Avmm.run_slice a ~until_us:!t);
       ignore (Avmm.run_slice b ~until_us:!t);
       shuttle a b a_out;
       shuttle b a b_out
     done;
     b)

let bob () = Lazy.force session

let fresh_pre_state () = Avm_machine.Snapshot.machine_digest (Machine.create ~mem_words:4096 (image ()))

(* The session's k = 1 spot-check chunks, as (start snapshot, first
   entry, last entry): one per pair of consecutive snapshot boundaries. *)
let chunks log =
  let rec go = function
    | (b0 : Spot_check.boundary) :: (b1 :: _ as rest) ->
      (b0.snapshot_seq, b0.entry_seq + 1, b1.entry_seq) :: go rest
    | _ -> []
  in
  go (Spot_check.boundaries log)

(* What [Spot_check.check_chunk] fingerprints for the chunk at [start]:
   its entries, against the digest logged at its opening boundary. *)
let chunk_print log start =
  let _, from, upto = List.find (fun (s, _, _) -> s = start) (chunks log) in
  let pre_state =
    match (Log.entry log (from - 1)).Entry.content with
    | Entry.Snapshot_ref { digest; _ } -> digest
    | _ -> assert false
  in
  Replay_cache.fingerprint ~image:(image ()) ~mem_words:4096 ~peers:peers_b ~pre_state
    (Log.segment log ~from ~upto)

let check_chunk ?cache log start =
  (Spot_check.check_chunk ?cache ~image:(image ()) ~mem_words:4096
     ~snapshots:(Avmm.snapshots (bob ())) ~log ~peers:peers_b ~start_snapshot:start ~k:1 ())
    .Spot_check.outcome

let first_send log ~from ~upto =
  let found = ref 0 in
  (try
     Log.iter_range log ~from ~upto (fun e ->
         match e.Entry.content with
         | Entry.Send _ ->
           found := e.Entry.seq;
           raise Exit
         | _ -> ())
   with Exit -> ());
  !found

(* The first k = 1 chunk holding a SEND, and that SEND's seq. *)
let chunk_with_send log =
  List.find_map
    (fun (start, from, upto) ->
      match first_send log ~from ~upto with 0 -> None | seq -> Some (start, seq))
    (chunks log)
  |> Option.get

let tamper_send log seq =
  match (Log.entry log seq).Entry.content with
  | Entry.Send s -> Log.tamper_reseal log seq (Entry.Send { s with payload = s.payload ^ "x" })
  | _ -> assert false

let counts = function
  | Replay.Verified { instructions; entries_consumed } -> (instructions, entries_consumed)
  | o -> Alcotest.failf "expected verified, got %s" (Format.asprintf "%a" Replay.pp_outcome o)

(* --- unit: the memo protocol --------------------------------------------- *)

(* Second check of the same chunk hits, and the hit reconstructs the
   first replay's exact Verified payload. *)
let test_hit_reconstructs_outcome () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let log = Avmm.log (bob ()) in
  let start, _, _ = List.hd (chunks log) in
  let first = check_chunk ~cache log start in
  let second = check_chunk ~cache log start in
  Alcotest.(check (pair int int)) "same payload" (counts first) (counts second);
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Replay_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Replay_cache.hits;
  Alcotest.(check bool) "bytes saved" true (s.Replay_cache.bytes_saved > 0)

(* A cheat that shares an honest chunk's inputs (hence its fingerprint
   key) cannot share its claims: the lookup must answer Miss, full
   replay must run, and the cheat must be caught — a poisoned-by-
   construction collision cannot launder a tampered log through a
   warm cache. *)
let test_planted_cheat_colliding_fingerprint_caught () =
  let cache = Replay_cache.create ~spot_rate:0 () in
  let honest = Avmm.log (bob ()) in
  let start, seq = chunk_with_send honest in
  (* Warm the cache with the honest chunk. *)
  (match check_chunk ~cache honest start with
  | Replay.Verified _ -> ()
  | o -> Alcotest.failf "honest replay diverged: %s" (Format.asprintf "%a" Replay.pp_outcome o));
  (* Tamper a SEND payload: the payload is a claim (outputs digest),
     not an input — the tampered chunk fingerprints to the SAME key. *)
  let forked = Log.fork honest in
  tamper_send forked seq;
  Alcotest.(check string) "fingerprints collide"
    (Replay_cache.key_hex (chunk_print honest start))
    (Replay_cache.key_hex (chunk_print forked start));
  (match check_chunk ~cache forked start with
  | Replay.Diverged _ -> ()
  | Replay.Verified _ -> Alcotest.fail "tampered chunk laundered through the cache");
  let s = Replay_cache.stats cache in
  Alcotest.(check bool) "claim mismatch counted" true (s.Replay_cache.claim_mismatches >= 1)

(* Cache poisoning: an adversary writes the cheater's own claims into
   the table as "verified", so the lookup hits. At spot rate 1 every
   hit is designated for full replay: the replay diverges from the
   forged entry, the verdict stands, and the entry is evicted under
   [poisoned]. *)
let test_poisoned_entry_caught_by_spot_check () =
  let cache = Replay_cache.create ~spot_rate:1 () in
  let forked = Log.fork (Avmm.log (bob ())) in
  let start, seq = chunk_with_send forked in
  Log.tamper_reseal forked seq (Entry.Note "poisoned");
  (* The poison: claims of the tampered chunk, fabricated counts. *)
  Replay_cache.remember cache (chunk_print forked start) ~instructions:1 ~entries_consumed:1 ();
  (match check_chunk ~cache forked start with
  | Replay.Diverged _ -> ()
  | Replay.Verified _ -> Alcotest.fail "poisoned cache entry laundered a cheat");
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "spot designated" 1 s.Replay_cache.spot_checks;
  Alcotest.(check int) "poison detected and evicted" 1 s.Replay_cache.poisoned;
  Alcotest.(check int) "entry gone" 0 (Replay_cache.size cache)

(* The same poisoning against an online session: the planted entry
   claims the tampered first chunk verified. The spot-designated hit
   replays, diverges, and the session must evict the entry as the
   chunk path does — not only set its verdict. *)
let test_online_poisoned_entry_evicted () =
  let cache = Replay_cache.create ~spot_rate:1 () in
  let b = bob () in
  let forked = Log.fork (Avmm.log b) in
  let first_boundary = (List.hd (Spot_check.boundaries forked)).Spot_check.entry_seq in
  let seq = first_send forked ~from:1 ~upto:first_boundary in
  Alcotest.(check bool) "first chunk has a send" true (seq > 0);
  tamper_send forked seq;
  Replay_cache.remember cache
    (Replay_cache.fingerprint ~image:(image ()) ~mem_words:4096 ~peers:peers_b
       ~pre_state:(fresh_pre_state ())
       (Log.segment forked ~from:1 ~upto:first_boundary))
    ~instructions:1 ~entries_consumed:first_boundary ();
  let s =
    Online_audit.Session.open_session ~image:(image ()) ~mem_words:4096 ~replay_rate:1.0 ~cache
      ~snapshot_of:(fun () -> Avmm.snapshots b)
      ~peers:peers_b ()
  in
  ignore (Online_audit.Session.ingest s forked);
  let rec drain n =
    match Online_audit.Session.step s ~budget_instructions:1_000_000_000 with
    | Some v -> Some v
    | None -> if n > 0 then drain (n - 1) else None
  in
  (match drain 10 with
  | Some (Online_audit.Diverged _) -> ()
  | _ -> Alcotest.fail "online session did not report the tampered send");
  let st = Replay_cache.stats cache in
  Alcotest.(check int) "spot designated" 1 st.Replay_cache.spot_checks;
  Alcotest.(check int) "poison detected and evicted" 1 st.Replay_cache.poisoned;
  Alcotest.(check int) "entry gone" 0 (Replay_cache.size cache)

(* Honest spot-designated hits replay fully, agree, and keep the entry. *)
let test_spot_check_confirms_honest_entry () =
  let cache = Replay_cache.create ~spot_rate:1 () in
  let log = Avmm.log (bob ()) in
  let start, _, _ = List.hd (chunks log) in
  let first = check_chunk ~cache log start in
  let second = check_chunk ~cache log start in
  Alcotest.(check (pair int int)) "same payload" (counts first) (counts second);
  let s = Replay_cache.stats cache in
  Alcotest.(check int) "spot designated" 1 s.Replay_cache.spot_checks;
  Alcotest.(check int) "no poison" 0 s.Replay_cache.poisoned;
  Alcotest.(check int) "entry kept" 1 (Replay_cache.size cache)

let test_fifo_bound () =
  let cache = Replay_cache.create ~capacity:4 ~stripes:1 ~spot_rate:0 () in
  for i = 1 to 10 do
    let p =
      Replay_cache.fingerprint ~image:(image ()) ~peers:[]
        ~pre_state:(Printf.sprintf "state-%d" i)
        []
    in
    Replay_cache.remember cache p ~instructions:i ~entries_consumed:0 ()
  done;
  Alcotest.(check bool) "bounded" true (Replay_cache.size cache <= 4);
  Alcotest.(check int) "capacity" 4 (Replay_cache.capacity cache)

(* --- QCheck: chunk-audit equivalence cache-on/off/cleared, jobs 1 and 4 - *)

(* One chunk audit's verdict-relevant projection. *)
let project = function
  | Replay.Verified { instructions; entries_consumed } -> Ok (instructions, entries_consumed)
  | Replay.Diverged d -> Error (Replay.kind_name d.Replay.kind, d.Replay.entry_seq)

let equivalence_prop =
  QCheck2.Test.make ~count:8 ~name:"audit verdicts: cache on = off = cleared, jobs 1 and 4"
    QCheck2.Gen.(pair (int_bound 1000) bool)
    (fun (salt, tamper) ->
      let b = bob () in
      let log = Log.fork (Avmm.log b) in
      let cs = chunks log in
      if tamper then begin
        (* Mutate a random entry the chunks cover, reseal the chain
           after it — the strong attacker from test_core's completeness
           property. *)
        let _, lo, _ = List.hd cs and _, _, hi = List.nth cs (List.length cs - 1) in
        let seq = lo + (salt mod (hi - lo + 1)) in
        let mutated =
          match (Log.entry log seq).Entry.content with
          | Entry.Send s -> Entry.Send { s with payload = s.payload ^ "x" }
          | Entry.Recv r -> Entry.Recv { r with payload = r.payload ^ "x" }
          | Entry.Ack k -> Entry.Ack { k with acked_seq = k.acked_seq + 1 }
          | Entry.Exec (Avm_machine.Event.Io_in io) ->
            Entry.Exec
              (Avm_machine.Event.Io_in { io with value = (io.value + 1) land 0xffffffff })
          | Entry.Snapshot_ref sr ->
            Entry.Snapshot_ref { sr with digest = Avm_crypto.Sha256.digest sr.digest }
          | c -> Entry.Note (Entry.describe c ^ "!")
        in
        Log.tamper_reseal log seq mutated
      end;
      let ks = List.map (fun (start, _, _) -> (start, 1)) cs in
      let audit ?cache jobs =
        List.map
          (fun r -> project r.Spot_check.outcome)
          (Spot_check.check_chunks ?cache ~par:(Audit.parallel jobs) ~image:(image ())
             ~mem_words:4096 ~snapshots:(Avmm.snapshots b) ~log ~peers:peers_b ks)
      in
      let baseline = audit 1 in
      List.for_all
        (fun jobs ->
          let cache = Replay_cache.create ~spot_rate:8 ~seed:(Int64.of_int salt) () in
          let cold = audit ~cache jobs in
          let warm = audit ~cache jobs in
          Replay_cache.clear cache;
          let cleared = audit ~cache jobs in
          let plain = audit jobs in
          if
            not
              (baseline = cold && baseline = warm && baseline = cleared && baseline = plain)
          then
            QCheck2.Test.fail_reportf
              "verdict differs at jobs=%d (tamper=%b salt=%d): cold/warm/cleared/plain must \
               equal the no-cache baseline"
              jobs tamper salt
          else true)
        [ 1; 4 ])

let () =
  Alcotest.run "dedup"
    [
      ( "replay_cache",
        [
          Alcotest.test_case "hit reconstructs outcome" `Quick test_hit_reconstructs_outcome;
          Alcotest.test_case "colliding-fingerprint cheat caught" `Quick
            test_planted_cheat_colliding_fingerprint_caught;
          Alcotest.test_case "poisoned entry caught by spot check" `Quick
            test_poisoned_entry_caught_by_spot_check;
          Alcotest.test_case "spot check confirms honest entry" `Quick
            test_spot_check_confirms_honest_entry;
          Alcotest.test_case "online spot check evicts poisoned entry" `Quick
            test_online_poisoned_entry_evicted;
          Alcotest.test_case "fifo bound" `Quick test_fifo_bound;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest ~long:false equivalence_prop ] );
    ]
