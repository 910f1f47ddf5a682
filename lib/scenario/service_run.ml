open Avm_core
module H = Fleet_harness
module Net = Avm_netsim.Net
module Rng = Avm_util.Rng
module Daemon = Avm_service.Daemon
module Log = Avm_tamperlog.Log

(* Field docs live in the interface. *)
type spec = {
  sessions : int; epochs : int; epoch_us : float;
  activity : float; cheat_frac : float; tamper_frac : float;
  seed : int64; rsa_bits : int; key_pool : int;
  max_lag : int; budget : int; replay_rate : float; dedup : bool; spot_rate : int;
}

let default_spec =
  {
    sessions = 200; epochs = 3; epoch_us = 1_000_000.0;
    activity = 0.10; cheat_frac = 0.05; tamper_frac = 0.4;
    seed = 11L; rsa_bits = 512; key_pool = 32;
    max_lag = 4096; budget = 5_000_000; replay_rate = 1.0; dedup = true; spot_rate = 8;
  }

type cheat_kind = Poke of { slot : int; value : int } | Rewrite

type cheat = { node : int; epoch : int; kind : cheat_kind }

type outcome = {
  spec : spec; events : Daemon.event list;
  cheats : cheat list; detected : int list; missed : int list; false_flagged : int list;
  entries_ingested : int; lag_p50 : int; lag_p99 : int; lag_max : int;
  detection_latency_us : (string * float) list;
  backpressure_engaged : int; backpressure_refusals : int;
  cache : Replay_cache.stats option;
  sim_events : int; run_seconds : float; service_seconds : float; drain_rounds : int;
}

let percentile sorted p =
  let n = List.length sorted in
  if n = 0 then 0 else List.nth sorted (min (n - 1) (n * p / 100))

let run ?par spec =
  if spec.sessions < 2 || spec.sessions mod 2 <> 0 then
    invalid_arg "Service_run.run: sessions must be even and >= 2";
  if spec.epochs < 1 then invalid_arg "Service_run.run: need at least one epoch";
  (* Producers are paired i <-> i xor 1: every node's epoch report (and
     its acks) goes to its partner, so one peer certificate per session
     covers the whole RECV/ACK surface. *)
  let w =
    H.create ~seed:spec.seed ~rsa_bits:spec.rsa_bits ~key_pool:spec.key_pool
      (Array.init spec.sessions (fun i -> [| i lxor 1 |]))
  in
  let rng = H.driver_rng ~salt:0x736572766963655FL spec.seed in
  let cheats =
    H.pick rng ~nodes:spec.sessions ~epochs:spec.epochs ~frac:spec.cheat_frac
      (fun ~node ~epoch ->
        let kind =
          if Rng.float rng 1.0 < spec.tamper_frac then Rewrite
          else
            (* A kv slot the workload never writes (ops use 0..250):
               invisible to the guest's own outputs, only replay against
               the sealed snapshot digest surfaces it. *)
            Poke { slot = Rng.int_in rng 251 255; value = 1 + Rng.int_in rng 0 65534 }
        in
        { node; epoch; kind })
  in
  let vals_addr = Guests.fleet_symbol "g_vals" in
  let now_us = ref 0.0 in
  let injected_at = Hashtbl.create 16 (* session id -> virtual us of injection *) in
  let events = ref [] and latencies = ref [] in
  let on_verdict (ev : Daemon.event) =
    events := ev :: !events;
    match Hashtbl.find_opt injected_at ev.ev_session with
    | Some t0 -> latencies := (ev.ev_session, !now_us -. t0) :: !latencies
    | None -> ()
  in
  (* Dedup off means no cache at all: every session replays in full. *)
  let cache =
    if spec.dedup then Some (Replay_cache.create ~spot_rate:spec.spot_rate ~seed:spec.seed ())
    else None
  in
  let daemon = Daemon.create ~max_lag_entries:spec.max_lag ?cache ~on_verdict () in
  let metric name = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name in
  let bp_engaged0 = metric "online_audit.backpressure_engaged" in
  let bp_refused0 = metric "online_audit.backpressure_refusals" in
  for i = 0 to spec.sessions - 1 do
    let partner = i lxor 1 in
    let ctx =
      Audit.ctx ~node_cert:(H.cert w i) ~peer_certs:[ (H.name w partner, H.cert w partner) ] ()
    in
    let avmm = H.avmm w i in
    Daemon.attach daemon ~id:(H.name w i) ~ctx ~image:w.image ~mem_words:Guests.fleet_mem_words
      ~replay_rate:spec.replay_rate
      ~snapshot_of:(fun () -> Avmm.snapshots avmm)
      ~peers:(Net.peers_of w.net i) ()
  done;
  let service_seconds = ref 0.0 in
  let lag_samples = ref [] in
  let serve f =
    let t0 = Unix.gettimeofday () in
    f ();
    service_seconds := !service_seconds +. (Unix.gettimeofday () -. t0)
  in
  let ingest_and_pump () =
    for i = 0 to spec.sessions - 1 do
      ignore (Daemon.ingest daemon ~id:(H.name w i) (Avmm.log (H.avmm w i)))
    done;
    ignore (Daemon.pump daemon ~budget_instructions:spec.budget ?par () : int);
    List.iter
      (fun id -> lag_samples := (Daemon.session_status daemon ~id).lag_entries :: !lag_samples)
      (Daemon.session_ids daemon)
  in
  (* Every cheater is active in its cheat epoch (a Rewrite needs fresh
     unobserved entries to corrupt); the rest of the activity is
     seeded. *)
  let wake epoch =
    List.iter
      (fun c ->
        if c.epoch = epoch then
          Net.queue_input w.net c.node
            (Guests.fleet_input_op ~slot:(Rng.int_in rng 0 250) ~value:(Rng.int_in rng 0 65535)))
      cheats
  in
  let inject epoch mid_us =
    List.iter
      (fun c ->
        if c.epoch = epoch then begin
          Hashtbl.replace injected_at (H.name w c.node) mid_us;
          match c.kind with
          | Poke { slot; value } -> Avmm.poke (H.avmm w c.node) ~addr:(vals_addr + slot) ~value
          | Rewrite ->
            (* Rewrite the newest entry in place — it is still in the
               unobserved range, so the syntactic stream must catch it
               at the next ingest. *)
            let log = Avmm.log (H.avmm w c.node) in
            Log.tamper_replace log (Log.length log) (Avm_tamperlog.Entry.Note "rewritten")
        end)
      cheats
  in
  let run_seconds =
    H.run_epochs w rng ~epochs:spec.epochs ~epoch_us:spec.epoch_us ~activity:spec.activity
      ~start:wake ~mid:inject (fun epoch ->
        now_us := float_of_int epoch *. spec.epoch_us;
        serve ingest_and_pump)
  in
  (* Drain: keep re-offering (backpressured producers included) and
     pumping until every live session has caught up. *)
  let drain_rounds = ref 0 in
  let all_caught_up () =
    List.for_all
      (fun id ->
        let st = Daemon.session_status daemon ~id in
        st.verdict <> None || st.lag_entries = 0)
      (Daemon.session_ids daemon)
  in
  serve (fun () ->
      while (not (all_caught_up ())) && !drain_rounds < 1000 do
        incr drain_rounds;
        ingest_and_pump ()
      done;
      ignore (Daemon.shutdown daemon : Daemon.event list));
  let events = List.rev !events in
  let detected, missed, false_flagged =
    H.tally
      ~cheaters:(List.map (fun c -> c.node) cheats)
      ~flagged:(List.map (fun (ev : Daemon.event) -> H.index ev.ev_session) events)
  in
  let sorted_lags = List.sort compare !lag_samples in
  {
    spec; events; cheats; detected; missed; false_flagged;
    entries_ingested = (Daemon.stats daemon).entries_ingested;
    lag_p50 = percentile sorted_lags 50;
    lag_p99 = percentile sorted_lags 99;
    lag_max = percentile sorted_lags 100;
    detection_latency_us = List.rev !latencies;
    backpressure_engaged = metric "online_audit.backpressure_engaged" - bp_engaged0;
    backpressure_refusals = metric "online_audit.backpressure_refusals" - bp_refused0;
    cache = Option.map Replay_cache.stats cache;
    sim_events = Avm_netsim.Sim.processed (Net.sim w.net);
    run_seconds; service_seconds = !service_seconds; drain_rounds = !drain_rounds;
  }

(* Sorted, so the digest is independent of delivery order. *)
let signature o =
  let line (ev : Daemon.event) =
    Printf.sprintf "%s:%s:%s\n" ev.ev_session
      (Format.asprintf "%a" Online_audit.pp_verdict ev.ev_verdict)
      (match ev.ev_entry_seq with Some s -> string_of_int s | None -> "-")
  in
  H.signature (List.sort compare (List.map line o.events))
