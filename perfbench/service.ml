(* The auditor-as-a-service daemon: paired kv-store sessions stream
   their logs into one single-lane daemon that audits them
   incrementally. Record and audit interleave epoch by epoch inside
   [Service_run.run]; its outcome splits the wall time into simulation
   and ingest + pump seconds. *)

module Service_run = Avm_scenario.Service_run
module Metrics = Avm_obs.Metrics
module H = Harness

let sessions = 1000
let epochs = 6

let spec seed = { Service_run.default_spec with Service_run.sessions; epochs; seed }

let shape =
  let s = Service_run.default_spec in
  Printf.sprintf "%d sessions, %d epochs, %.0f%% cheaters (%.0f%% log rewrites), dedup %b"
    sessions epochs (100.0 *. s.Service_run.cheat_frac) (100.0 *. s.Service_run.tamper_frac)
    s.Service_run.dedup

let describe seed = Printf.sprintf "seed %Ld" seed

(* The p99 of the daemon's audit lag, in entries, per iteration. *)
let report lags = [ H.summary "service_lag_p99_entries" "entries" lags ]

let run ~seed ~par =
  let before = Metrics.snapshot () in
  let o, wall_s =
    H.timed (fun () -> H.span "Service_run.run" (fun () -> Service_run.run ~par (spec seed)))
  in
  let whole = { H.before; after = Metrics.snapshot () } in
  let pump_s = List.fold_left ( +. ) 0.0 (H.program_ms "service.pump") /. 1e3 in
  {
    (* What [Service_run.run] spends outside simulation and the
       daemon: key generation, image compile, world creation, session
       attach and the final tally. *)
    H.setup_s = wall_s -. o.Service_run.run_seconds -. o.Service_run.service_seconds;
    record_s = o.Service_run.run_seconds;
    record_entries = int_of_float (H.delta whole "log.entries_appended");
    audit_s = o.Service_run.service_seconds;
    audit_entries = o.Service_run.entries_ingested;
    virtual_s =
      float_of_int o.Service_run.spec.Service_run.epochs
      *. o.Service_run.spec.Service_run.epoch_us /. 1e6;
    (* The in-memory store keeps sealed segments verbatim, and every
       epoch ends with a seal, so sealed bytes are the bytes at rest. *)
    stored_bytes = int_of_float (H.delta whole "log.bytes_sealed");
    wire_bytes = int_of_float (H.delta whole "net.bytes_sent");
    own = [ float_of_int o.Service_run.lag_p99 ];
    targets = sessions;
    errors = List.length o.Service_run.missed + List.length o.Service_run.false_flagged;
    signature = Service_run.signature o;
    layers =
      (if !H.tracing then
         H.layers ~record:whole ~audit:whole ~audit_entries:o.Service_run.entries_ingested
           [
             ("net.run_s", o.Service_run.run_seconds);
             ("sim.events", float_of_int o.Service_run.sim_events);
             (* Ingest pushes entries through the syntactic stream;
                pumps run the budgeted replay steps. *)
             ("audit.syntactic_s", o.Service_run.service_seconds -. pump_s);
             ("audit.semantic_s", pump_s);
             ("witness.audit_s", 0.0);
             ("pool.lanes", float_of_int par.Avm_core.Audit.jobs);
           ]
       else []);
    attributed_s = o.Service_run.run_seconds +. o.Service_run.service_seconds;
  }
