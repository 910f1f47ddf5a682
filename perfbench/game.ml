(* The paper's headline setup: three players of the game guest under
   the full AVMM (768-bit RSA), one of them running a detectable cheat
   drawn by the seed. The harness drives the 50 ms slices itself, then
   gives every player's log a full audit from a cold signature cache. *)

open Avm_core
module Net = Avm_netsim.Net
module Log = Avm_tamperlog.Log
module Rng = Avm_util.Rng
module Guests = Avm_scenario.Guests
module Cheats = Avm_scenario.Cheats
module Bots = Avm_scenario.Bots
module Game_run = Avm_scenario.Game_run
module Metrics = Avm_obs.Metrics
module H = Harness

let players = 3
let slice_us = 50_000.0
let duration_us = 6_000_000.0
let snapshot_every_us = 2_000_000

(* Every catalog cheat was found detected within [duration_us] at
   every player index. The undetectable external aimbot is not in the
   catalog. *)
let cheats = Cheats.catalog

type plan = { cheater : int; cheat : Cheats.t; net_seed : int64; bot_seed : int64 }

let plan seed =
  let rng = Rng.create seed in
  let cheat = List.nth cheats (Rng.int rng (List.length cheats)) in
  let cheater = Rng.int rng players in
  { cheater; cheat; net_seed = Rng.next_int64 rng; bot_seed = Rng.next_int64 rng }

let shape =
  Printf.sprintf "%d players, %.0f virtual s, snapshots every %d virtual s, RSA-768" players
    (duration_us /. 1e6) (snapshot_every_us / 1_000_000)

let describe seed =
  let p = plan seed in
  Printf.sprintf "player%d runs %s" p.cheater p.cheat.Cheats.name

let config = Config.make ~snapshot_every_us:(Some snapshot_every_us) Config.Avmm_rsa768

(* Host time per 50 ms virtual slice: the hiccups a player feels. *)
let report slices =
  let n = List.length slices in
  [
    { H.name = "record_slice_ms_p50"; unit = "ms"; value = H.median slices; n; tail = None };
    {
      H.name = "record_slice_ms_p95"; unit = "ms"; value = H.percentile slices 95.0; n;
      tail = None;
    };
  ]

let run ~seed ~par =
  let p = plan seed in
  let (net, bots), setup_s =
    H.timed (fun () ->
        H.span "Net.create" (fun () ->
            let images =
              List.init players (fun i ->
                  if i = p.cheater then (Cheats.image_for p.cheat).Avm_isa.Asm.words
                  else (Guests.game_image ()).Avm_isa.Asm.words)
            in
            let net =
              Net.create ~seed:p.net_seed ~rsa_bits:768 ~config ~images
                ~mem_words:Guests.mem_words
                ~names:(List.init players (Printf.sprintf "player%d"))
                ()
            in
            for i = 0 to players - 1 do
              Net.queue_input net i (Guests.input_role ~role:i ~nplayers:players)
            done;
            let bots =
              Array.init players (fun i ->
                  Bots.create ~seed:(Int64.add p.bot_seed (Int64.of_int i)))
            in
            (net, bots)))
  in
  let set_up = Metrics.snapshot () in
  let cheater_avmm = Net.node_avmm (Net.node net p.cheater) in
  let slices = ref [] in
  let (), record_s =
    H.timed (fun () ->
        let t = ref 0.0 in
        while !t < duration_us do
          let last = !t in
          t := Float.min duration_us (!t +. slice_us);
          let (), dt =
            H.timed (fun () ->
                H.span "Net.run" (fun () -> Net.run net ~until_us:!t ());
                H.span "Bots.tick" (fun () ->
                    Array.iteri
                      (fun i bot ->
                        Bots.tick bot ~now_us:!t ~last_us:last (Net.queue_input net i))
                      bots);
                H.span "Cheats.runtime_actions" (fun () ->
                    List.iter
                      (fun act -> act cheater_avmm)
                      (Cheats.runtime_actions p.cheat ~now_us:!t ~last_us:last)))
          in
          slices := (dt *. 1e3) :: !slices
        done)
  in
  let recorded = Metrics.snapshot () in
  let logs = Array.init players (fun i -> Avmm.log (Net.node_avmm (Net.node net i))) in
  let entries = Array.fold_left (fun acc l -> acc + Log.length l) 0 logs in
  let certs = Net.certificates net in
  let image = (Guests.game_image ()).Avm_isa.Asm.words in
  let audit target =
    let avmm = Net.node_avmm (Net.node net target) in
    let name = Avmm.name avmm in
    let auths = H.span "Game_run.collect_auths" (fun () -> Game_run.collect_auths net ~target) in
    let ctx = Audit.ctx ~node_cert:(List.assoc name certs) ~peer_certs:certs ~auths () in
    (* Honest replay needs at most the recorded instruction count;
       the slack leaves room to locate a divergence. *)
    let fuel = (2 * Avm_machine.Machine.icount (Avmm.machine avmm)) + 5_000_000 in
    H.span "Audit.full_of_log" (fun () ->
        Audit.full_of_log ~ctx ~image ~mem_words:Guests.mem_words ~fuel ~peers:(Net.peers net)
          ~log:(Avmm.log avmm) ~snapshots:(Avmm.snapshots avmm) ~par ())
  in
  let outcomes, audit_s =
    H.timed (fun () ->
        Avm_crypto.Sigcache.clear ();
        List.init players (fun target ->
            match audit target with o -> Ok o | exception e -> Error (Printexc.to_string e)))
  in
  let audited = Metrics.snapshot () in
  let verdict_line i = function
    | Ok o ->
      Printf.sprintf "player%d:%s" i
        (match o.Audit.verdict with Ok () -> "ok" | Error e -> "faulty:" ^ e)
    | Error e -> Printf.sprintf "player%d:raised:%s" i e
  in
  let wrong i = function
    | Ok o -> Result.is_ok o.Audit.verdict = (i = p.cheater)
    | Error _ -> true
  in
  let sum f =
    List.fold_left (fun acc o -> match o with Ok o -> acc +. f o | Error _ -> acc) 0.0 outcomes
  in
  let record = { H.before = set_up; after = recorded }
  and audit_phase = { H.before = recorded; after = audited } in
  {
    H.setup_s;
    record_s;
    record_entries = entries;
    audit_s;
    audit_entries = entries;
    virtual_s = duration_us /. 1e6;
    stored_bytes = Array.fold_left (fun acc l -> acc + Log.stored_bytes l) 0 logs;
    wire_bytes = int_of_float (H.delta record "net.bytes_sent");
    own = List.rev !slices;
    targets = players;
    errors = List.length (List.filter Fun.id (List.mapi wrong outcomes));
    signature =
      Digest.to_hex (Digest.string (String.concat "\n" (List.mapi verdict_line outcomes)));
    layers =
      (if !H.tracing then
         H.layers ~record ~audit:audit_phase ~audit_entries:entries
           [
             ("net.run_s", H.span_total "Net.run");
             ("sim.events", float_of_int (Avm_netsim.Sim.processed (Net.sim net)));
             ("audit.syntactic_s", sum (fun o -> o.Audit.syntactic_seconds));
             ("audit.semantic_s", sum (fun o -> o.Audit.semantic_seconds));
             ("witness.audit_s", 0.0);
             ("pool.lanes", float_of_int par.Audit.jobs);
           ]
       else []);
    attributed_s = H.covered_s ();
  }
