(* The AVM benchmark: one workload's record path and audit path, run
   repeatedly for a fixed wall-clock budget, every verdict checked
   against the workload's planted ground truth.

     avm_perfbench --workload game|fleet|service --seed N --seconds S --trace 0|1

   Iteration k plays input k, generated from the seed; with --trace 0
   the run reports the end-to-end metrics. With --trace 1 iterations
   2k (untraced) and 2k+1 (traced) both play input k, and the run
   reports the host calibration, the per-layer metrics, the tracing
   overhead and how much of the phase time the layer spans account
   for; the spans go to perfbench/out/ at exit. The last line of
   standard output is one JSON object with the keys correct,
   attempted, failed and metrics. See README.md. *)

module Metrics = Avm_obs.Metrics
module Trace = Avm_obs.Trace
module Json = Avm_obs.Json
module Clock = Avm_obs.Clock
module Audit = Avm_core.Audit
module Domain_pool = Avm_util.Domain_pool
module H = Harness

type workload = {
  name : string;
  shape : string;
  describe : int64 -> string;  (** one line about the input of this seed *)
  targets : int;  (** nodes whose verdicts one iteration checks *)
  lanes : int;  (** audit lanes *)
  run : seed:int64 -> par:Audit.parallelism -> H.sample;
  report : float list -> H.line list;  (** the workload's own metrics *)
}

let cores = Domain.recommended_domain_count ()

let workloads =
  [
    {
      name = "game"; shape = Game.shape; describe = Game.describe; targets = Game.players;
      lanes = cores; run = Game.run; report = Game.report;
    };
    {
      name = "fleet"; shape = Fleet.shape; describe = Fleet.describe; targets = Fleet.nodes;
      lanes = cores; run = Fleet.run; report = Fleet.report;
    };
    (* The daemon is single-lane: this workload bypasses Domain_pool. *)
    {
      name = "service"; shape = Service.shape; describe = Service.describe;
      targets = Service.sessions; lanes = 1; run = Service.run; report = Service.report;
    };
  ]

let usage = "avm_perfbench --workload game|fleet|service --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  game, fleet or service");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  wall-clock budget of the measured iterations");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (List.find_opt (fun w -> w.name = !workload) workloads, !seed) with
  | Some w, Some seed when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
    (w, Int64.of_int seed, float_of_int !seconds, !trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2

(* One iteration from clean global state; an exception counts every
   target as a verdict error. *)
let iterate w ~seed ~par =
  Metrics.reset ();
  Trace.clear ();
  Avm_crypto.Sigcache.clear ();
  Gc.full_major ();
  let t0 = Clock.now_s () in
  let s =
    try w.run ~seed ~par
    with e ->
      {
        H.setup_s = 0.0; record_s = 0.0; record_entries = 0; audit_s = 0.0; audit_entries = 0;
        virtual_s = 0.0; stored_bytes = 0; wire_bytes = 0; own = []; targets = w.targets;
        errors = w.targets; signature = "raised " ^ Printexc.to_string e; layers = [];
        attributed_s = 0.0;
      }
  in
  (s, Clock.now_s () -. t0)

type run = { input : int; traced : bool; sample : H.sample; spans : Trace.span list }

(* The seed of input [k]. The program sees only inputs generated from
   it. A run covers several inputs, so its medians do not hinge on one
   input. *)
let input_seed seed k =
  let mix x = Avm_util.Rng.next_int64 (Avm_util.Rng.create x) in
  mix (Int64.add (mix seed) (Int64.of_int k))

(* Iterate until the budget is spent: a new iteration starts only if a
   typical one still fits. A traced run plays each input twice,
   untraced then traced, so both see the same input and the same
   host. *)
let measure w ~seed ~seconds ~trace ~par =
  let start = Clock.now_s () in
  let min_iterations = if trace then 2 else 1 in
  let rec loop i acc walls =
    let typical = if walls = [] then 0.0 else H.median walls in
    if i >= min_iterations && Clock.now_s () -. start +. typical > seconds then List.rev acc
    else begin
      let input = if trace then i / 2 else i in
      let traced = trace && i mod 2 = 1 in
      H.iteration := i;
      H.tracing := traced;
      let seed = input_seed seed input in
      let s, wall = iterate w ~seed ~par in
      Printf.printf "iteration %d, input %d%s (%s): %.2fs (setup %.3f, record %.3f, audit %.3f)\n"
        i input
        (if traced then ", traced" else "")
        (w.describe seed) wall s.H.setup_s s.H.record_s s.H.audit_s;
      Printf.printf "  %d errors, verdicts %s\n%!" s.H.errors s.H.signature;
      let spans = if traced then Trace.spans () else [] in
      loop (i + 1) ({ input; traced; sample = s; spans } :: acc) (wall :: walls)
    end
  in
  loop 0 [] []

(* The metrics every workload has: the ones BENCHMARK.json gates. *)
let gated untraced =
  let each f = List.map f untraced in
  let per_vs f = each (fun s -> float_of_int (f s) /. s.H.virtual_s) in
  [
    H.summary "setup_s" "s" (each (fun s -> s.H.setup_s));
    H.summary "record_entries_per_s" "entries/s"
      (each (fun s -> float_of_int s.H.record_entries /. s.H.record_s));
    H.summary "audit_entries_per_s" "entries/s"
      (each (fun s -> float_of_int s.H.audit_entries /. s.H.audit_s));
    H.summary "log_stored_bytes_per_vs" "B/vs" (per_vs (fun s -> s.H.stored_bytes));
    H.summary "wire_bytes_per_vs" "B/vs" (per_vs (fun s -> s.H.wire_bytes));
    H.summary "peak_rss_mb" "MB" [ H.peak_rss_mb () ];
  ]

let phase_s (s : H.sample) = s.H.setup_s +. s.H.record_s +. s.H.audit_s

let per_layer ~host ~traced ~untraced =
  (* Nearest rank, so a count stays a count. *)
  let layer_median name =
    H.percentile
      (List.map
         (fun s ->
           match List.find_opt (fun (n, _, _) -> n = name) s.H.layers with
           | Some (_, _, v) -> v
           | None -> nan)
         traced)
      50.0
  in
  let names = match traced with s :: _ -> s.H.layers | [] -> [] in
  let phase xs = H.median (List.map phase_s xs) in
  host
  @ List.map (fun (n, u, _) -> (n, u, layer_median n)) names
  @ [
      ("trace.overhead_share", "share", H.ratio (phase traced -. phase untraced) (phase untraced));
      ( "trace.attributed_share", "share",
        H.median (List.map (fun s -> H.ratio s.H.attributed_s (phase_s s)) traced) );
    ]

let write_trace ~file ~workload ~seed ~metrics runs =
  let harness (s : H.span) =
    Json.Obj
      [
        ("name", Json.String s.H.name); ("iteration", Json.Int s.H.iter);
        ("start_s", Json.Float s.H.start_s); ("dur_s", Json.Float s.H.dur_s);
        ("depth", Json.Int s.H.depth);
      ]
  in
  let program i (s : Trace.span) =
    Json.Obj
      [
        ("name", Json.String s.Trace.name); ("iteration", Json.Int i);
        ("start_s", Json.Float (s.Trace.start_us /. 1e6));
        ("dur_s", Json.Float (s.Trace.dur_us /. 1e6));
        ("domain", Json.Int s.Trace.domain); ("depth", Json.Int s.Trace.depth);
      ]
  in
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out file in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String workload); ("seed", Json.String (Int64.to_string seed));
            ("metrics", Json.Obj (List.map (fun (n, _, v) -> (n, Json.Float v)) metrics));
            ("harness_spans", Json.List (List.rev_map harness !H.recorded));
            ( "program_spans",
              Json.List (List.concat (List.mapi (fun i r -> List.map (program i) r.spans) runs)) );
          ]));
  close_out oc

let print_line (l : H.line) =
  Printf.printf "  %-26s %16.4f %-10s n=%d%s\n" l.H.name l.H.value l.H.unit l.H.n
    (match l.H.tail with Some (p, x) -> Printf.sprintf "  p%g=%.4f" p x | None -> "")

let () =
  let w, seed, seconds, trace = parse_args () in
  Printf.printf "workload %s (%s), seed %Ld\n%!" w.name w.shape seed;
  let host = Host.calibrate () in
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.3f %s\n" n v u) host;
  Printf.printf "audit lanes %d on %d cores%s\n%!" w.lanes cores
    (if w.lanes > 1 then "" else " (a one-lane run measures no parallel speedup)");
  if trace then Trace.set_capacity (1 lsl 18);
  let pool = Domain_pool.create ~jobs:w.lanes () in
  let runs =
    Fun.protect
      ~finally:(fun () -> Domain_pool.shutdown pool)
      (fun () -> measure w ~seed ~seconds ~trace ~par:(Audit.parallel ~pool w.lanes))
  in
  (* An iteration that raised has no measurements. *)
  let measured traced =
    List.filter_map
      (fun r -> if r.traced = traced && r.sample.H.virtual_s > 0.0 then Some r.sample else None)
      runs
  in
  let untraced = measured false and traced = measured true in
  (* Ground truth: every verdict right, and the same verdict vector
     whenever an input is played again, traced or not. A replay that
     disagrees fails all its targets. *)
  let failures r =
    let first = List.find (fun r' -> r'.input = r.input) runs in
    if r.sample.H.signature = first.sample.H.signature then r.sample.H.errors
    else begin
      Printf.printf "VERDICT MISMATCH: input %d gave %s, then %s\n" r.input
        first.sample.H.signature r.sample.H.signature;
      r.sample.H.targets
    end
  in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let attempted = total (fun r -> r.sample.H.targets) in
  let failed = total failures in
  let gated = gated untraced in
  Printf.printf "end-to-end (median of %d untraced iterations; %d audit lanes, %d cores):\n"
    (List.length untraced) w.lanes cores;
  List.iter print_line
    (gated
    @ w.report (List.concat_map (fun s -> s.H.own) untraced)
    @ [
        {
          H.name = "verdict_error_rate"; unit = "share"; n = attempted; tail = None;
          value = H.ratio (float_of_int failed) (float_of_int attempted);
        };
      ]);
  let metrics =
    if not trace then List.map (fun (l : H.line) -> (l.H.name, l.H.unit, l.H.value)) gated
    else begin
      let layers = per_layer ~host ~traced ~untraced in
      Printf.printf "per-layer (median of %d traced iterations):\n" (List.length traced);
      List.iter (fun (n, u, v) -> Printf.printf "  %-34s %18.4f %s\n" n v u) layers;
      let file = Printf.sprintf "perfbench/out/trace-%s-%Ld.json" w.name seed in
      write_trace ~file ~workload:w.name ~seed ~metrics:layers runs;
      Printf.printf "trace written to %s\n" file;
      layers
    end
  in
  let metric (n, u, v) = (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]) in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", Json.Obj (List.map metric metrics));
          ]))
