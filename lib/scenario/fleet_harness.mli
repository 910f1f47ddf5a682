(** The fleet harness under {!Fleet_run}, {!Service_run} and
    {!Equivocation_run}: many accountable kv-store guests
    ({!Guests.fleet_source}) driven epoch by epoch, a seeded minority
    of them misbehaving, and every verdict tallied against the planted
    ground truth (DESIGN.md §13).

    The harness owns what the three scenarios share — the world, the
    driver's random stream, adversary picking, the epoch loop, the
    sharded witness audit, the detected/missed/false-flag tally, the
    verdict signature and the acceptance gate. Each scenario is a thin
    plugin: its adversary draws, its mid-epoch and after-seal hooks,
    and its auditor (witness pool or service daemon). *)

module Net = Avm_netsim.Net
module Witness = Avm_core.Witness

(** {1 The world} *)

type world = {
  net : Net.t;
  nodes : int;
  image : int array;  (** the fleet guest every node boots *)
}

val create :
  ?faults:Avm_netsim.Faults.t ->
  seed:int64 ->
  rsa_bits:int ->
  key_pool:int ->
  int array array ->
  world
(** [create adjacency] builds one fleet-guest node per row, named
    [n0, n1, ...], whose guest-visible peers are the row's nodes. Logs
    live in the in-memory segment store under the RSA-768 config, with
    no timed snapshots. Every node takes its baseline snapshot (seq 1)
    before [create] returns, so epoch [e] seals replay chunk [e]. *)

val avmm : world -> int -> Avm_core.Avmm.t
val name : world -> int -> string
val cert : world -> int -> Avm_crypto.Identity.certificate

val index : string -> int
(** Inverse of {!name}: ["n17"] is node 17. *)

(** {1 The driver} *)

val driver_rng : salt:int64 -> int64 -> Avm_util.Rng.t
(** The driver's own stream for [seed], apart from the witness
    assignment's and the network's: changing the adversary or the
    activity never reshuffles who audits whom. Each scenario keeps
    its own [salt]. *)

val pick :
  Avm_util.Rng.t -> nodes:int -> epochs:int -> frac:float -> (node:int -> epoch:int -> 'a) -> 'a list
(** Plant [round (frac x nodes)] adversaries (at least one when
    [frac > 0]): draw a node until it is new, then its epoch in
    [1..epochs], then whatever the callback draws. Sorted by node. The
    draw order is part of every verdict signature. *)

val run_epochs :
  world ->
  Avm_util.Rng.t ->
  epochs:int ->
  epoch_us:float ->
  activity:float ->
  ?start:(int -> unit) ->
  ?mid:(int -> float -> unit) ->
  ?sealed:(int -> unit) ->
  (int -> unit) ->
  float
(** [run_epochs w rng ~epochs ~epoch_us ~activity audit] runs epochs
    [1..epochs]. Each one calls [start], gives each node kv ops with
    probability [activity] (one to three ops, at epoch start), runs
    the network to mid-epoch and calls [mid epoch mid_us] (stopping
    the network there changes nothing by itself), runs to the epoch's
    end, seals a snapshot on every node, calls [sealed], then
    [audit]. Returns the wall seconds spent from [start] through
    [sealed], summed over epochs. *)

(** {1 Witness audits} *)

type epoch_report = {
  epoch : int;
  coverage : float;  (** fraction of nodes with ≥ 1 verdict this epoch *)
  jobs : int;
  failures : int;
}

type witnesses = private {
  world : world;
  asg : Witness.assignment;
  certs : (string * Avm_crypto.Identity.certificate) list array;
  mutable verdicts : Witness.verdict list;  (** all epochs so far, in job order *)
  mutable reports : epoch_report list;  (** in epoch order *)
  mutable audit_jobs : int;
  mutable audit_seconds : float;  (** wall time inside the auditor pool *)
}

val witnesses : world -> Witness.assignment -> witnesses
(** Each target's peer certificates are its reporters (nodes whose
    primary witness it is) plus its own witnesses: exactly who sends
    envelopes into its log. *)

val audit_epoch :
  ?par:Avm_core.Audit_ctx.parallelism ->
  ?cache:Avm_core.Replay_cache.t ->
  witnesses ->
  shards:int ->
  int ->
  target:int ->
  witness:int ->
  Avm_tamperlog.Auth.t list
(** Run one epoch's (target, witness) jobs on the sharded pool, each
    witness armed with the authenticators its own ledger collected for
    the target, and record the verdicts and the epoch report. Views
    and authenticator lists are built before the pool starts, so
    worker domains share nothing mutable. Returns those collected
    authenticators, for the cross-witness exchange. *)

(** {1 Verdicts} *)

val tally : cheaters:int list -> flagged:int list -> int list * int list * int list
(** [(detected, missed, false_flagged)]: the [cheaters] split by
    whether they were flagged (in the given order), and the flagged
    nodes that are not cheaters, ascending and distinct. *)

val verdict_line : Witness.verdict -> string
(** ["epoch:target:witness:syn|sem:ok:detail\n"]. *)

val signature : string list -> string
(** Hex MD5 of the concatenated lines: two runs agree iff this does. *)

val gate :
  ?reports:epoch_report list ->
  ?same:string * string * string ->
  ?checks:(bool * string) list ->
  missed:int list ->
  false_flagged:int list ->
  unit ->
  string list
(** The acceptance checks every scenario binary and bench applies: no
    cheat missed, no honest node flagged, full coverage in every
    report, [same = (what, a, b)] with [a = b], and every extra
    [(ok, message)]. Returns one message per failed check; empty means
    pass. *)
