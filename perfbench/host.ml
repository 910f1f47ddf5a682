(* Host calibration: every run carries the speed of the machine it ran
   on, so its rates can be read against the host. These figures are
   context, never compared across hosts. *)

module Clock = Avm_obs.Clock
module Rsa = Avm_crypto.Rsa
module Sigcache = Avm_crypto.Sigcache
module Machine = Avm_machine.Machine

(* Repeat [f] (which reports the work it did) for about [seconds];
   return work per second. *)
let rate ~seconds f =
  let t0 = Clock.now_s () in
  let work = ref 0 in
  while Clock.now_s () -. t0 < seconds do
    work := !work + f ()
  done;
  float_of_int !work /. (Clock.now_s () -. t0)

let calibrate () =
  let block = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let sha256_mb_per_s =
    rate ~seconds:0.25 (fun () ->
        ignore (Avm_crypto.Sha256.digest block);
        1)
  in
  let kp = Rsa.generate (Avm_util.Rng.create 0x686F7374L) ~bits:768 in
  let msg = Avm_crypto.Sha256.digest "host calibration" in
  let signature = Rsa.sign kp.Rsa.private_ msg in
  let rsa768_sign_per_s =
    rate ~seconds:0.25 (fun () ->
        ignore (Rsa.sign kp.Rsa.private_ msg);
        1)
  in
  (* A raw verify each time, not a signature-cache lookup. *)
  let cache_was_enabled = Sigcache.is_enabled () in
  Sigcache.set_enabled false;
  let rsa768_verify_per_s =
    rate ~seconds:0.25 (fun () ->
        assert (Rsa.verify kp.Rsa.public ~msg ~signature);
        1)
  in
  Sigcache.set_enabled cache_was_enabled;
  let image = (Avm_scenario.Guests.game_image ()).Avm_isa.Asm.words in
  let machine_mips =
    rate ~seconds:0.25 (fun () ->
        let m = Machine.create ~mem_words:Avm_scenario.Guests.mem_words image in
        Machine.run m Machine.null_backend ~fuel:1_000_000)
    /. 1e6
  in
  [
    ("host.cores", "count", float_of_int (Domain.recommended_domain_count ()));
    ("host.sha256_mb_per_s", "MB/s", sha256_mb_per_s);
    ("host.rsa768_sign_per_s", "1/s", rsa768_sign_per_s);
    ("host.rsa768_verify_per_s", "1/s", rsa768_verify_per_s);
    ("host.machine_mips", "MIPS", machine_mips);
  ]
