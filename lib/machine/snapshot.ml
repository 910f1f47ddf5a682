type t = {
  seq : int;
  at_icount : int;
  meta : string;
  pages : (int * string) list;
  full : bool;
  root : string;
  page_count : int;
}

type tracker = { mutable next_seq : int }

let tracker () = { next_seq = 0 }
let merkle_of_machine machine = Memory.merkle (Machine.mem machine)
let root_of machine = Avm_crypto.Merkle.root (merkle_of_machine machine)

let take tr machine =
  let mem = Machine.mem machine in
  let n = Memory.page_count mem in
  let full = tr.next_seq = 0 in
  let changed = if full then List.init n Fun.id else Memory.dirty_pages mem in
  let pages = List.map (fun p -> (p, Memory.page_data mem p)) changed in
  Memory.clear_dirty mem;
  let seq = tr.next_seq in
  tr.next_seq <- seq + 1;
  {
    seq;
    at_icount = Machine.icount machine;
    meta = Machine.serialize_meta machine;
    pages;
    full;
    root = root_of machine;
    page_count = n;
  }

let digest ~meta ~root ~at_icount =
  Avm_crypto.Sha256.digest_list [ meta; root; string_of_int at_icount ]

let state_digest t = digest ~meta:t.meta ~root:t.root ~at_icount:t.at_icount

let machine_digest ?at_icount machine =
  digest ~meta:(Machine.serialize_meta machine) ~root:(root_of machine)
    ~at_icount:(Option.value at_icount ~default:(Machine.icount machine))

let encode t =
  let open Avm_util in
  let w = Wire.writer () in
  Wire.varint w t.seq;
  Wire.varint w t.at_icount;
  Wire.bytes w t.meta;
  Wire.bool w t.full;
  Wire.bytes w t.root;
  Wire.varint w t.page_count;
  Wire.list w
    (fun w (p, data) ->
      Wire.varint w p;
      Wire.bytes w data)
    t.pages;
  Wire.contents w

let decode s =
  let open Avm_util in
  let r = Wire.reader s in
  let seq = Wire.read_varint r in
  let at_icount = Wire.read_varint r in
  let meta = Wire.read_bytes r in
  let full = Wire.read_bool r in
  let root = Wire.read_bytes r in
  let page_count = Wire.read_varint r in
  let pages =
    Wire.read_list r (fun r ->
        let p = Wire.read_varint r in
        let data = Wire.read_bytes r in
        (p, data))
  in
  Wire.expect_end r;
  { seq; at_icount; meta; pages; full; root; page_count }

let size_bytes t = String.length (encode t)

(* Snapshots with seq <= upto, in the ascending-seq order [materialize]
   applies them. Callers replaying many chunks should sort/filter once
   and slice prefixes rather than calling this per chunk. *)
let chain_upto snapshots upto =
  List.sort
    (fun a b -> compare a.seq b.seq)
    (List.filter (fun s -> s.seq <= upto) snapshots)

(* Snapshots come from the audited party, so every way a forged chain
   can fail to apply is an [Error], never an exception. *)
let materialize ?mem_words ~image chain =
  if chain = [] then invalid_arg "Snapshot.materialize: empty chain";
  let machine =
    match mem_words with
    | Some w -> Machine.create ~mem_words:w image
    | None -> Machine.create image
  in
  let mem = Machine.mem machine in
  let n = Memory.page_count mem in
  let bad_page snap (p, data) =
    if p < 0 || p >= n then Some (Printf.sprintf "snapshot %d: page %d out of range" snap.seq p)
    else if String.length data <> Memory.page_size * 4 then
      Some (Printf.sprintf "snapshot %d: page %d has %d bytes" snap.seq p (String.length data))
    else None
  in
  match List.find_map (fun snap -> List.find_map (bad_page snap) snap.pages) chain with
  | Some why -> Error why
  | None -> (
    List.iter
      (fun snap -> List.iter (fun (p, data) -> Memory.set_page_data mem p data) snap.pages)
      chain;
    let last = List.nth chain (List.length chain - 1) in
    match Machine.restore_meta machine last.meta with
    | () ->
      Memory.clear_dirty mem;
      Ok machine
    | exception (Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _ | Invalid_argument _) ->
      Error (Printf.sprintf "snapshot %d: malformed meta" last.seq))

let verify machine ~expected_root = String.equal (root_of machine) expected_root
