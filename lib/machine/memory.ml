let page_size = 256
let page_shift = 8
let page_bytes = page_size * 4
let mask32 = 0xffffffff

(* One flag byte per page, so the interpreter's write path is still a
   single store: [dirty] = written since the last [clear_dirty] (what an
   incremental snapshot ships), [stale] = the cached leaf hash no longer
   describes the page (what the next Merkle tree rehashes). *)
let dirty = 1
let stale = 2
let written = Char.chr (dirty lor stale)

type t = {
  words : int array;
  flags : Bytes.t;
  hashes : string array; (* leaf hash per page; valid iff its stale bit is clear *)
  mutable watch : (int -> old:int -> value:int -> unit) option;
}

exception Fault of int

(* [n] words of [words] from [base], zero-padded to one page,
   little-endian. [Int32.of_int] keeps the low 32 bits. *)
let serialize words base n =
  let b = Bytes.make page_bytes '\000' in
  for i = 0 to n - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int (Array.unsafe_get words (base + i)))
  done;
  Bytes.unsafe_to_string b

let zero_page_hash = Avm_crypto.Merkle.leaf_hash (String.make page_bytes '\000')

let create ~words =
  let pages = (words + page_size - 1) / page_size in
  let pages = max pages 1 in
  {
    words = Array.make (pages * page_size) 0;
    flags = Bytes.make pages '\000';
    hashes = Array.make pages zero_page_hash;
    watch = None;
  }

let size m = Array.length m.words
let page_count m = Bytes.length m.flags
let flag m p = Char.code (Bytes.unsafe_get m.flags p)
let set_flag m p f = Bytes.unsafe_set m.flags p (Char.unsafe_chr f)

let read m addr =
  if addr < 0 || addr >= Array.length m.words then raise (Fault addr);
  m.words.(addr)

let write m addr v =
  if addr < 0 || addr >= Array.length m.words then raise (Fault addr);
  (match m.watch with
  | None -> ()
  | Some hook -> hook addr ~old:m.words.(addr) ~value:(v land mask32));
  m.words.(addr) <- v land mask32;
  Bytes.unsafe_set m.flags (addr lsr page_shift) written

(* Leaf hashes of recently loaded images, most recent first, so a
   fresh machine inherits its image's page hashes instead of rehashing
   them. Keyed by contents through a private copy: an [int array] is
   mutable, so physical identity says nothing about what it holds.
   Per domain, like the other crypto caches, so lookups take no lock. *)
let image_cache_size = 8

let image_cache : (int array * string array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let image_hashes image =
  let cache = Domain.DLS.get image_cache in
  let n = Array.length image in
  match List.find_opt (fun (key, _) -> Array.length key = n && key = image) !cache with
  | Some (_, hashes) ->
    Avm_obs.Metrics.incr ~by:(Array.length hashes) "state.pages_reused";
    hashes
  | None ->
    let pages = (n + page_size - 1) / page_size in
    let hashes =
      Array.init pages (fun p ->
          let base = p * page_size in
          Avm_crypto.Merkle.leaf_hash (serialize image base (min page_size (n - base))))
    in
    Avm_obs.Metrics.incr ~by:pages "state.pages_hashed";
    let rest = List.filteri (fun i _ -> i < image_cache_size - 1) !cache in
    cache := (Array.copy image, hashes) :: rest;
    hashes

(* Bulk path: images are loaded before any watchpoint is attached, so
   skip the per-word hook/bounds machinery of [write]. Each loaded
   page takes the image's cached hash, except a partial last page
   whose tail (memory the image does not cover) is not all zero. *)
let load_image m image =
  let n = Array.length image in
  if n > Array.length m.words then raise (Fault n);
  Array.blit image 0 m.words 0 n;
  for i = 0 to n - 1 do
    let w = Array.unsafe_get m.words i in
    if w land mask32 <> w then Array.unsafe_set m.words i (w land mask32)
  done;
  let hashes = image_hashes image in
  Array.iteri
    (fun p h ->
      let tail_clean = ref true in
      for i = n to ((p + 1) * page_size) - 1 do
        if Array.unsafe_get m.words i <> 0 then tail_clean := false
      done;
      if !tail_clean then begin
        m.hashes.(p) <- h;
        set_flag m p dirty
      end
      else set_flag m p (dirty lor stale))
    hashes

let page_data m p = serialize m.words (p * page_size) page_size

(* Rewriting a page with the contents it already holds keeps its hash. *)
let set_page_data m p data =
  if p < 0 || p >= page_count m then invalid_arg "Memory.set_page_data: bad page";
  if String.length data <> page_bytes then invalid_arg "Memory.set_page_data: bad length";
  let base = p * page_size in
  let changed = ref false in
  for i = 0 to page_size - 1 do
    let w = Int32.to_int (String.get_int32_le data (4 * i)) land mask32 in
    if Array.unsafe_get m.words (base + i) <> w then begin
      Array.unsafe_set m.words (base + i) w;
      changed := true
    end
  done;
  set_flag m p (if !changed then dirty lor stale else flag m p lor dirty)

let dirty_pages m =
  let acc = ref [] in
  for p = page_count m - 1 downto 0 do
    if flag m p land dirty <> 0 then acc := p :: !acc
  done;
  !acc

let clear_dirty m =
  for p = 0 to page_count m - 1 do
    set_flag m p (flag m p land stale)
  done

let merkle m =
  let n = page_count m in
  let hashed = ref 0 in
  for p = 0 to n - 1 do
    if flag m p land stale <> 0 then begin
      m.hashes.(p) <- Avm_crypto.Merkle.leaf_hash (page_data m p);
      set_flag m p (flag m p land dirty);
      incr hashed
    end
  done;
  Avm_obs.Metrics.incr "state.digests";
  Avm_obs.Metrics.incr ~by:!hashed "state.pages_hashed";
  Avm_obs.Metrics.incr ~by:(n - !hashed) "state.pages_reused";
  Avm_crypto.Merkle.of_leaf_hashes (Array.to_list m.hashes)

let copy m =
  {
    words = Array.copy m.words;
    flags = Bytes.copy m.flags;
    hashes = Array.copy m.hashes;
    watch = None;
  }

let set_watch m hook = m.watch <- hook
