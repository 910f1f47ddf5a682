(** Word-addressed guest memory with per-page dirty tracking and
    cached page hashes.

    Pages are {!page_size} words. Dirty bits drive incremental
    snapshots ({!Snapshot}): only pages written since the last
    {!clear_dirty} are shipped. Independently, each page carries its
    Merkle leaf hash ({!Avm_crypto.Merkle.leaf_hash} of {!page_data}),
    and the invariant is: {e a cached leaf hash is valid iff its page is
    unchanged since it was hashed}. {!write}, a {!set_page_data} that
    changes the contents and a {!load_image} whose hashes are not known
    mark a page stale; {!merkle} rehashes only stale pages. Both the
    recorder's snapshots and the auditor's state digests go through
    {!merkle}, so a page is hashed once per change, not once per
    digest. *)

type t

val page_size : int
(** 256 words (1 KiB). *)

val create : words:int -> t
(** Zero-filled memory of at least [words] words (rounded up to whole
    pages). Every page starts with the zero-page hash, already valid. *)

val size : t -> int
(** Capacity in words. *)

val page_count : t -> int

exception Fault of int
(** Out-of-range access; carries the offending address. *)

val read : t -> int -> int
(** [read m addr] is the 32-bit word at [addr].
    @raise Fault when out of range. *)

val write : t -> int -> int -> unit
(** [write m addr v] stores the low 32 bits of [v], marking the page
    dirty and its hash stale.
    @raise Fault when out of range. *)

val load_image : t -> int array -> unit
(** [load_image m words] copies a program image to address 0, marking
    its pages dirty. The leaf hashes of an image are computed once per
    distinct image {e contents} (a small per-domain cache keyed by a
    private copy, so mutating the array afterwards is harmless) and
    installed on the loaded pages; a partial last page whose uncovered
    tail is not zero is marked stale instead.
    @raise Fault if the image does not fit. *)

val page_data : t -> int -> string
(** [page_data m p] serializes page [p] (little-endian words). *)

val set_page_data : t -> int -> string -> unit
(** Inverse of {!page_data}; marks the page dirty, and its hash stale
    only if the contents actually change.
    @raise Invalid_argument on a bad page index or wrong length. *)

val dirty_pages : t -> int list
(** Pages written since the last {!clear_dirty}, ascending. *)

val clear_dirty : t -> unit
(** Clears the dirty bits; cached hashes and their staleness are
    untouched. *)

val merkle : t -> Avm_crypto.Merkle.t
(** The Merkle tree over every page's leaf hash, rehashing only stale
    pages. Counted in [state.digests], [state.pages_hashed] and
    [state.pages_reused]. *)

val copy : t -> t
(** Deep copy (dirty bits and cached hashes included; the watch hook is
    not copied). *)

val set_watch : t -> (int -> old:int -> value:int -> unit) option -> unit
(** [set_watch m hook] installs (or clears) a write observer, invoked
    on every {!write} with the address, previous and new value. Used
    by replay-time analyses ({!Avm_analysis.Watchpoints}); costs one
    branch per write when unset. *)
