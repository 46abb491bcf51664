(** Multi-word slab simulator: the {!Compiled_wide} hot loops widened to
    K words per signal, breaking the 62-lane ceiling of one tagged int.

    Every signal owns [k] consecutive 62-lane words in one flat int-array
    slab, so a single settle pass advances [62 * k] independent
    simulation lanes — 496 lanes at the default [k = 8], 992 at
    [k = 16] — while the per-gate index traffic (the dst/src loads that
    bound {!Compiled_wide}) is amortized over the whole K-word run.  The
    compile pipeline ({!Kernel}) is shared with {!Compiled_wide}, so
    layout, fusion and force-slot placement are identical; the slab
    engine only scales the index arrays by [k] at creation.

    Since PR 7 the shared pipeline tiles each levelized rank into
    {e blocks} of roughly [Kernel.tuning.block_words] slab words
    ({!Kernel.gates_per_block}), and the hot loops walk block-major /
    kind-minor, so a rank too large for cache is processed one
    resident tile at a time.  [~tuning] picks the block geometry (and
    the gating adaptation constants); it never changes what is
    computed.

    On top of the wide words sits optional {e activity gating}
    ([~gating:true]), now {e cluster-granular}: every block carries a
    dirty bit (an int-word bitset), every mutation (input/poke writes,
    the dff latch phase, force edits) change-detects against the
    previous value and marks exactly the blocks that read the changed
    component (from {!Kernel.consumer_blocks}), and [settle] skips
    clean blocks entirely.  The dff latch phase is gated the same way
    at {e cluster} granularity ({!Kernel} packs dffs into clusters of
    [dffs_per_cluster]): a clean cluster's registers are not even
    read.  A circuit that has gone quiescent — an idle CPU, a sorter
    whose inputs are held — costs only two bitset scans per cycle.
    Gating adapts per block: one that changes on several consecutive
    runs switches to a {e hot} mode running the plain ungated kernels
    with conservative consumer marking (re-probing with detection
    periodically), so a high-toggle circuit pays only the bitset
    scan — a few percent — rather than a per-gate change-detection
    tax.  The hot/detect state is a performance cache: it cannot
    affect simulated values and deliberately survives {!reset}.
    Unlike the rank-granular PR 5 design, {!set_forces} now composes
    with gating: force edits mark the affected sites' own blocks, dff
    clusters and consumers, and a gated settle applies force slots
    with change detection.

    [~simd:true] swaps the portable OCaml block kernels for the C
    stubs in {!Simd} (AVX2 / NEON when the build host supports them,
    portable scalar C otherwise) — same block geometry, same results,
    available on every build. *)

type t

val lanes_per_word : int
(** 62, see {!Hydra_core.Packed.lanes}. *)

val lane_mask : int

val create :
  ?k:int ->
  ?gating:bool ->
  ?simd:bool ->
  ?optimize:bool ->
  ?relayout:bool ->
  ?fuse:bool ->
  ?certify:bool ->
  ?tuning:Kernel.tuning ->
  Hydra_netlist.Netlist.t ->
  t
(** [?k] (default 8, must be >= 1) words per signal — [62 * k] lanes per
    settle pass.  [?gating] (default false) enables cluster-granular
    activity gating.  [?simd] (default false) runs blocks through the C
    stubs ({!Simd} — vectorized when the build host supports it,
    portable scalar C otherwise).  [?tuning] (default
    {!Kernel.default_tuning}) sizes rank blocks and dff clusters and
    sets the gating adaptation constants; see {!Kernel.tuning_of_spec}
    for the ["block-words=3072,hot-after=4"] string form.  The
    remaining options are {!Compiled_wide.create}'s, compiled through
    the shared {!Kernel} pipeline.  Raises
    {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit. *)

val of_program : ?gating:bool -> ?simd:bool -> Kernel.program -> t
(** Build an engine over an already-compiled {!Kernel.program} (from
    {!Kernel.compile}, {!Kernel.patch} or {!Cache}), skipping every
    compile-time pass; the slab's K is the program's [k].  Only the
    per-instance value state and the gating/simd metadata are built. *)

val program : t -> Kernel.program
(** The shared compiled program this engine runs. *)

val k : t -> int
val words : t -> int
(** = {!k}: words per signal (the {!Engine_intf.S} accessor). *)

val lanes : t -> int
(** [62 * k]: independent lanes per settle pass. *)

val gated : t -> bool

val simd : t -> bool
(** Whether this engine runs its blocks through the {!Simd} C stubs
    (regardless of whether that build vectorized — see
    {!Simd.flavor}). *)

val replicate : t -> t
(** Fresh engine over the same compiled circuit: shares the immutable
    scaled index arrays, owns its value slab / dirty bits (at power-up).
    Safe to run concurrently with the original in another domain. *)

val reset : t -> unit

val set_input : t -> string -> int -> unit
(** Set word 0 of an input ({!Compiled_wide.set_input} drop-in). *)

val set_input_word : t -> string -> int -> int -> unit
(** [set_input_word t name w v]: set word [w] (0-based, [< k]) of an
    input to the packed word [v]. *)

val set_input_bool : t -> string -> bool -> unit
(** Broadcast one value to every lane of every word. *)

val set_input_lane : t -> string -> int -> bool -> unit
(** Set one global lane ([0 <= lane < 62 * k]): word [lane / 62], bit
    [lane mod 62]. *)

val settle : t -> unit
val tick : t -> unit
val step : t -> unit

val output : t -> string -> int
(** Word 0 of an output. *)

val output_word : t -> string -> int -> int
val output_lane : t -> string -> int -> bool
(** Global lane of an output, [0 <= lane < 62 * k]. *)

val outputs : t -> (string * int) list
(** Word-0 view of every output ({!Compiled_wide.outputs} drop-in). *)

val peek : t -> int -> int
(** Word 0 of a component (post-optimize, post-relayout index); same
    staleness caveat for fused inner gates as {!Compiled_wide.peek}. *)

val peek_word : t -> int -> int -> int
val poke : t -> int -> int -> unit
val poke_word : t -> int -> int -> int -> unit
(** [poke_word t i w v].  On a gated engine pokes are change-detected and
    mark the reader blocks (and dff sink clusters) dirty, so they
    compose with gating; a poked dff is re-latched from its driver at
    the next [tick], exactly as on an ungated engine. *)

type force = {
  f_site : int;  (** component index in {!netlist} *)
  force0 : int array;  (** per word: lanes driven to 0 *)
  force1 : int array;  (** per word: lanes driven to 1 (wins) *)
  flip : int array;  (** per word: lanes inverted, after the stuck masks *)
}
(** The K-word generalization of {!Compiled_wide.force}: each mask is one
    word per slab word (length [k]).  The arrays are mutable in place so
    a campaign can re-seed per-cycle faults without re-registering. *)

val set_forces : t -> force array -> unit
(** As {!Compiled_wide.set_forces}.  Composes with gating: installing,
    replacing or clearing forces marks every affected site's own block,
    its dff cluster (for forced register outputs) and its consumer
    blocks dirty — for the {e old} force set as well as the new one, so
    a dropped force heals — and a gated settle applies force slots with
    change detection every pass.  Raises [Invalid_argument] on a fused
    engine (build with [~fuse:false]), on a mask array whose length is
    not [k], and — descriptively — on an out-of-range site. *)

val clear_forces : t -> unit

val cycle : t -> int
val critical_path : t -> int
val fused_gates : t -> int

val netlist : t -> Hydra_netlist.Netlist.t
(** The netlist actually compiled (post-optimize, post-relayout). *)

val run_packed :
  t -> inputs:(string * int list) list -> cycles:int -> (string * int) list list
(** {!Compiled_wide.run_packed} drop-in: each packed input word is
    broadcast to all [k] words (so every word simulates the same 62
    streams) and rows report word 0 — bit-identical to the wide engine on
    the same stimulus, whatever [k] and gating. *)

val run_vectors : t -> bool array array -> bool array array
(** Batched combinational testbench, [62 * k] vectors per settle pass:
    vector [j] of a pass rides word [j / 62], bit [j mod 62]. *)

val engine :
  ?gating:bool -> ?simd:bool -> ?tuning:Kernel.tuning -> int ->
  (module Engine_intf.S)
(** [engine ?gating ?simd ?tuning k]: this engine as a first-class
    {!Engine_intf.S} with the whole flavor baked into [create] — the
    handle {!Testbench}/{!Equiv} entry points take.  The handle's
    [name] spells the flavor out: ["slab(k=8,gated,simd)"], with a
    non-default tuning appended as its {!Kernel.tuning_to_spec}
    string. *)
