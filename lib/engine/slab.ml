(* Multi-word slab simulator: K consecutive 62-lane words per signal in
   one flat int array.

   {!Compiled_wide} is bounded at 62 lanes because each signal is one
   tagged int; here signal [i] owns words [i*k .. i*k + k - 1] of the
   slab, and every kernel loop runs its gate over the whole K-word run
   before moving on — 62*K lanes per settle pass, with the per-gate
   dst/src index loads (the bottleneck of the wide engine) amortized K
   ways and the K value words streaming from consecutive addresses.  The
   compile pipeline is {!Kernel}, shared with {!Compiled_wide}; the only
   compile-time addition is pre-scaling every index array by [k] so the
   hot loops never multiply.

   Inner loops come in four flavors picked at [settle] time: an exact
   copy of the wide engine's 1-word loops for [k = 1], a 4-way unrolled
   walk when [4 | k] (the intended operating points k = 4/8/16), a
   generic [for w] loop otherwise, and — with [~simd:true] — the
   {!Simd} C stubs, which run each block from a flat descriptor array
   with AVX2/NEON vector loads when the build enabled them (tagged ints
   vectorize directly: and/or preserve the tag, xor re-ors it, inv
   masks against [lane_mask lsl 1]).

   The units of both iteration and gating are the compile-time rank
   {e blocks} of {!Kernel.program}: every levelized rank is tiled into
   blocks of at most {!Kernel.gates_per_block} gates ({!Kernel.tuning},
   sized so one block's K-word value traffic fits L1/L2), and each
   block runs all its per-kind loops before the sweep moves on — a
   k = 16 slab re-walks a cache-hot tile instead of streaming the whole
   rank once per gate kind.

   Activity gating ([~gating:true]) adds a per-block dirty bitset (int
   words, 32 blocks per word) over {!Kernel.consumer_blocks}, plus a
   per-dff-cluster dirty bitset over {!Kernel.dff_sink_clusters} for
   the latch phase:

   - every mutation (input writes, pokes, force application, the dff
     latch phase) compares the new word against the old and, on any
     difference, marks the blocks that read the component and the dff
     clusters that latch it;
   - [settle] skips blocks whose bit is clear and, inside a running
     block, change-detects each gate's K-word result to mark *its*
     readers — consumer blocks always sit at strictly higher ranks, so
     one ascending sweep propagates exactly the active cone;
   - [tick] latches only dirty dff clusters (two staged passes, so dff
     chains crossing clusters still see pre-tick values);
   - a settled quiescent engine costs one scan of the bitset words per
     cycle — an idle CPU pays for its state nothing at all.

   Change detection costs an extra load and xor per word plus a
   consumer-marking pass per changed gate — nearly 2x on a circuit
   whose every block toggles every cycle.  Gating is therefore
   adaptive per block: a block whose gates changed on
   [tuning.hot_after] consecutive detected runs flips to a {e hot}
   mode that runs the plain ungated kernels and conservatively marks
   the union of its consumer blocks (and dff sink clusters),
   re-probing with detection every [tuning.probe_period] runs.  A hot
   block that stops being marked dirty simply stops running, so
   quiescence still propagates instantly; the probe only exists to
   catch blocks whose inputs keep toggling while their outputs have
   stabilized.  High-toggle circuits thus pay only the bitset scan and
   the rare probe (a few percent), while idle workloads keep the full
   skip — at block, not rank, granularity, so the active cone of a
   mostly-idle wide rank re-runs only its own tiles.

   Forces compose with gating: [settle] applies force masks at the
   usual rank-boundary slots with change detection, marking the forced
   site's consumer blocks and dff sink clusters exactly like any other
   mutation, and [set_forces]/[clear_forces] re-mark each affected
   site's own block so a cleared force is recomputed to its natural
   value on the next settle.  Campaigns therefore run gated or
   ungated. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Packed = Hydra_core.Packed

let lanes_per_word = Packed.lanes
let lane_mask = Packed.lane_mask

type force = {
  f_site : int;
  force0 : int array;
  force1 : int array;
  flip : int array;
}

type t = {
  prog : Kernel.program;
  k : int;
  gating : bool;
  simd : bool;
  blocks_s : Kernel.kernel array;
      (* [prog.blocks] with every index pre-scaled by [k] *)
  simd_desc : int array array;
      (* per block: the flat descriptor {!Simd.settle_block} runs;
         [[||]] placeholders when [not simd] *)
  consts_s : (int * int) array;  (* scaled base index, broadcast word *)
  dffs_s : int array;  (* scaled dff bases *)
  dff_src_s : int array;  (* scaled driver bases *)
  dff_init_w : int array;  (* broadcast power-up words *)
  consumers : int array array;
      (* per (unscaled) component: blocks whose kernels read it *)
  dff_sinks : int array array;
      (* per (unscaled) component: dff clusters whose latch reads it *)
  comp_owner : int array;
      (* per (unscaled) component: block whose kernel stores it, or -1 *)
  dff_of_comp : int array;
      (* per (unscaled) component: its index into [prog.dffs], or -1 *)
  block_consumers : (int array * int array) array;
      (* per block: union of its gates' consumer blocks (hot marking),
         as a sparse (bitset word, OR mask) pair list *)
  block_dff_sinks : (int array * int array) array;
      (* per block: union of its gates' dff sink clusters (hot marking) *)
  cluster_consumers : (int array * int array) array;
      (* per dff cluster: union of its dffs' consumer blocks — the
         gated tick marks once per changed cluster, not per dff *)
  cluster_sinks : (int array * int array) array;
      (* per dff cluster: union of its dffs' own dff sink clusters
         (dff-to-dff chains) *)
  values : int array;  (* the slab: size * k + pad *)
  dff_next : int array;  (* ndffs * k + pad *)
  block_dirty : int array;
      (* bitset, 32 blocks per int; only read when gating *)
  dff_dirty : int array;
      (* bitset over dff clusters; only read when gating *)
  cluster_scratch : int array;
      (* tick's snapshot of dirty clusters, length n_dff_clusters *)
  block_mode : int array;
      (* 0 = detecting; n > 0 = hot for n more runs before a probe *)
  block_streak : int array;
      (* consecutive changed runs while detecting; at
         [tuning.hot_after], go hot for [tuning.probe_period] runs *)
  mutable cycle : int;
  mutable force_slots : force array array;
  mutable last_marked : int;
      (* last component [write_word] marked, or -1; consecutive writes
         to the k words of one component mark its consumers once.
         Invalidated wherever dirty bits are consumed (settle, tick). *)
}

let k t = t.k
let words t = t.k
let program t = t.prog
let lanes t = lanes_per_word * t.k
let gated t = t.gating
let simd t = t.simd

(* --- int-word bitsets: 32 bits per word so the shift/mask never meets
   OCaml's 63-bit int edge, [i lsr 5] / [i land 31] indexing --- *)

let bitset_make n = Array.make ((n + 31) lsr 5) 0

(* Set every valid bit, leaving the excess bits of the last word clear so
   a zero-scan of a fully-settled engine really sees all zeros. *)
let bitset_fill b n =
  let full = n lsr 5 in
  Array.fill b 0 full (-1 land 0xFFFFFFFF);
  let rest = n land 31 in
  if rest > 0 then b.(full) <- (1 lsl rest) - 1

let bit_test b i = b.(i lsr 5) land (1 lsl (i land 31)) <> 0

let bit_clear b i =
  let w = i lsr 5 in
  b.(w) <- b.(w) land lnot (1 lsl (i land 31))

let mark_bit b i =
  let w = i lsr 5 in
  b.(w) <- b.(w) lor (1 lsl (i land 31))

let mark_bits b idxs =
  for x = 0 to Array.length idxs - 1 do
    let i = Array.unsafe_get idxs x in
    let w = i lsr 5 in
    Array.unsafe_set b w (Array.unsafe_get b w lor (1 lsl (i land 31)))
  done

(* A precomputed union of dirty-bit targets, stored as (bitset word
   index, OR mask) pairs so marking the whole union is a handful of
   word ORs instead of a walk over every member index. *)
let mask_of_union idxs =
  let words = ref [] and masks = ref [] in
  Array.iter
    (fun i ->
      let w = i lsr 5 and m = 1 lsl (i land 31) in
      match !words with
      | w' :: _ when w' = w -> masks := (List.hd !masks lor m) :: List.tl !masks
      | _ ->
          words := w :: !words;
          masks := m :: !masks)
    idxs;
  (Array.of_list (List.rev !words), Array.of_list (List.rev !masks))

let or_mask b (idx, msk) =
  for x = 0 to Array.length idx - 1 do
    let w = Array.unsafe_get idx x in
    Array.unsafe_set b w (Array.unsafe_get b w lor Array.unsafe_get msk x)
  done

let any_bit b =
  let n = Array.length b in
  let rec go i = i < n && (Array.unsafe_get b i <> 0 || go (i + 1)) in
  go 0

let scale_kernel c (kn : Kernel.kernel) : Kernel.kernel =
  let s = Array.map (fun i -> i * c) in
  {
    inv_dst = s kn.inv_dst;
    inv_src = s kn.inv_src;
    and_dst = s kn.and_dst;
    and_s0 = s kn.and_s0;
    and_s1 = s kn.and_s1;
    or_dst = s kn.or_dst;
    or_s0 = s kn.or_s0;
    or_s1 = s kn.or_s1;
    xor_dst = s kn.xor_dst;
    xor_s0 = s kn.xor_s0;
    xor_s1 = s kn.xor_s1;
    andor_dst = s kn.andor_dst;
    andor_a = s kn.andor_a;
    andor_b = s kn.andor_b;
    andor_c = s kn.andor_c;
    andor_d = s kn.andor_d;
    orand_dst = s kn.orand_dst;
    orand_a = s kn.orand_a;
    orand_b = s kn.orand_b;
    orand_c = s kn.orand_c;
    xor3_dst = s kn.xor3_dst;
    xor3_a = s kn.xor3_a;
    xor3_b = s kn.xor3_b;
    xor3_c = s kn.xor3_c;
    out_dst = s kn.out_dst;
    out_src = s kn.out_src;
  }

let apply_initial t =
  let values = t.values and km1 = t.k - 1 in
  Array.iter
    (fun (base, w) ->
      for x = base to base + km1 do
        Array.unsafe_set values x w
      done)
    t.consts_s;
  Array.iteri
    (fun j base ->
      let w = t.dff_init_w.(j) in
      for x = base to base + km1 do
        Array.unsafe_set values x w
      done)
    t.dffs_s

(* Cache-line slack so replicas allocated back to back never share a
   line across domains (cf. {!Compiled_wide}). *)
let pad = 8

(* Per block, the sorted union of its gates' consumer blocks (resp. dff
   sink clusters): what a hot block marks after an undetected run. *)
let block_union universe (prog : Kernel.program) per_comp =
  Array.map
    (fun (kn : Kernel.kernel) ->
      let seen = Array.make (max 1 universe) false in
      let add comp = Array.iter (fun b -> seen.(b) <- true) per_comp.(comp) in
      Array.iter add kn.inv_dst;
      Array.iter add kn.and_dst;
      Array.iter add kn.or_dst;
      Array.iter add kn.xor_dst;
      Array.iter add kn.andor_dst;
      Array.iter add kn.orand_dst;
      Array.iter add kn.xor3_dst;
      let out = ref [] in
      for b = universe - 1 downto 0 do
        if seen.(b) then out := b :: !out
      done;
      Array.of_list !out)
    prog.Kernel.blocks

(* Per dff cluster, the sorted union of its dffs' [per_comp] entries:
   one mark per changed cluster keeps the gated tick's bookkeeping off
   the per-dff fast path. *)
let cluster_union universe (prog : Kernel.program) per_comp =
  let dffs = prog.Kernel.dffs in
  let n = Array.length dffs in
  let cpd = prog.Kernel.dffs_per_cluster in
  Array.init prog.Kernel.n_dff_clusters (fun cl ->
      let seen = Array.make (max 1 universe) false in
      let hi = min n ((cl + 1) * cpd) - 1 in
      for j = cl * cpd to hi do
        Array.iter (fun b -> seen.(b) <- true) per_comp.(dffs.(j))
      done;
      let out = ref [] in
      for b = universe - 1 downto 0 do
        if seen.(b) then out := b :: !out
      done;
      Array.of_list !out)

(* The flat block descriptor the {!Simd} C stub walks: [k] then the
   eight kind counts, then (dst, src...) index tuples per kind in stub
   order, every index pre-scaled by [k]. *)
let simd_descriptor k (kn : Kernel.kernel) =
  let n_inv = Array.length kn.inv_dst
  and n_and = Array.length kn.and_dst
  and n_or = Array.length kn.or_dst
  and n_xor = Array.length kn.xor_dst
  and n_andor = Array.length kn.andor_dst
  and n_orand = Array.length kn.orand_dst
  and n_xor3 = Array.length kn.xor3_dst
  and n_out = Array.length kn.out_dst in
  let len =
    9
    + (2 * (n_inv + n_out))
    + (3 * (n_and + n_or + n_xor))
    + (5 * n_andor)
    + (4 * (n_orand + n_xor3))
  in
  let d = Array.make len 0 in
  d.(0) <- k;
  d.(1) <- n_inv;
  d.(2) <- n_and;
  d.(3) <- n_or;
  d.(4) <- n_xor;
  d.(5) <- n_andor;
  d.(6) <- n_orand;
  d.(7) <- n_xor3;
  d.(8) <- n_out;
  let pos = ref 9 in
  let push v =
    d.(!pos) <- v;
    incr pos
  in
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.inv_src.(j))
    kn.inv_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.and_s0.(j);
      push kn.and_s1.(j))
    kn.and_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.or_s0.(j);
      push kn.or_s1.(j))
    kn.or_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.xor_s0.(j);
      push kn.xor_s1.(j))
    kn.xor_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.andor_a.(j);
      push kn.andor_b.(j);
      push kn.andor_c.(j);
      push kn.andor_d.(j))
    kn.andor_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.orand_a.(j);
      push kn.orand_b.(j);
      push kn.orand_c.(j))
    kn.orand_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.xor3_a.(j);
      push kn.xor3_b.(j);
      push kn.xor3_c.(j))
    kn.xor3_dst;
  Array.iteri
    (fun j dst ->
      push dst;
      push kn.out_src.(j))
    kn.out_dst;
  assert (!pos = len);
  d

(* Build an engine over an already-compiled program (the slab's K is the
   program's k): no compile-time pass re-runs, only the per-instance
   value state plus the gating/simd metadata derived from [prog]. *)
let of_program ?(gating = false) ?(simd = false) prog =
  let k = prog.Kernel.k in
  let consumers = Kernel.consumer_blocks prog in
  let dff_sinks = Kernel.dff_sink_clusters prog in
  let nblocks = Array.length prog.Kernel.blocks in
  let blocks_s = Array.map (scale_kernel k) prog.Kernel.blocks in
  let t =
    {
      prog;
      k;
      gating;
      simd;
      blocks_s;
      simd_desc =
        (if simd then Array.map (simd_descriptor k) blocks_s
         else Array.make nblocks [||]);
      consts_s =
        Array.map (fun (i, b) -> (i * k, Packed.broadcast b)) prog.Kernel.consts;
      dffs_s = Array.map (fun i -> i * k) prog.Kernel.dffs;
      dff_src_s = Array.map (fun i -> i * k) prog.Kernel.dff_src;
      dff_init_w = Array.map Packed.broadcast prog.Kernel.dff_init;
      consumers;
      dff_sinks;
      comp_owner = Kernel.comp_block prog;
      dff_of_comp =
        (let a = Array.make (Kernel.size prog) (-1) in
         Array.iteri (fun j comp -> a.(comp) <- j) prog.Kernel.dffs;
         a);
      block_consumers =
        Array.map mask_of_union (block_union nblocks prog consumers);
      block_dff_sinks =
        Array.map mask_of_union
          (block_union prog.Kernel.n_dff_clusters prog dff_sinks);
      cluster_consumers =
        Array.map mask_of_union (cluster_union nblocks prog consumers);
      cluster_sinks =
        Array.map mask_of_union
          (cluster_union prog.Kernel.n_dff_clusters prog dff_sinks);
      values = Array.make ((Kernel.size prog * k) + pad) 0;
      dff_next = Array.make ((Array.length prog.Kernel.dffs * k) + pad) 0;
      block_dirty = bitset_make nblocks;
      dff_dirty = bitset_make prog.Kernel.n_dff_clusters;
      cluster_scratch = Array.make (max 1 prog.Kernel.n_dff_clusters) 0;
      block_mode = Array.make nblocks 0;
      block_streak = Array.make nblocks 0;
      cycle = 0;
      force_slots = [||];
      last_marked = -1;
    }
  in
  bitset_fill t.block_dirty nblocks;
  bitset_fill t.dff_dirty prog.Kernel.n_dff_clusters;
  apply_initial t;
  t

let create ?(k = 8) ?(gating = false) ?(simd = false) ?(optimize = false)
    ?(relayout = true) ?(fuse = true) ?(certify = false)
    ?(tuning = Kernel.default_tuning) netlist =
  if k < 1 then invalid_arg "Slab.create: k must be >= 1";
  of_program ~gating ~simd
    (Kernel.compile ~optimize ~relayout ~fuse ~certify ~tuning ~k netlist)

let replicate t =
  let nblocks = Array.length t.prog.Kernel.blocks in
  let r =
    {
      t with
      values = Array.make (Array.length t.values) 0;
      dff_next = Array.make (Array.length t.dff_next) 0;
      block_dirty = bitset_make nblocks;
      dff_dirty = bitset_make t.prog.Kernel.n_dff_clusters;
      cluster_scratch = Array.make (Array.length t.cluster_scratch) 0;
      block_mode = Array.make nblocks 0;
      block_streak = Array.make nblocks 0;
      cycle = 0;
      force_slots = [||];
      last_marked = -1;
    }
  in
  bitset_fill r.block_dirty nblocks;
  bitset_fill r.dff_dirty t.prog.Kernel.n_dff_clusters;
  apply_initial r;
  r

(* Note the hot/detect adaptation state deliberately survives [reset]:
   it is a performance cache over the workload's toggle pattern, cannot
   affect simulated values (hot is conservative), and a reset-step loop
   re-running the same stimulus is exactly where staying hot pays. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  apply_initial t;
  bitset_fill t.block_dirty (Array.length t.prog.Kernel.blocks);
  bitset_fill t.dff_dirty t.prog.Kernel.n_dff_clusters;
  t.cycle <- 0;
  t.last_marked <- -1

(* Every change-detected mutation marks through here: the blocks whose
   kernels read the component, and the dff clusters that latch it. *)
let mark_comp t comp =
  mark_bits t.block_dirty t.consumers.(comp);
  let ds = t.dff_sinks.(comp) in
  if Array.length ds > 0 then mark_bits t.dff_dirty ds

let check_word what t w =
  if w < 0 || w >= t.k then
    invalid_arg
      (Printf.sprintf "%s: word index %d out of range (engine has %d words)"
         what w t.k)

(* Every mutation funnels through here: masked write + (when gating)
   change detection and consumer marking.  A poked dff state also marks
   its own latch cluster: the ungated tick re-latches every dff from its
   driver, so the poked value must not outlive the next tick just
   because the driver did not change. *)
let write_word t comp w v =
  let v = v land lane_mask in
  let idx = (comp * t.k) + w in
  if t.gating then begin
    if t.values.(idx) <> v then begin
      t.values.(idx) <- v;
      (* the k word-writes of one component arrive back to back; mark
         its consumers once, not once per word *)
      if t.last_marked <> comp then begin
        mark_comp t comp;
        let j = t.dff_of_comp.(comp) in
        if j >= 0 then
          mark_bit t.dff_dirty (j / t.prog.Kernel.dffs_per_cluster);
        t.last_marked <- comp
      end
    end
  end
  else t.values.(idx) <- v

let input_comp what t name =
  match Hashtbl.find_opt t.prog.Kernel.input_index name with
  | Some i -> i
  | None -> invalid_arg (what ^ ": unknown input " ^ name)

let set_input_word t name w v =
  check_word "Slab.set_input_word" t w;
  write_word t (input_comp "Slab.set_input_word" t name) w v

let set_input t name v = write_word t (input_comp "Slab.set_input" t name) 0 v

let set_input_bool t name b =
  let comp = input_comp "Slab.set_input_bool" t name in
  let w = Packed.broadcast b in
  for j = 0 to t.k - 1 do
    write_word t comp j w
  done

let set_input_lane t name lane b =
  if lane < 0 || lane >= lanes t then
    invalid_arg
      (Printf.sprintf "Slab.set_input_lane: lane %d out of range (engine has %d lanes)"
         lane (lanes t));
  let comp = input_comp "Slab.set_input_lane" t name in
  let w = lane / lanes_per_word and bit = lane mod lanes_per_word in
  write_word t comp w (Packed.set_lane t.values.((comp * t.k) + w) bit b)

let peek_word t i w =
  check_word "Slab.peek_word" t w;
  t.values.((i * t.k) + w)

let peek t i = t.values.(i * t.k)

let poke_word t i w v =
  check_word "Slab.poke_word" t w;
  write_word t i w v

let poke t i v = write_word t i 0 v

let output_comp what t name =
  match Hashtbl.find_opt t.prog.Kernel.output_index name with
  | Some i -> i
  | None -> invalid_arg (what ^ ": unknown output " ^ name)

let output_word t name w =
  check_word "Slab.output_word" t w;
  t.values.((output_comp "Slab.output_word" t name * t.k) + w)

let output t name = t.values.(output_comp "Slab.output" t name * t.k)

let output_lane t name lane =
  if lane < 0 || lane >= lanes t then
    invalid_arg
      (Printf.sprintf "Slab.output_lane: lane %d out of range (engine has %d lanes)"
         lane (lanes t));
  let comp = output_comp "Slab.output_lane" t name in
  Packed.lane
    t.values.((comp * t.k) + (lane / lanes_per_word))
    (lane mod lanes_per_word)

let outputs t =
  List.map
    (fun (s, i) -> (s, t.values.(i * t.k)))
    t.prog.Kernel.netlist.Netlist.outputs

let cycle t = t.cycle
let netlist t = t.prog.Kernel.netlist
let critical_path t = t.prog.Kernel.levels.Levelize.critical_path
let fused_gates t = t.prog.Kernel.fused

(* On a gated engine, installing, replacing or clearing forces marks
   every affected site's own block (so a gate no longer forced is
   recomputed to its natural value on the next settle — the recompute's
   change detection then propagates downstream) or, for a dff site, its
   own latch cluster (so the next tick re-latches the natural driver
   value), plus its consumer blocks and dff sink clusters.  Input and
   constant sites keep the forced value until re-driven, exactly like
   the ungated engine. *)
(* A forced site must be re-driven to its natural value before each
   force application, exactly as the ungated engine recomputes (gate)
   or re-latches (dff) it every cycle — otherwise a skipped block would
   let [apply_forces_detect] re-apply a flip mask to the already-forced
   value.  So each gated settle keeps every forced site's own block and
   own latch cluster dirty.  Input and constant sites have neither and
   keep the forced value until re-driven, matching the ungated
   engine. *)
let mark_force_own t =
  Array.iter
    (fun slot ->
      Array.iter
        (fun f ->
          let own = t.comp_owner.(f.f_site) in
          if own >= 0 then mark_bit t.block_dirty own;
          let j = t.dff_of_comp.(f.f_site) in
          if j >= 0 then
            mark_bit t.dff_dirty (j / t.prog.Kernel.dffs_per_cluster))
        slot)
    t.force_slots

let mark_force_sites t =
  if t.gating then begin
    mark_force_own t;
    Array.iter
      (fun slot -> Array.iter (fun f -> mark_comp t f.f_site) slot)
      t.force_slots
  end

let set_forces t forces =
  if t.prog.Kernel.fused > 0 then
    invalid_arg "Slab.set_forces: requires an engine built with ~fuse:false";
  mark_force_sites t;
  let slots = Array.make (Kernel.n_force_slots t.prog) [] in
  Array.iter
    (fun f ->
      if
        Array.length f.force0 <> t.k
        || Array.length f.force1 <> t.k
        || Array.length f.flip <> t.k
      then
        invalid_arg
          (Printf.sprintf "Slab.set_forces: mask arrays must have k = %d words"
             t.k);
      let slot = Kernel.force_slot ~what:"Slab.set_forces" t.prog f.f_site in
      slots.(slot) <- f :: slots.(slot))
    forces;
  t.force_slots <- Array.map (fun l -> Array.of_list (List.rev l)) slots;
  mark_force_sites t

let clear_forces t =
  mark_force_sites t;
  t.force_slots <- [||]

let apply_forces t slot =
  let values = t.values and k = t.k in
  for j = 0 to Array.length slot - 1 do
    let f = Array.unsafe_get slot j in
    let base = f.f_site * k in
    for w = 0 to k - 1 do
      let v = Array.unsafe_get values (base + w) in
      Array.unsafe_set values (base + w)
        ((((v land lnot (Array.unsafe_get f.force0 w))
          lor Array.unsafe_get f.force1 w)
         lxor Array.unsafe_get f.flip w)
        land lane_mask)
    done
  done

(* The gated flavor: same masks, but change-detected so a force edit (a
   campaign mutating its per-cycle flip masks in place, or a site whose
   block just recomputed a natural value the force overrides) marks the
   site's readers like any other mutation. *)
let apply_forces_detect t slot =
  let values = t.values and k = t.k in
  for j = 0 to Array.length slot - 1 do
    let f = Array.unsafe_get slot j in
    let base = f.f_site * k in
    let diff = ref 0 in
    for w = 0 to k - 1 do
      let v = Array.unsafe_get values (base + w) in
      let nv =
        (((v land lnot (Array.unsafe_get f.force0 w))
         lor Array.unsafe_get f.force1 w)
        lxor Array.unsafe_get f.flip w)
        land lane_mask
      in
      diff := !diff lor (v lxor nv);
      Array.unsafe_set values (base + w) nv
    done;
    if !diff <> 0 then mark_comp t f.f_site
  done

(* ------------------------------------------------------------------ *)
(* Ungated settle, k = 1: the wide engine's loops verbatim (scaled
   indices are the plain indices).                                     *)

let settle_block_k1 values (kn : Kernel.kernel) =
  let dst = kn.inv_dst and src = kn.inv_src in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (lnot (Array.unsafe_get values (Array.unsafe_get src j)) land lane_mask)
  done;
  let dst = kn.and_dst and s0 = kn.and_s0 and s1 = kn.and_s1 in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get s0 j)
      land Array.unsafe_get values (Array.unsafe_get s1 j))
  done;
  let dst = kn.or_dst and s0 = kn.or_s0 and s1 = kn.or_s1 in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get s0 j)
      lor Array.unsafe_get values (Array.unsafe_get s1 j))
  done;
  let dst = kn.xor_dst and s0 = kn.xor_s0 and s1 = kn.xor_s1 in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get s0 j)
      lxor Array.unsafe_get values (Array.unsafe_get s1 j))
  done;
  let dst = kn.andor_dst and a = kn.andor_a and b = kn.andor_b
  and c = kn.andor_c and d = kn.andor_d in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get a j)
       land Array.unsafe_get values (Array.unsafe_get b j)
      lor (Array.unsafe_get values (Array.unsafe_get c j)
          land Array.unsafe_get values (Array.unsafe_get d j)))
  done;
  let dst = kn.orand_dst and a = kn.orand_a and b = kn.orand_b
  and c = kn.orand_c in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get a j)
       land Array.unsafe_get values (Array.unsafe_get b j)
      lor Array.unsafe_get values (Array.unsafe_get c j))
  done;
  let dst = kn.xor3_dst and a = kn.xor3_a and b = kn.xor3_b and c = kn.xor3_c in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get a j)
      lxor Array.unsafe_get values (Array.unsafe_get b j)
      lxor Array.unsafe_get values (Array.unsafe_get c j))
  done;
  let dst = kn.out_dst and src = kn.out_src in
  for j = 0 to Array.length dst - 1 do
    Array.unsafe_set values
      (Array.unsafe_get dst j)
      (Array.unsafe_get values (Array.unsafe_get src j))
  done

(* ------------------------------------------------------------------ *)
(* Ungated settle, 4 | k: each gate walks its K-word run 4 words per
   iteration — the index loads happen once per gate, the word traffic
   streams.                                                            *)

let settle_block_quad values k (kn : Kernel.kernel) =
  let dst = kn.inv_dst and src = kn.inv_src in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (lnot (Array.unsafe_get values (s + q)) land lane_mask);
      Array.unsafe_set values (d + q + 1)
        (lnot (Array.unsafe_get values (s + q + 1)) land lane_mask);
      Array.unsafe_set values (d + q + 2)
        (lnot (Array.unsafe_get values (s + q + 2)) land lane_mask);
      Array.unsafe_set values (d + q + 3)
        (lnot (Array.unsafe_get values (s + q + 3)) land lane_mask);
      w := q + 4
    done
  done;
  let dst = kn.and_dst and s0 = kn.and_s0 and s1 = kn.and_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (a + q) land Array.unsafe_get values (b + q));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (a + q + 1)
        land Array.unsafe_get values (b + q + 1));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (a + q + 2)
        land Array.unsafe_get values (b + q + 2));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (a + q + 3)
        land Array.unsafe_get values (b + q + 3));
      w := q + 4
    done
  done;
  let dst = kn.or_dst and s0 = kn.or_s0 and s1 = kn.or_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (a + q) lor Array.unsafe_get values (b + q));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (a + q + 1)
        lor Array.unsafe_get values (b + q + 1));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (a + q + 2)
        lor Array.unsafe_get values (b + q + 2));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (a + q + 3)
        lor Array.unsafe_get values (b + q + 3));
      w := q + 4
    done
  done;
  let dst = kn.xor_dst and s0 = kn.xor_s0 and s1 = kn.xor_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (a + q) lxor Array.unsafe_get values (b + q));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (a + q + 1)
        lxor Array.unsafe_get values (b + q + 1));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (a + q + 2)
        lxor Array.unsafe_get values (b + q + 2));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (a + q + 3)
        lxor Array.unsafe_get values (b + q + 3));
      w := q + 4
    done
  done;
  let dst = kn.andor_dst and a = kn.andor_a and b = kn.andor_b
  and c = kn.andor_c and d4 = kn.andor_d in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j
    and pd = Array.unsafe_get d4 j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (pa + q)
         land Array.unsafe_get values (pb + q)
        lor (Array.unsafe_get values (pc + q)
            land Array.unsafe_get values (pd + q)));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (pa + q + 1)
         land Array.unsafe_get values (pb + q + 1)
        lor (Array.unsafe_get values (pc + q + 1)
            land Array.unsafe_get values (pd + q + 1)));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (pa + q + 2)
         land Array.unsafe_get values (pb + q + 2)
        lor (Array.unsafe_get values (pc + q + 2)
            land Array.unsafe_get values (pd + q + 2)));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (pa + q + 3)
         land Array.unsafe_get values (pb + q + 3)
        lor (Array.unsafe_get values (pc + q + 3)
            land Array.unsafe_get values (pd + q + 3)));
      w := q + 4
    done
  done;
  let dst = kn.orand_dst and a = kn.orand_a and b = kn.orand_b
  and c = kn.orand_c in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (pa + q)
         land Array.unsafe_get values (pb + q)
        lor Array.unsafe_get values (pc + q));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (pa + q + 1)
         land Array.unsafe_get values (pb + q + 1)
        lor Array.unsafe_get values (pc + q + 1));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (pa + q + 2)
         land Array.unsafe_get values (pb + q + 2)
        lor Array.unsafe_get values (pc + q + 2));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (pa + q + 3)
         land Array.unsafe_get values (pb + q + 3)
        lor Array.unsafe_get values (pc + q + 3));
      w := q + 4
    done
  done;
  let dst = kn.xor3_dst and a = kn.xor3_a and b = kn.xor3_b and c = kn.xor3_c in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q)
        (Array.unsafe_get values (pa + q)
        lxor Array.unsafe_get values (pb + q)
        lxor Array.unsafe_get values (pc + q));
      Array.unsafe_set values (d + q + 1)
        (Array.unsafe_get values (pa + q + 1)
        lxor Array.unsafe_get values (pb + q + 1)
        lxor Array.unsafe_get values (pc + q + 1));
      Array.unsafe_set values (d + q + 2)
        (Array.unsafe_get values (pa + q + 2)
        lxor Array.unsafe_get values (pb + q + 2)
        lxor Array.unsafe_get values (pc + q + 2));
      Array.unsafe_set values (d + q + 3)
        (Array.unsafe_get values (pa + q + 3)
        lxor Array.unsafe_get values (pb + q + 3)
        lxor Array.unsafe_get values (pc + q + 3));
      w := q + 4
    done
  done;
  let dst = kn.out_dst and src = kn.out_src in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
    let w = ref 0 in
    while !w < k do
      let q = !w in
      Array.unsafe_set values (d + q) (Array.unsafe_get values (s + q));
      Array.unsafe_set values (d + q + 1) (Array.unsafe_get values (s + q + 1));
      Array.unsafe_set values (d + q + 2) (Array.unsafe_get values (s + q + 2));
      Array.unsafe_set values (d + q + 3) (Array.unsafe_get values (s + q + 3));
      w := q + 4
    done
  done

(* ------------------------------------------------------------------ *)
(* Ungated settle, any k: plain [for w] inner loops.                   *)

let settle_block_gen values k (kn : Kernel.kernel) =
  let km1 = k - 1 in
  let dst = kn.inv_dst and src = kn.inv_src in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (lnot (Array.unsafe_get values (s + w)) land lane_mask)
    done
  done;
  let dst = kn.and_dst and s0 = kn.and_s0 and s1 = kn.and_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (a + w) land Array.unsafe_get values (b + w))
    done
  done;
  let dst = kn.or_dst and s0 = kn.or_s0 and s1 = kn.or_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (a + w) lor Array.unsafe_get values (b + w))
    done
  done;
  let dst = kn.xor_dst and s0 = kn.xor_s0 and s1 = kn.xor_s1 in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and a = Array.unsafe_get s0 j
    and b = Array.unsafe_get s1 j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (a + w) lxor Array.unsafe_get values (b + w))
    done
  done;
  let dst = kn.andor_dst and a = kn.andor_a and b = kn.andor_b
  and c = kn.andor_c and d4 = kn.andor_d in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j
    and pd = Array.unsafe_get d4 j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (pa + w)
         land Array.unsafe_get values (pb + w)
        lor (Array.unsafe_get values (pc + w)
            land Array.unsafe_get values (pd + w)))
    done
  done;
  let dst = kn.orand_dst and a = kn.orand_a and b = kn.orand_b
  and c = kn.orand_c in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (pa + w)
         land Array.unsafe_get values (pb + w)
        lor Array.unsafe_get values (pc + w))
    done
  done;
  let dst = kn.xor3_dst and a = kn.xor3_a and b = kn.xor3_b and c = kn.xor3_c in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j
    and pa = Array.unsafe_get a j
    and pb = Array.unsafe_get b j
    and pc = Array.unsafe_get c j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w)
        (Array.unsafe_get values (pa + w)
        lxor Array.unsafe_get values (pb + w)
        lxor Array.unsafe_get values (pc + w))
    done
  done;
  let dst = kn.out_dst and src = kn.out_src in
  for j = 0 to Array.length dst - 1 do
    let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
    for w = 0 to km1 do
      Array.unsafe_set values (d + w) (Array.unsafe_get values (s + w))
    done
  done

(* ------------------------------------------------------------------ *)
(* Gated settle, detecting run: change-detect each gate's K-word result
   and mark its reader blocks and dff sink clusters.  Slightly more work
   per evaluated gate than the ungated loops (one extra load and an xor
   per word) — the payoff is the blocks never entered.  Returns whether
   any gate in the block changed, feeding the hot/detect adaptation.   *)

let settle_block_detect t (kn : Kernel.kernel) (pk : Kernel.kernel) =
  let values = t.values and k = t.k in
  let km1 = k - 1 in
  let changed = ref false in
  let dst = kn.inv_dst and src = kn.inv_src and dst_u = pk.inv_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv = lnot (Array.unsafe_get values (s + w)) land lane_mask in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.and_dst and s0 = kn.and_s0 and s1 = kn.and_s1
      and dst_u = pk.and_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and a = Array.unsafe_get s0 j
        and b = Array.unsafe_get s1 j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (a + w) land Array.unsafe_get values (b + w)
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.or_dst and s0 = kn.or_s0 and s1 = kn.or_s1
      and dst_u = pk.or_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and a = Array.unsafe_get s0 j
        and b = Array.unsafe_get s1 j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (a + w) lor Array.unsafe_get values (b + w)
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.xor_dst and s0 = kn.xor_s0 and s1 = kn.xor_s1
      and dst_u = pk.xor_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and a = Array.unsafe_get s0 j
        and b = Array.unsafe_get s1 j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (a + w) lxor Array.unsafe_get values (b + w)
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.andor_dst and a = kn.andor_a and b = kn.andor_b
      and c = kn.andor_c and d4 = kn.andor_d and dst_u = pk.andor_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and pa = Array.unsafe_get a j
        and pb = Array.unsafe_get b j
        and pc = Array.unsafe_get c j
        and pd = Array.unsafe_get d4 j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (pa + w)
             land Array.unsafe_get values (pb + w)
            lor (Array.unsafe_get values (pc + w)
                land Array.unsafe_get values (pd + w))
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.orand_dst and a = kn.orand_a and b = kn.orand_b
      and c = kn.orand_c and dst_u = pk.orand_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and pa = Array.unsafe_get a j
        and pb = Array.unsafe_get b j
        and pc = Array.unsafe_get c j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (pa + w)
             land Array.unsafe_get values (pb + w)
            lor Array.unsafe_get values (pc + w)
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      let dst = kn.xor3_dst and a = kn.xor3_a and b = kn.xor3_b
      and c = kn.xor3_c and dst_u = pk.xor3_dst in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j
        and pa = Array.unsafe_get a j
        and pb = Array.unsafe_get b j
        and pc = Array.unsafe_get c j in
        let diff = ref 0 in
        for w = 0 to km1 do
          let old = Array.unsafe_get values (d + w) in
          let nv =
            Array.unsafe_get values (pa + w)
            lxor Array.unsafe_get values (pb + w)
            lxor Array.unsafe_get values (pc + w)
          in
          diff := !diff lor (old lxor nv);
          Array.unsafe_set values (d + w) nv
        done;
        if !diff <> 0 then begin
          changed := true;
          mark_comp t (Array.unsafe_get dst_u j)
        end
      done;
      (* outports have no consumer ranks: plain copies, no detection *)
      let dst = kn.out_dst and src = kn.out_src in
      for j = 0 to Array.length dst - 1 do
        let d = Array.unsafe_get dst j and s = Array.unsafe_get src j in
        for w = 0 to km1 do
          Array.unsafe_set values (d + w) (Array.unsafe_get values (s + w))
        done
      done;
      !changed

(* One block through the plain (undetected) kernels: the C stub when
   the engine was created with [~simd:true], else the k-dispatched
   OCaml loops. *)
let run_plain_block t (kn : Kernel.kernel) b =
  if t.simd then Simd.settle_block t.values t.simd_desc.(b)
  else if t.k = 1 then settle_block_k1 t.values kn
  else if t.k land 3 = 0 then settle_block_quad t.values t.k kn
  else settle_block_gen t.values t.k kn

(* Gated settle: run only dirty blocks, ascending (consumer blocks are
   always at strictly higher ranks, so one sweep reaches the whole
   active cone); hot blocks take the fast ungated loops and mark their
   whole consumer union, detecting blocks pay for precision and drive
   the mode transitions.  Forces are applied at the same rank-boundary
   slots as the ungated engine, change-detected.  A fully-quiescent
   unforced engine exits after one scan of the bitset words. *)
let settle_gated t =
  t.last_marked <- -1;
  let dirty = t.block_dirty in
  let slots = t.force_slots in
  let forced = Array.length slots > 0 in
  if forced || any_bit dirty then begin
    let blocks = t.blocks_s and pblocks = t.prog.Kernel.blocks in
    let rfb = t.prog.Kernel.rank_first_block in
    let modes = t.block_mode and streaks = t.block_streak in
    let hot_after = t.prog.Kernel.tuning.Kernel.hot_after in
    let probe_period = t.prog.Kernel.tuning.Kernel.probe_period in
    if forced then begin
      mark_force_own t;
      apply_forces_detect t (Array.unsafe_get slots 0)
    end;
    for lvl = 0 to Array.length rfb - 2 do
      for b = Array.unsafe_get rfb lvl to Array.unsafe_get rfb (lvl + 1) - 1 do
        if bit_test dirty b then begin
          bit_clear dirty b;
          let kn : Kernel.kernel = Array.unsafe_get blocks b in
          let mode = Array.unsafe_get modes b in
          if mode > 0 then begin
            Array.unsafe_set modes b (mode - 1);
            (* leaving hot mode: seed the streak so a single changed
               probe run re-arms a recently-hot block, instead of
               paying [hot_after] detect-mode runs per probe *)
            if mode = 1 then Array.unsafe_set streaks b (hot_after - 1);
            run_plain_block t kn b;
            or_mask dirty (Array.unsafe_get t.block_consumers b);
            or_mask t.dff_dirty (Array.unsafe_get t.block_dff_sinks b)
          end
          else if settle_block_detect t kn (Array.unsafe_get pblocks b) then begin
            let s = Array.unsafe_get streaks b + 1 in
            if s >= hot_after then begin
              Array.unsafe_set streaks b 0;
              Array.unsafe_set modes b probe_period
            end
            else Array.unsafe_set streaks b s
          end
          else Array.unsafe_set streaks b 0
        end
      done;
      if forced then apply_forces_detect t (Array.unsafe_get slots (lvl + 1))
    done
  end

let settle t =
  if t.gating then settle_gated t
  else begin
    let values = t.values and k = t.k in
    let blocks = t.blocks_s in
    let rfb = t.prog.Kernel.rank_first_block in
    let slots = t.force_slots in
    let forced = Array.length slots > 0 in
    if forced then apply_forces t (Array.unsafe_get slots 0);
    for lvl = 0 to Array.length rfb - 2 do
      let b0 = Array.unsafe_get rfb lvl
      and b1 = Array.unsafe_get rfb (lvl + 1) - 1 in
      if t.simd then
        for b = b0 to b1 do
          Simd.settle_block values t.simd_desc.(b)
        done
      else if k = 1 then
        for b = b0 to b1 do
          settle_block_k1 values (Array.unsafe_get blocks b)
        done
      else if k land 3 = 0 then
        for b = b0 to b1 do
          settle_block_quad values k (Array.unsafe_get blocks b)
        done
      else
        for b = b0 to b1 do
          settle_block_gen values k (Array.unsafe_get blocks b)
        done;
      if forced then apply_forces t (Array.unsafe_get slots (lvl + 1))
    done
  end

(* Gated tick: latch only dirty dff clusters.  The dirty bits are
   snapshotted (and cleared) up front, then the staged copy runs in two
   passes over the snapshot — pass 2's writes mark sink clusters for
   the *next* tick without disturbing the snapshot, and dff-chain reads
   in pass 1 still see every pre-tick value whatever the cluster
   order. *)
let tick_gated t =
  t.last_marked <- -1;
  let values = t.values and next = t.dff_next and k = t.k in
  let km1 = k - 1 in
  let dffs = t.dffs_s and src = t.dff_src_s in
  let n = Array.length dffs in
  let cpd = t.prog.Kernel.dffs_per_cluster in
  let dd = t.dff_dirty in
  let snap = t.cluster_scratch in
  let nsnap = ref 0 in
  for wi = 0 to Array.length dd - 1 do
    let word = Array.unsafe_get dd wi in
    if word <> 0 then begin
      Array.unsafe_set dd wi 0;
      for bit = 0 to 31 do
        if word land (1 lsl bit) <> 0 then begin
          Array.unsafe_set snap !nsnap ((wi lsl 5) lor bit);
          incr nsnap
        end
      done
    end
  done;
  for x = 0 to !nsnap - 1 do
    let cl = Array.unsafe_get snap x in
    let lo = cl * cpd in
    let hi = min n (lo + cpd) - 1 in
    for j = lo to hi do
      let s = Array.unsafe_get src j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set next (base + w) (Array.unsafe_get values (s + w))
      done
    done
  done;
  for x = 0 to !nsnap - 1 do
    let cl = Array.unsafe_get snap x in
    let lo = cl * cpd in
    let hi = min n (lo + cpd) - 1 in
    let cl_diff = ref 0 in
    for j = lo to hi do
      let d = Array.unsafe_get dffs j and base = j * k in
      for w = 0 to km1 do
        let old = Array.unsafe_get values (d + w) in
        let nv = Array.unsafe_get next (base + w) in
        cl_diff := !cl_diff lor (old lxor nv);
        Array.unsafe_set values (d + w) nv
      done
    done;
    if !cl_diff <> 0 then begin
      or_mask t.block_dirty t.cluster_consumers.(cl);
      or_mask t.dff_dirty t.cluster_sinks.(cl)
    end
  done;
  t.cycle <- t.cycle + 1

let tick t =
  if t.gating then tick_gated t
  else begin
    let values = t.values and next = t.dff_next and k = t.k in
    let km1 = k - 1 in
    let dffs = t.dffs_s and src = t.dff_src_s in
    let n = Array.length dffs in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get src j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set next (base + w) (Array.unsafe_get values (s + w))
      done
    done;
    for j = 0 to n - 1 do
      let d = Array.unsafe_get dffs j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set values (d + w) (Array.unsafe_get next (base + w))
      done
    done;
    t.cycle <- t.cycle + 1
  end

let step t =
  settle t;
  tick t

let run_packed t ~inputs ~cycles =
  reset t;
  let rows = ref [] in
  for c = 0 to cycles - 1 do
    List.iter
      (fun (name, vals) ->
        let value = match List.nth_opt vals c with Some w -> w | None -> 0 in
        let comp = input_comp "Slab.run_packed" t name in
        for w = 0 to t.k - 1 do
          write_word t comp w value
        done)
      inputs;
    settle t;
    rows := outputs t :: !rows;
    tick t
  done;
  List.rev !rows

let run_vectors t vectors =
  let nvec = Array.length vectors in
  let nl = netlist t in
  let in_ports = Array.of_list nl.Netlist.inputs in
  let out_ports = Array.of_list nl.Netlist.outputs in
  let nin = Array.length in_ports and nout = Array.length out_ports in
  Array.iter
    (fun v ->
      if Array.length v <> nin then
        invalid_arg "Slab.run_vectors: vector arity mismatch")
    vectors;
  let per_pass = lanes t in
  let results = Array.make nvec [||] in
  let npasses = (nvec + per_pass - 1) / per_pass in
  for p = 0 to npasses - 1 do
    let base = p * per_pass in
    let count = min per_pass (nvec - base) in
    reset t;
    for j = 0 to nin - 1 do
      let comp = snd in_ports.(j) in
      for w = 0 to t.k - 1 do
        let word = ref 0 in
        let lo = w * lanes_per_word in
        let hi = min (lo + lanes_per_word) count in
        for l = lo to hi - 1 do
          if vectors.(base + l).(j) then word := !word lor (1 lsl (l - lo))
        done;
        write_word t comp w !word
      done
    done;
    settle t;
    let out_words =
      Array.map
        (fun (_, i) -> Array.init t.k (fun w -> t.values.((i * t.k) + w)))
        out_ports
    in
    for l = 0 to count - 1 do
      let w = l / lanes_per_word and bit = l mod lanes_per_word in
      results.(base + l) <-
        Array.init nout (fun j -> Packed.lane out_words.(j).(w) bit)
    done
  done;
  results

let engine ?(gating = false) ?(simd = false) ?tuning kk : (module Engine_intf.S)
    =
  if kk < 1 then invalid_arg "Slab.engine: k must be >= 1";
  (module struct
    type nonrec t = t

    let name =
      Printf.sprintf "slab(k=%d%s%s%s)" kk
        (if gating then ",gated" else "")
        (if simd then ",simd" else "")
        (match tuning with
        | Some tu when tu <> Kernel.default_tuning ->
          "," ^ Kernel.tuning_to_spec tu
        | _ -> "")

    let create ?optimize ?relayout ?fuse ?certify nl =
      create ~k:kk ~gating ~simd ?tuning ?optimize ?relayout ?fuse ?certify nl

    let words = words
    let replicate = replicate
    let reset = reset
    let set_input_word = set_input_word
    let set_input_lane = set_input_lane
    let settle = settle
    let tick = tick
    let step = step
    let output_word = output_word
    let output_lane = output_lane
    let peek_word = peek_word
    let poke_word = poke_word
    let cycle = cycle
    let netlist = netlist
  end)
