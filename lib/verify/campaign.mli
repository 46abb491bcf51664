(** Lane-parallel fault-injection campaigns: every lane of a
    {!Hydra_engine.Compiled_wide} or {!Hydra_engine.Slab} engine runs a
    distinct fault injected at runtime through per-lane force masks — no
    per-fault netlist rewriting or recompilation.  A lane retires its
    fault when it is detected and takes the next one; fault lists chunk
    over {!Hydra_engine.Sharded.run_tasks} or a scheduler job. *)

type fault =
  | Stuck_at of { site : int; value : bool }
      (** the component's output is forced to [value] on every cycle *)
  | Seu of { site : int; at_cycle : int }
      (** single-event upset: the dff's state bit is flipped just before
          the settle of [at_cycle] (scheduled past the run window, it
          never fires and classifies masked) *)
  | Intermittent of { site : int; rate : float; seed : int }
      (** each cycle, with probability [rate], the output is inverted
          for that whole cycle; the coin stream is seeded per fault so
          results are independent of chunk/domain assignment *)

type classification =
  | Detected of { latency : int; cycle : int; output : string }
      (** first observable output divergence from the golden lane:
          which output, at which cycle, and [cycle - injection_cycle] *)
  | Latent
      (** outputs never diverged within the window but some dff's
          {e final} state did — a healed upset (e.g. an ECC reload)
          counts as masked, not latent *)
  | Masked  (** no divergence at all *)

type verdict = {
  fault : fault;
  name : string;  (** {!fault_name} *)
  classification : classification;
  status : (string * bool) list;
      (** per [status_outputs] flag: ever asserted on this fault's lane *)
}

type report = {
  netlist : Hydra_netlist.Netlist.t;
  stimulus : (string * bool list) list;
      (** kept verbatim so any verdict can be {!replay}ed *)
  cycles : int;
  total : int;
  detected : int;
  latent : int;
  masked : int;
  verdicts : verdict list;  (** in the caller's fault order *)
}

val site_of : fault -> int
val fault_name : Hydra_netlist.Netlist.t -> fault -> string

val all_stuck_at : Hydra_netlist.Netlist.t -> fault list
(** Both stuck-at values on every gate and flip-flop output, in the
    historic {!Fault.all_faults} order (site ascending, stuck-at-0
    first). *)

val dff_sites : Hydra_netlist.Netlist.t -> int list

val all_seu : ?at_cycle:int -> Hydra_netlist.Netlist.t -> fault list
(** One SEU per dff at [at_cycle] (default 0). *)

val seu_sweep : Hydra_netlist.Netlist.t -> cycles:int -> fault list
(** One SEU per dff per injection cycle in [0, cycles): the exhaustive
    single-upset space of a run window. *)

val stimulus_of_vectors :
  ?cycles_per_vector:int ->
  Hydra_netlist.Netlist.t ->
  bool list list ->
  (string * bool list) list * int
(** Expand test vectors (rows in input-port order, each held
    [cycles_per_vector] cycles, default 1) into per-port stimulus
    streams; also returns the total cycle count. *)

val random_stimulus :
  seed:int -> cycles:int -> Hydra_netlist.Netlist.t -> (string * bool list) list
(** [cycles] seeded random bits per input port.  Raises
    [Invalid_argument] on negative [cycles]. *)

val run :
  ?scheduler:Hydra_engine.Scheduler.t ->
  ?cache:Hydra_engine.Cache.t ->
  ?sharded:Hydra_engine.Sharded.t ->
  ?domains:int ->
  ?engine:[ `Wide | `Slab of int ] ->
  ?gating:bool ->
  ?status_outputs:string list ->
  ?deadline:float ->
  ?retry:Hydra_engine.Resilience.retry ->
  ?admission:Hydra_engine.Resilience.admission ->
  ?chaos:Chaos.plan ->
  Hydra_netlist.Netlist.t ->
  faults:fault list ->
  stimulus:(string * bool list) list ->
  cycles:int ->
  report
(** Simulate every fault against the golden lane under [stimulus]
    (per-port bool streams; missing ports idle at false, short streams
    pad with false) for [cycles] cycles from power-up, and classify.

    Outputs named in [status_outputs] (e.g. an ECC [single]-error flag)
    are excluded from the divergence comparison and instead sampled as
    ever-asserted per lane into {!verdict.status}.

    Each chunk of faults runs as one lane-refill loop on one engine.
    Lane 0 runs the golden circuit for the chunk's first window only,
    recording the golden outputs per cycle and the final golden dff
    state, then takes a fault.  Every lane runs its fault on its own
    clock from power-up and retires it when an output diverges (with
    [status_outputs], only at the end of its window, since flags are
    sampled over the whole window) or when its window ends; the lane
    is then reset to power-up (dffs and constants, in that lane only)
    and takes the next fault of the chunk.  The faults are split evenly
    over the team members, every chunk holding between one full pass
    (lanes - 1 faults) and lanes x [cycles] faults; each chunk
    recomputes from reset.

    With the default [~engine:`Wide] the engine has 62 lanes; lists
    longer than one chunk run over a sharded engine — [?sharded] reuses
    one (it must be compiled from exactly this netlist with
    [~optimize:false ~relayout:false ~fuse:false]; registered forces are
    cleared), otherwise one is created with [?domains] and shut down
    afterwards.  A single-chunk run without [?sharded]/[?domains] stays
    inline on one wide engine.

    With [~engine:(`Slab k)] the campaign runs on a K-word
    {!Hydra_engine.Slab} of [62*k] lanes, chunked over a slab-sharded
    driver built with [?domains].

    With [?scheduler] (mutually exclusive with [?domains]) the chunks
    run as tasks of one job on the scheduler's shared team instead of a
    private pool; combined with [?sharded] the two must share one pool
    ([Sharded.of_base ~pool:(Scheduler.pool sch)]) so member indices
    line up.  With [?cache] the campaign engines come from the
    compiled-circuit cache (identity-pass flavors), so repeated
    campaigns on the same netlist skip recompilation.  Verdicts are
    bit-identical in every mode.  [?sharded] is wide-only and rejected
    in combination with [`Slab].  [~gating:true] (slab-only; rejected
    with [`Wide]) runs the campaign engines with cluster-granular
    activity gating — force installs mark the affected blocks, so
    verdicts stay bit-identical while a mostly-quiescent circuit under
    a local fault simulates much faster.  Verdicts are identical to the
    wide engine's — only the packing changes.

    Resilience knobs: [?deadline] bounds the whole campaign in
    wall-clock seconds, enforced at chunk boundaries
    ({!Hydra_engine.Resilience.Deadline_exceeded} past it — with
    [?scheduler] the job itself carries the remaining budget and times
    out identically).  [?retry] re-runs chunks whose body raised a
    transient exception after a deterministic backoff (chunks recompute
    their verdict slice from reset, so retried runs stay bit-identical);
    with [?scheduler] the policy rides on the job and attempts are
    journaled in its trail.  [?admission] reserves the engine's lane
    demand against a shared budget: an over-budget [`Slab k] request is
    {e degraded} to fewer slab words (same verdicts, fewer lanes)
    rather than rejected, and only a budget with less than one word
    free sheds the campaign ({!Hydra_engine.Resilience.Shed}).
    [?chaos] dresses every chunk with a seeded {!Chaos} injection point
    — the soak-test harness.

    Raises [Invalid_argument] on negative [cycles], an invalid netlist,
    an out-of-range or outport fault site, an SEU site that is not a dff, an intermittent
    rate outside [0,1], or stimulus/status names not matching the
    netlist's ports. *)

val chunking :
  lanes:int -> members:int -> cycles:int -> int -> Hydra_engine.Scheduler.chunks
(** [chunking ~lanes ~members ~cycles nfaults]: how {!run} splits
    [nfaults] faults on an engine of [lanes] lanes driven by a team of
    [members] — evenly over the members, every chunk holding between
    [lanes - 1] and [lanes * cycles] faults. *)

val replay : report -> fault -> verdict
(** Re-run one fault alone against the report's recorded stimulus and
    window — the reproduction path for a detected verdict. *)

val coverage_ratio : report -> float
(** Detected fraction (1.0 of an empty campaign); latent faults count
    as undetected. *)

val mean_latency : report -> float option
(** Mean detection latency over detected verdicts; [None] if none. *)

val class_string : classification -> string
val verdict_to_string : verdict -> string
val summary_string : report -> string

val to_string : report -> string
(** Summary line plus one line per verdict. *)

val verdict_to_json : verdict -> string

val to_json : report -> string
(** Pinned schema (the [hydra faults --json] contract):
    [{"version":1,"total":…,"detected":…,"latent":…,"masked":…,
    "cycles":…,"verdicts":[{"name":…,"model":…,"site":…,…,
    "class":…,…},…]}]. *)
