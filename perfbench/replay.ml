(* Traced re-drives of the library entry points that hide a layer
   boundary.  [Campaign.run] hides its chunk bodies and [Driver.run_many]
   hides its cycle loop, so the traced run replays the same chunks
   through the layers' public functions — [Scheduler.submit]/[run] with
   bodies calling [Slab.set_forces]/[settle]/[tick]/[peek_word], and
   [Sharded.run_tasks] with [Compiled_wide] calls — timing each call
   into its layer.  The replays are checked against the untraced
   results verdict for verdict and program for program. *)

module N = Hydra_netlist.Netlist
module C = Hydra_verify.Campaign
module Cache = Hydra_engine.Cache
module Scheduler = Hydra_engine.Scheduler
module Slab = Hydra_engine.Slab
module SSh = Hydra_engine.Sharded.Slab_sharded
module Sharded = Hydra_engine.Sharded
module W = Hydra_engine.Compiled_wide
module R = Hydra_engine.Resilience
module D = Hydra_cpu.Driver

let lanes = W.lanes

(* A verdict as one comparable int: the detection cycle, or -1 latent,
   -2 masked. *)
let code = function
  | C.Detected { cycle; _ } -> cycle
  | C.Latent -> -1
  | C.Masked -> -2

let codes (r : C.report) = Array.of_list (List.map (fun v -> code v.C.classification) r.C.verdicts)

(* Cache lookups that compile (a miss) are charged to the kernel layer,
   hits to the cache layer. *)
let cached cache f =
  if not !Trace.enabled then f ()
  else begin
    let before = (Cache.stats cache).Cache.misses in
    Trace.span "cache.fetch" f ~layer_of:(fun () ->
        if (Cache.stats cache).Cache.misses > before then Trace.Kernel_compile
        else Trace.Cache_lookup)
  end

(* ---- fault campaigns (stuck-at and SEU), on a K-word slab ---- *)

(* Counters over the measured (traced) replays. *)
type campaign_stats = { mutable jobs : int; mutable chunks : int; mutable faults : int;
                        mutable timed_out : int; mutable shed : int; mutable retries : int;
                        mutable gate_evals : float }

let cstats = { jobs = 0; chunks = 0; faults = 0; timed_out = 0; shed = 0; retries = 0;
               gate_evals = 0.0 }

let run_chunk acc sim nl ~streams ~faults ~dffs ~cycles lo hi =
  let time l f = Trace.time acc l f in
  let words = Slab.k sim in
  let count = hi - lo in
  let word_of i = (i + 1) / lanes and bit_of i = 1 lsl ((i + 1) mod lanes) in
  let live = Array.make words 0 in
  for i = 0 to count - 1 do
    live.(word_of i) <- live.(word_of i) lor bit_of i
  done;
  let seus = ref [] in
  time Trace.Engine_setup (fun () ->
        Slab.clear_forces sim;
        Slab.reset sim;
        let fs = ref [] in
        for i = count - 1 downto 0 do
          match faults.(lo + i) with
          | C.Stuck_at { site; value } ->
            let z () = Array.make words 0 in
            let f = { Slab.f_site = site; force0 = z (); force1 = z (); flip = z () } in
            (if value then f.Slab.force1 else f.Slab.force0).(word_of i) <- bit_of i;
            fs := f :: !fs
          | C.Seu { site; at_cycle } -> seus := (at_cycle, site, word_of i, bit_of i) :: !seus
          | C.Intermittent _ -> invalid_arg "Replay: intermittent faults are not replayed"
        done;
        Slab.set_forces sim (Array.of_list !fs));
  let outs = Array.of_list nl.N.outputs in
  let det = Array.make (max count 1) (-1) in
  let det_out = Array.make (max count 1) "" in
  let undet = Array.copy live in
  for cycle = 0 to cycles - 1 do
    time Trace.Engine_io (fun () ->
        Array.iter
          (fun (site, vs) ->
            let v = vs.(cycle) in
            for w = 0 to words - 1 do
              Slab.poke_word sim site w v
            done)
          streams;
        List.iter
          (fun (c, site, w, bit) ->
            if c = cycle then Slab.poke_word sim site w (Slab.peek_word sim site w lxor bit))
          !seus);
    time Trace.Engine_settle (fun () -> Slab.settle sim);
    time Trace.Verdict (fun () ->
        if Array.exists (fun m -> m <> 0) undet then
          Array.iter
            (fun (oname, osite) ->
              let gext = -(Slab.peek_word sim osite 0 land 1) in
              for w = 0 to words - 1 do
                let diff = (Slab.peek_word sim osite w lxor gext) land undet.(w) in
                if diff <> 0 then begin
                  for i = 0 to count - 1 do
                    if word_of i = w && diff land bit_of i <> 0 then begin
                      det.(i) <- cycle;
                      det_out.(i) <- oname
                    end
                  done;
                  undet.(w) <- undet.(w) land lnot diff
                end
              done)
            outs);
    time Trace.Engine_tick (fun () -> Slab.tick sim)
  done;
  let result =
    time Trace.Verdict (fun () ->
        let state_diff = Array.make words 0 in
        Array.iter
          (fun site ->
            let gext = -(Slab.peek_word sim site 0 land 1) in
            for w = 0 to words - 1 do
              state_diff.(w) <-
                state_diff.(w) lor ((Slab.peek_word sim site w lxor gext) land live.(w))
            done)
          dffs;
        (* one verdict record per fault, named, as the library builds them *)
        Array.init count (fun i ->
            let fault = faults.(lo + i) in
            let classification =
              if det.(i) >= 0 then
                let injection = match fault with C.Seu { at_cycle; _ } -> at_cycle | _ -> 0 in
                C.Detected { latency = det.(i) - injection; cycle = det.(i); output = det_out.(i) }
              else if state_diff.(word_of i) land bit_of i <> 0 then C.Latent
              else C.Masked
            in
            { C.fault; name = C.fault_name nl fault; classification; status = [] }))
  in
  time Trace.Engine_setup (fun () -> Slab.clear_forces sim);
  result

let is_retry entry =
  let pat = "; retry in " in
  let n = String.length entry and m = String.length pat in
  let rec at i = i + m <= n && (String.sub entry i m = pat || at (i + 1)) in
  at 0

(* [Campaign.run ~scheduler ~cache ~engine:(`Slab k)] for stuck-at and
   SEU faults, re-driven through the scheduler with traced chunk bodies.
   Returns the report's verdict counts and codes in fault order. *)
let campaign ~sch ~cache ?deadline ?retry ~k nl ~faults ~stimulus ~cycles =
  (* the library's up-front input validation *)
  Trace.span ~layer:Trace.Validate "campaign.validate" (fun () ->
      (match N.validate nl with Ok () -> () | Error e -> invalid_arg e);
      let n = N.size nl in
      List.iter
        (fun f ->
          let site = C.site_of f in
          if site < 0 || site >= n then invalid_arg "fault site out of range";
          match (f, nl.N.components.(site)) with
          | _, N.Outport _ -> invalid_arg "outport fault"
          | C.Seu _, N.Dffc _ -> ()
          | C.Seu _, _ -> invalid_arg "SEU site is not a dff"
          | _ -> ())
        faults;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name nl.N.inputs) then invalid_arg ("unknown input " ^ name))
        stimulus);
  let faults = Array.of_list faults in
  let nfaults = Array.length faults in
  let streams =
    Trace.span ~layer:Trace.Stimulus "campaign.stimulus" (fun () ->
        Array.of_list
          (List.map
             (fun (name, site) ->
               let words = Array.make (max cycles 1) 0 in
               (match List.assoc_opt name stimulus with
               | Some bits ->
                 List.iteri (fun c b -> if c < cycles && b then words.(c) <- W.lane_mask) bits
               | None -> ());
               (site, words))
             nl.N.inputs))
  in
  let dffs = Array.of_list (C.dff_sites nl) in
  let base =
    cached cache (fun () ->
        Cache.slab cache ~k ~gating:false ~optimize:false ~relayout:false ~fuse:false nl)
  in
  let ssh =
    Trace.span ~layer:Trace.Engine_setup "engine.replicas" (fun () ->
        SSh.of_base ~pool:(Scheduler.pool sch) base)
  in
  let ch = Scheduler.chunking ~reserved:1 ~lanes:(lanes * k) nfaults in
  let results = Array.make nfaults None in
  let members = Scheduler.domains sch in
  let job =
    Trace.region "campaign" ~members (fun reg ->
        let job =
          Scheduler.submit sch ~name:"campaign" ?deadline ?retry ~tasks:ch.Scheduler.count
            (fun ~member c ->
              Trace.body reg ~member ~task:c (fun acc ->
                  let lo, hi = ch.Scheduler.bounds c in
                  let r =
                    run_chunk acc (SSh.replica ssh member) nl ~streams ~faults ~dffs ~cycles lo
                      hi
                  in
                  Array.iteri (fun i v -> results.(lo + i) <- Some v) r))
        in
        Scheduler.run sch;
        job)
  in
  if !Trace.enabled then begin
    cstats.jobs <- cstats.jobs + 1;
    cstats.faults <- cstats.faults + nfaults;
    cstats.chunks <- cstats.chunks + ch.Scheduler.count;
    (* every retried attempt is journaled as "... failed (...); retry in ..." *)
    cstats.retries <- cstats.retries + List.length (List.filter is_retry (Scheduler.trail sch job));
    cstats.gate_evals <-
      cstats.gate_evals
      +. float_of_int ch.Scheduler.count *. float_of_int cycles
         *. float_of_int (N.stats nl).N.gates
  end;
  (match Scheduler.status sch job with
  | Scheduler.Done -> ()
  | Scheduler.Failed e -> raise e
  | Scheduler.Timed_out ->
    if !Trace.enabled then cstats.timed_out <- cstats.timed_out + 1;
    raise (R.Deadline_exceeded { job = "campaign"; elapsed = 0.0 })
  | Scheduler.Cancelled ->
    if !Trace.enabled then cstats.shed <- cstats.shed + 1;
    raise (R.Shed { job = "campaign"; priority = 0 })
  | Scheduler.Pending | Scheduler.Running -> assert false);
  Trace.span ~layer:Trace.Verdict "campaign.report" (fun () ->
      let verdicts = List.init nfaults (fun i -> Option.get results.(i)) in
      let count p = List.length (List.filter (fun v -> p v.C.classification) verdicts) in
      ( ( count (function C.Detected _ -> true | _ -> false),
          count (function C.Latent -> true | _ -> false),
          count (function C.Masked -> true | _ -> false) ),
        Array.of_list (List.map (fun v -> code v.C.classification) verdicts) ))

(* ---- the CPU multi-program loop ---- *)

type wide_stats = { mutable useful : float; mutable simulated : float;
                    mutable w_gate_evals : float; mutable passes : int; mutable passes_jobs : int }

let wstats = { useful = 0.0; simulated = 0.0; w_gate_evals = 0.0; passes = 0; passes_jobs = 0 }
let wstats_lock = Mutex.create ()

(* [Driver.run_many ~sharded] re-driven through [Sharded.dispatch]: one
   traced body per 62-lane pass, the same input schedule per lane. *)
let run_many sh ~max_cycles programs =
  let progs = Array.map Array.of_list programs in
  let nprog = Array.length progs in
  let results = Array.make nprog { D.halted = false; cycles = 0; pc = 0 } in
  let npasses = (nprog + lanes - 1) / lanes in
  let gates = float_of_int (N.stats (Sharded.netlist sh)).N.gates in
  let bits w = Hydra_core.Bitvec.of_int ~width:Hydra_cpu.Isa.word_size w in
  if !Trace.enabled then begin
    wstats.passes_jobs <- wstats.passes_jobs + 1;
    wstats.passes <- wstats.passes + npasses
  end;
  Trace.region "run_many" ~members:(Sharded.domains sh) (fun reg ->
      Sharded.run_tasks sh npasses (fun ~member p ->
          let sim = Sharded.replica sh member in
          Trace.body reg ~member ~task:p (fun acc ->
              let time l f = Trace.time acc l f in
              let base = p * lanes in
              let count = min lanes (nprog - base) in
              let lens = Array.init count (fun l -> Array.length progs.(base + l)) in
              let limit = Array.fold_left max 0 lens + max_cycles in
              time Trace.Engine_setup (fun () -> W.reset sim);
              let halted_mask = ref 0 and all = (1 lsl count) - 1 and t = ref 0 in
              while !halted_mask <> all && !t < limit do
                let t0 = !t in
                (* the stimulus and halt bookkeeping mirror [Driver.run_many]
                   call for call (port names formatted per cycle included),
                   so the replay costs what the library does *)
                time Trace.Engine_io (fun () ->
                    let start_w = ref 0 and dma_w = ref 0 in
                    for l = 0 to count - 1 do
                      if t0 = lens.(l) then start_w := !start_w lor (1 lsl l);
                      if t0 < lens.(l) then dma_w := !dma_w lor (1 lsl l)
                    done;
                    W.set_input sim "start" !start_w;
                    W.set_input sim "dma" !dma_w;
                    List.iteri
                      (fun i b ->
                        W.set_input sim (Printf.sprintf "da%d" i) (if b then !dma_w else 0))
                      (bits t0);
                    let dd_words = Array.make Hydra_cpu.Isa.word_size 0 in
                    for l = 0 to count - 1 do
                      if t0 < lens.(l) then
                        List.iteri
                          (fun i b -> if b then dd_words.(i) <- dd_words.(i) lor (1 lsl l))
                          (bits progs.(base + l).(t0))
                    done;
                    Array.iteri
                      (fun i w -> W.set_input sim (Printf.sprintf "dd%d" i) w)
                      dd_words);
                time Trace.Engine_settle (fun () -> W.settle sim);
                time Trace.Verdict (fun () ->
                    let newly = W.output sim "halted" land lnot !halted_mask land all in
                    if newly <> 0 then begin
                      let pc_bits =
                        List.init Hydra_cpu.Isa.word_size (fun i ->
                            W.output sim (Printf.sprintf "pc%d" i))
                      in
                      for l = 0 to count - 1 do
                        if newly land (1 lsl l) <> 0 then
                          results.(base + l) <-
                            { D.halted = true; cycles = t0 - lens.(l);
                              pc =
                                Hydra_core.Bitvec.to_int
                                  (List.map (fun w -> Hydra_core.Packed.lane w l) pc_bits) }
                      done;
                      halted_mask := !halted_mask lor newly
                    end);
                time Trace.Engine_tick (fun () -> W.tick sim);
                incr t
              done;
              for l = 0 to count - 1 do
                if !halted_mask land (1 lsl l) = 0 then
                  results.(base + l) <-
                    { D.halted = false; cycles = max 0 (!t - 1 - lens.(l)); pc = 0 }
              done;
              if !Trace.enabled then begin
                let useful = ref 0 in
                for l = 0 to count - 1 do
                  let r = results.(base + l) in
                  useful := !useful + lens.(l) + (if r.D.halted then r.D.cycles + 1 else 0)
                done;
                Trace.time acc Trace.Verdict (fun () ->
                    Mutex.protect wstats_lock (fun () ->
                        wstats.useful <- wstats.useful +. float_of_int !useful;
                        wstats.simulated <- wstats.simulated +. float_of_int (lanes * !t);
                        wstats.w_gate_evals <- wstats.w_gate_evals +. (gates *. float_of_int !t)))
              end)));
  results
