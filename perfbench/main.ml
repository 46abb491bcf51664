(* The benchmark program: one workload, one seed, a closed loop of ops.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--delay F]

   Untraced runs (--trace 0) set up [setup_repeats] times (median =
   setup_s), discard [warmup] ops, then time ops back to back for S
   seconds, and at least [min_ops] of them so that ten samples lie
   beyond p90 (for at most twice S).  Every op's outputs are
   checked against an independent reference (outside the timed
   region).  Traced runs (--trace 1)
   alternate each untraced op with a traced replay of it and report the
   per-layer breakdown.  --delay F sleeps F times each op's duration
   inside the timed region: the injected regression of the
   sensitivity self-check.  The last line of stdout is the result
   object.  Traced runs also write their spans to
   perfbench/out/trace-<workload>-<seed>.json. *)

let setup_repeats = 9
let warmup = 3
let min_ops = 100

let now = Trace.now

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Peak resident memory of the timed calls alone: the high-water mark is
   reset before each op ([clear_refs] 5, Linux) and read after it, so
   set-ups and reference checks stay out of it.  Where the mark cannot be
   reset, it is the whole process's peak; the stamp says which. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5"; flush oc);
    true
  with Sys_error _ -> false

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit_) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (if Float.is_finite value then value else 0.0)
           unit_)
       metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let delay = ref 0.0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--delay", Arg.Set_float delay, "F inject a sleep of F x each op's duration") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let traced = !trace = 1 in
  let seed = !seed in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  (* ---- setup ---- *)
  let setup_times = ref [] and setup_totals = ref [||] in
  let inst =
    if traced then begin
      Trace.enabled := true;
      let i = Trace.span "setup" (fun () -> w.Workloads.setup ~domains ~seed ~traced) in
      Trace.enabled := false;
      setup_totals := Array.copy Trace.totals;
      i
    end
    else begin
      let last = ref None in
      for _ = 1 to setup_repeats do
        Option.iter (fun i -> i.Workloads.teardown ()) !last;
        Gc.full_major ();
        let t0 = now () in
        let i = w.Workloads.setup ~domains ~seed ~traced in
        setup_times := (now () -. t0) :: !setup_times;
        last := Some i
      done;
      Option.get !last
    end
  in
  (* ---- ops ---- *)
  let attempted = ref 0 and failed = ref 0 and messages = ref [] in
  let fail msgs =
    incr failed;
    if List.length !messages < 10 then messages := !messages @ msgs
  in
  let op_times = ref [] and op_items = ref [] and replay_times = ref [] in
  let gc_minor = ref 0 and gc_major = ref 0 and gc_promoted = ref 0.0 in
  let facts = ref [] in
  let peak_kb = ref 0 and peak_scope = ref "ops" in
  let one i ~measured =
    incr attempted;
    Trace.current_op := i;
    Trace.enabled := traced && measured;
    match
      let op = Trace.span "inputs" (fun () -> inst.Workloads.prepare i) in
      Trace.enabled := false;
      let sample_peak = measured && not traced in
      if sample_peak && not (reset_peak_rss ()) then peak_scope := "process";
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      op.Workloads.run ();
      let t1 = now () in
      if !delay > 0.0 then Unix.sleepf (!delay *. (t1 -. t0));
      let dt = now () -. t0 in
      let g1 = Gc.quick_stat () in
      if sample_peak then peak_kb := max !peak_kb (peak_rss_kb ());
      let replay_fails =
        if traced then begin
          Trace.enabled := measured;
          let r0 = now () in
          let r = Trace.span "op" op.Workloads.replay in
          Trace.enabled := false;
          if measured then replay_times := (now () -. r0) :: !replay_times;
          r
        end
        else []
      in
      let check_fails = op.Workloads.check () in
      if measured then begin
        op_times := dt :: !op_times;
        op_items := op.Workloads.items () :: !op_items;
        gc_minor := !gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
        gc_major := !gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
        gc_promoted := !gc_promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        facts := inst.Workloads.facts i :: !facts
      end;
      replay_fails @ check_fails
    with
    | [] -> ()
    | msgs -> fail msgs
    | exception e ->
      Trace.enabled := false;
      fail [ Printf.sprintf "op %d raised %s" i (Printexc.to_string e) ]
  in
  (* whole rounds only: warm up for at least one, measure a multiple *)
  let round = inst.Workloads.round in
  let warmup = round * ((warmup + round - 1) / round) in
  for i = 0 to warmup - 1 do
    one i ~measured:false
  done;
  let cache_before = List.map Hydra_engine.Cache.stats inst.Workloads.caches in
  let t_start = now () in
  let i = ref warmup in
  while
    let el = now () -. t_start in
    let n = List.length !op_times in
    el < 2.0 *. !seconds
    && (el < !seconds || n mod round <> 0 || ((not traced) && n < min_ops))
  do
    one !i ~measured:true;
    incr i
  done;
  let measured = List.length !op_times in
  let cache_after = List.map Hydra_engine.Cache.stats inst.Workloads.caches in
  inst.Workloads.teardown ();
  (* ---- metrics ---- *)
  let nf = float_of_int measured in
  let sum = List.fold_left ( +. ) 0.0 in
  let metrics, samples =
    if not traced then
      ( [ ("setup_s", median !setup_times, "s");
          ("op_s.p50", median !op_times, "s");
          ("op_s.p90", quantile 0.9 !op_times, "s");
          ("work_per_s", sum !op_items /. sum !op_times, "1/s");
          ("peak_rss_mb", float_of_int !peak_kb /. 1024.0, "MB") ],
        [ ("setup_s", setup_repeats); ("op_s", measured); ("work_per_s", measured);
          ("peak_rss_mb", measured) ] )
    else begin
      let wall = !Trace.wall in
      let pct l = 100.0 *. Trace.totals.(Trace.index l) /. wall in
      let abs l = Trace.totals.(Trace.index l) in
      let traced_ops = List.length !replay_times in
      (* op-phase self seconds per traced op *)
      let per_op l =
        (abs l -. !setup_totals.(Trace.index l)) /. float_of_int (max 1 traced_ops)
      in
      let compiles = Trace.counts.(Trace.index Trace.Kernel_compile) in
      let sum_pct = Array.fold_left (fun a l -> a +. pct l) 0.0 Trace.layers in
      if Float.abs (sum_pct -. 100.0) > 1e-6 then
        fail [ Printf.sprintf "layer self times sum to %.9f%% of the traced wall" sum_pct ];
      if pct Trace.Unattributed > 5.0 then
        fail [ Printf.sprintf "unattributed time is %.2f%% of the traced wall (at most 5%%)"
                 (pct Trace.Unattributed) ];
      let shares =
        List.map
          (fun l ->
            let n = match l with Trace.Unattributed -> "trace.unattributed" | l -> Trace.name l in
            (n ^ "_pct", pct l, "%"))
          (Array.to_list Trace.layers)
      in
      let mean f = List.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 !facts /. nf in
      let cache_delta f =
        match (cache_before, cache_after) with
        | [ _; b ], [ _; a ] -> float_of_int (f a - f b)
        | _ -> 0.0
      in
      let hits = cache_delta (fun s -> s.Hydra_engine.Cache.hits) in
      let misses = cache_delta (fun s -> s.Hydra_engine.Cache.misses) in
      let cs = Replay.cstats and ws = Replay.wstats in
      let lanes = float_of_int (Hydra_engine.Slab.lanes_per_word * Workloads.k) in
      let settle_member_s = abs Trace.Engine_settle *. float_of_int domains in
      let gate_evals, lane_util =
        if cs.Replay.chunks > 0 then
          ( cs.Replay.gate_evals *. float_of_int Workloads.k,
            float_of_int cs.Replay.faults /. (float_of_int cs.Replay.chunks *. (lanes -. 1.0)) )
        else (ws.Replay.w_gate_evals, ws.Replay.useful /. Float.max 1.0 ws.Replay.simulated)
      in
      let adm = Option.map Hydra_engine.Resilience.admission_stats inst.Workloads.admission in
      let traced_op = median !replay_times and untraced_op = median !op_times in
      ( shares
        @ List.map
            (fun l -> (Trace.name l ^ "_s", per_op l, "s"))
            Trace.[ Engine_setup; Engine_settle; Engine_tick; Engine_io; Verdict;
                    Sched_queue_wait; Sched_claim_gap; Sched_idle ]
        @ [ ("trace.wall_s", wall, "s");
            ("trace.op_s", traced_op, "s");
            ("trace.overhead_pct", 100.0 *. ((traced_op /. untraced_op) -. 1.0), "%");
            ("trace.spans", float_of_int (Trace.spans ()), "count");
            ("netlist.build_s", !setup_totals.(Trace.index Trace.Netlist_build), "s");
            ("netlist.digest_s", !setup_totals.(Trace.index Trace.Netlist_digest), "s");
            ("kernel.compile_s", abs Trace.Kernel_compile /. float_of_int (max 1 compiles), "s");
            ("netlist.components", mean (fun f -> f.Workloads.components), "count");
            ("kernel.compiles", float_of_int compiles, "count");
            ("kernel.ranks", mean (fun f -> f.Workloads.ranks), "count");
            ("kernel.blocks", mean (fun f -> f.Workloads.blocks), "count");
            ("kernel.fused", mean (fun f -> f.Workloads.fused), "count");
            ("cache.hits", hits, "count");
            ("cache.misses", misses, "count");
            ("cache.evictions", cache_delta (fun s -> s.Hydra_engine.Cache.evictions), "count");
            ("cache.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
            ("scheduler.jobs", float_of_int (cs.Replay.jobs + ws.Replay.passes_jobs), "count");
            ("scheduler.tasks", float_of_int (cs.Replay.chunks + ws.Replay.passes), "count");
            ("scheduler.busy_ratio", !Trace.busy /. !Trace.member_seconds, "ratio");
            ("scheduler.timed_out", float_of_int cs.Replay.timed_out, "count");
            ("scheduler.shed", float_of_int cs.Replay.shed, "count");
            ("resilience.retries", float_of_int cs.Replay.retries, "count");
            ("resilience.degraded",
             (match adm with Some s -> float_of_int s.Hydra_engine.Resilience.degraded | None -> 0.0),
             "count");
            ("engine.gate_evals", gate_evals, "count");
            ("engine.gate_evals_per_s", gate_evals /. settle_member_s, "1/s");
            ("engine.lane_util", lane_util, "ratio");
            ("campaign.chunks", float_of_int cs.Replay.chunks, "count");
            ("analyze.dataflow_visits", mean (fun f -> f.Workloads.visits), "count");
            ("gc.minor_collections", float_of_int !gc_minor /. nf, "count");
            ("gc.major_collections", float_of_int !gc_major /. nf, "count");
            ("gc.promoted_words", !gc_promoted /. nf, "count");
            ("gc.heap_peak_words", float_of_int (Gc.quick_stat ()).Gc.top_heap_words, "count") ],
        [ ("breakdown_ops", traced_ops); ("op_s", measured) ] )
    end
  in
  if traced then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    Trace.write (Printf.sprintf "perfbench/out/trace-%s-%d.json" w.Workloads.name seed)
  end;
  List.iter (fun m -> Printf.printf "failure: %s\n" m) !messages;
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"ocaml\": %S, \"nproc\": %d, \
     \"domains\": %d, \"warmup_ops_discarded\": %d, \"measured_ops\": %d, \"items\": %S, \
     \"delay\": %g, \"peak_rss_scope\": %S, \"samples\": {%s}}}\n"
    w.Workloads.name seed !trace Sys.ocaml_version (Domain.recommended_domain_count ()) domains
    warmup measured w.Workloads.items_unit !delay !peak_scope
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) samples));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (json_metrics metrics)
