(* The three workloads.  Each [setup] builds one instance — netlist,
   digest, first (cold) compile and the domain team — and [prepare]
   generates op [i]'s inputs from the seed.  An op is one closed-loop
   call into the library ([run], the only timed part), an independent
   reference check of its outputs ([check]) and, in traced runs, a
   traced re-drive of the same call ([replay]) that must reproduce the
   untraced results exactly.  [check] and [replay] return failure
   messages. *)

module N = Hydra_netlist.Netlist
module C = Hydra_verify.Campaign
module Fault = Hydra_verify.Fault
module Equiv = Hydra_verify.Equiv
module Lint = Hydra_analyze.Lint
module Dataflow = Hydra_analyze.Dataflow
module Optimize = Hydra_netlist.Optimize
module Kernel = Hydra_engine.Kernel
module Cache = Hydra_engine.Cache
module Scheduler = Hydra_engine.Scheduler
module Slab = Hydra_engine.Slab
module Sharded = Hydra_engine.Sharded
module Compiled = Hydra_engine.Compiled
module R = Hydra_engine.Resilience
module D = Hydra_cpu.Driver
module Golden = Hydra_cpu.Golden

type op = {
  run : unit -> unit;
  items : unit -> float;  (* work done by [run]: faults graded or CPU cycles *)
  check : unit -> string list;
  replay : unit -> string list;
}

type facts = {
  components : int;
  ranks : int;
  blocks : int;
  fused : int;
  visits : int;  (* dataflow worklist visits of the op's circuit *)
}

type instance = {
  prepare : int -> op;
  round : int;  (* ops per round: runs measure whole rounds *)
  facts : int -> facts;  (* static facts about op [i]'s circuit *)
  caches : Cache.t list;  (* untraced, replay *)
  admission : R.admission option;
  teardown : unit -> unit;
}

type t = {
  name : string;
  items_unit : string;
  setup : domains:int -> seed:int -> traced:bool -> instance;
}

let span = Trace.span
let k = 4

(* A per-op random state, independent of how many ops ran before. *)
let rng seed i salt = Random.State.make [| 0x9e3779b9; seed; i; salt |]

let program_facts ?(visits = 0) (p : Kernel.program) =
  { components = N.size p.Kernel.netlist; ranks = Kernel.n_ranks p;
    blocks = Array.length p.Kernel.blocks; fused = p.Kernel.fused; visits }

(* The compile flags [Campaign.run ~cache ~engine:(`Slab k)] uses: identity
   passes, so fault sites are the caller's component indices. *)
let campaign_engine cache nl =
  Cache.slab cache ~k ~gating:false ~optimize:false ~relayout:false ~fuse:false nl

(* One cache per role — untraced ops and, in traced runs, their replays —
   warmed identically, so both op streams see the same hits, misses and
   evictions. *)
let caches ?capacity ~traced () =
  List.init (if traced then 2 else 1) (fun _ -> Cache.create ?capacity ())

(* Scalar engines of the fault-free circuits, compiled once per netlist. *)
let good_engines = ref []

(* Reference re-grade of one stuck-at fault: rewrite the netlist
   ([Fault.inject]) and simulate good and faulty circuits on the scalar
   [Compiled] engine; the first differing output row must be the
   campaign's detection cycle, and no difference must mean undetected. *)
let regrade nl ~stimulus ~cycles ~site ~value ~code =
  let good_engine =
    match List.assq_opt nl !good_engines with
    | Some e -> e
    | None ->
      let e = Compiled.create nl in
      good_engines := (nl, e) :: !good_engines;
      e
  in
  let good = Compiled.run good_engine ~inputs:stimulus ~cycles in
  let bad =
    Compiled.run (Compiled.create (Fault.inject nl { Fault.site; stuck = value }))
      ~inputs:stimulus ~cycles
  in
  let rec first c = function
    | g :: gs, b :: bs -> if g <> b then c else first (c + 1) (gs, bs)
    | _ -> -1
  in
  let expect = first 0 (good, bad) in
  let got = if code >= 0 then code else -1 in
  if expect = got then []
  else
    [ Printf.sprintf "fault %s stuck-at-%b: campaign says %d, Fault.inject+Compiled says %d"
        (N.describe nl site) value got expect ]

(* A seeded stuck-at fault of the list, with its campaign verdict code. *)
let sample_stuck st codes faults =
  let stuck =
    List.filter_map
      (fun i -> match faults.(i) with C.Stuck_at { site; value } -> Some (site, value, codes.(i)) | _ -> None)
      (List.init (Array.length faults) Fun.id)
  in
  List.nth_opt stuck (Random.State.int st (max 1 (List.length stuck)))

let count_failures (r : C.report) total =
  if r.C.detected + r.C.latent + r.C.masked <> total || r.C.total <> total then
    [ Printf.sprintf "verdict counts %d+%d+%d do not add up to %d faults" r.C.detected
        r.C.latent r.C.masked total ]
  else []

(* The replay must reproduce the untraced report's counts and every
   verdict. *)
let compare_replay what (r : C.report) (counts, got) =
  let expected = Replay.codes r in
  if counts <> (r.C.detected, r.C.latent, r.C.masked) then
    [ what ^ ": replayed verdict counts differ from the untraced run" ]
  else if expected <> got then
    let diffs = ref 0 in
    Array.iteri (fun i c -> if i < Array.length got && got.(i) <> c then incr diffs) expected;
    [ Printf.sprintf "%s: replay disagrees with the untraced run on %d of %d verdicts" what
        !diffs (Array.length expected) ]
  else []

(* ---- wallace64-stuck ---- *)

let wallace_cycles = 8

let wallace64 =
  let setup ~domains ~seed ~traced =
    let nl = span ~layer:Trace.Netlist_build "netlist.build" (fun () -> Circuits.wallace 64) in
    ignore (span ~layer:Trace.Netlist_digest "netlist.digest" (fun () -> N.digest nl));
    let sch = span ~layer:Trace.Engine_setup "scheduler.create" (fun () -> Scheduler.create ~domains ()) in
    let caches = caches ~traced () in
    let base = List.map (fun c -> Replay.cached c (fun () -> campaign_engine c nl)) caches in
    let cache = List.hd caches and rcache = List.nth caches (List.length caches - 1) in
    let faults = C.all_stuck_at nl in
    let faults_arr = Array.of_list faults in
    let nfaults = List.length faults in
    let prepare i =
      let stimulus =
        span ~layer:Trace.Stimulus "campaign.random_stimulus" (fun () ->
            C.random_stimulus ~seed:(Hashtbl.hash (seed, i)) ~cycles:wallace_cycles nl)
      in
      let report = ref None in
      let get () = Option.get !report in
      {
        run =
          (fun () ->
            report :=
              Some
                (C.run ~scheduler:sch ~cache ~engine:(`Slab k) nl ~faults ~stimulus
                   ~cycles:wallace_cycles));
        items = (fun () -> float_of_int nfaults);
        check =
          (fun () ->
            let r = get () in
            count_failures r nfaults
            @
            match sample_stuck (rng seed i 1) (Replay.codes r) faults_arr with
            | Some (site, value, code) ->
              regrade nl ~stimulus ~cycles:wallace_cycles ~site ~value ~code
            | None -> [ "no stuck-at fault to re-grade" ]);
        replay =
          (fun () ->
            compare_replay "campaign" (get ())
              (Replay.campaign ~sch ~cache:rcache ~k nl ~faults ~stimulus
                 ~cycles:wallace_cycles));
      }
    in
    let facts = program_facts (Slab.program (List.hd base)) in
    { prepare; round = 1; facts = (fun _ -> facts); caches; admission = None;
      teardown = (fun () -> Scheduler.shutdown sch) }
  in
  { name = "wallace64-stuck"; items_unit = "faults"; setup }

(* ---- cpu-programs ---- *)

let mem_bits = 6
let max_cycles = 2000
let programs_per_op = 8 * Hydra_engine.Compiled_wide.lanes

let golden program =
  let g = Golden.create ~mem_words:(1 lsl mem_bits) () in
  Golden.load_program g program;
  ignore (Golden.run ~max_instructions:100_000 g);
  g

let cpu_programs =
  let setup ~domains ~seed ~traced:_ =
    let nl =
      span ~layer:Trace.Netlist_build "netlist.build" (fun () -> D.system_netlist ~mem_bits ())
    in
    ignore (span ~layer:Trace.Netlist_digest "netlist.digest" (fun () -> N.digest nl));
    let sh =
      span ~layer:Trace.Kernel_compile "sharded.create" (fun () -> Sharded.create ~domains nl)
    in
    let prepare i =
      let programs =
        span ~layer:Trace.Asm_assemble "asm.assemble" (fun () ->
            let st = rng seed i 2 in
            Array.init programs_per_op (fun _ ->
                Hydra_cpu.Asm.assemble (Circuits.program_source st)))
      in
      let results = ref [||] in
      {
        run = (fun () -> results := D.run_many ~mem_bits ~max_cycles ~sharded:sh programs);
        items =
          (fun () ->
            Array.fold_left
              (fun a r -> if r.D.halted then a +. float_of_int r.D.cycles else a)
              0.0 !results);
        check =
          (fun () ->
            let bad = ref [] in
            Array.iteri
              (fun j p ->
                let g = golden p and r = !results.(j) in
                if r.D.halted <> g.Golden.halted || r.D.pc <> g.Golden.pc
                   || r.D.cycles <> g.Golden.cycles
                then
                  bad :=
                    Printf.sprintf
                      "program %d: circuit halted=%b pc=%d cycles=%d, golden halted=%b pc=%d \
                       cycles=%d"
                      j r.D.halted r.D.pc r.D.cycles g.Golden.halted g.Golden.pc g.Golden.cycles
                    :: !bad)
              programs;
            List.rev !bad);
        replay =
          (fun () ->
            let again = Replay.run_many sh ~max_cycles programs in
            if again = !results then []
            else [ "run_many: replay disagrees with the untraced results" ]);
      }
    in
    let facts = program_facts (Hydra_engine.Compiled_wide.program (Sharded.base sh)) in
    { prepare; round = 1; facts = (fun _ -> facts); caches = []; admission = None;
      teardown = (fun () -> Sharded.shutdown sh) }
  in
  { name = "cpu-programs"; items_unit = "cycles"; setup }

(* ---- catalogue-mixed ---- *)

let catalogue_cycles = 16
let deadline = 60.0
let retry = R.retry ~max_attempts:3 ()

(* A copy of [nl] with its first output inverted: the must-mismatch
   reference for [Equiv]. *)
let invert_first_output nl =
  let n = N.size nl in
  let _, outport = List.hd nl.N.outputs in
  let fanin = Array.append (Array.copy nl.N.fanin) [| [| nl.N.fanin.(outport).(0) |] |] in
  fanin.(outport) <- [| n |];
  { nl with N.components = Array.append nl.N.components [| N.Invc |];
            names = Array.append nl.N.names [| [] |]; fanin }

(* Ops come in rounds of [sweeps] sweeps.  A sweep visits every
   catalogue circuit once, in a seeded order, as `hydra lint --all` and
   `hydra faults --all` do.  The cache is emptied at the start of each
   round, so its first sweep compiles every circuit (a cache insert) and
   the later sweeps are cache hits, whatever the seed.  Three sweeps
   make the round length odd, which keeps the median on one op. *)
let sweeps = 3
let ncat = List.length Circuits.catalogue
let round = sweeps * ncat

let draw seed i =
  let order = Array.of_list Circuits.catalogue in
  let st = rng seed (i / ncat) 3 in
  for j = ncat - 1 downto 1 do
    let r = Random.State.int st (j + 1) in
    let t = order.(j) in
    order.(j) <- order.(r);
    order.(r) <- t
  done;
  order.(i mod ncat)

let take_sample st n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  if len <= n then xs
  else begin
    for j = 0 to n - 1 do
      let r = j + Random.State.int st (len - j) in
      let t = a.(j) in
      a.(j) <- a.(r);
      a.(r) <- t
    done;
    List.sort compare (Array.to_list (Array.sub a 0 n))
  end

let catalogue_mixed =
  let setup ~domains ~seed ~traced =
    let sch = span ~layer:Trace.Engine_setup "scheduler.create" (fun () -> Scheduler.create ~domains ()) in
    (* room for a whole round: no evictions within one *)
    let caches = caches ~capacity:256 ~traced () in
    let cache = List.hd caches and rcache = List.nth caches (List.length caches - 1) in
    let admission = R.admission ~max_lanes:(2 * Slab.lanes_per_word * k) () in
    let netlists = Hashtbl.create 32 in
    List.iter
      (fun name ->
        let nl = span ~layer:Trace.Netlist_build "netlist.build" (fun () -> Circuits.build name) in
        ignore (span ~layer:Trace.Netlist_digest "netlist.digest" (fun () -> N.digest nl));
        Hashtbl.replace netlists name nl)
      Circuits.catalogue;
    let facts_memo = Hashtbl.create 32 in
    let facts i =
      let name = draw seed i in
      match Hashtbl.find_opt facts_memo name with
      | Some f -> f
      | None ->
        let nl = Hashtbl.find netlists name in
        let dataflow_visits =
          List.fold_left (fun a (_, s) -> a + s.Dataflow.visits) 0
            (Dataflow.stats (Dataflow.create nl))
        in
        let f =
          program_facts ~visits:dataflow_visits
            (Kernel.compile ~k ~optimize:false ~relayout:false ~fuse:false nl)
        in
        Hashtbl.replace facts_memo name f;
        f
    in
    let prepare i =
      if i mod round = 0 then List.iter Cache.clear caches;
      let name = draw seed i in
      let nl = Hashtbl.find netlists name in
      let st = rng seed i 4 in
      let cycles = catalogue_cycles in
      let stimulus, faults =
        span ~layer:Trace.Stimulus "campaign.inputs" (fun () ->
            let stuck = take_sample st (2 * ((Slab.lanes_per_word * k) - 1)) (C.all_stuck_at nl) in
            let at = Random.State.int st cycles in
            let seu = take_sample st ((Slab.lanes_per_word * k) - 1) (C.all_seu ~at_cycle:at nl) in
            (C.random_stimulus ~seed:(Random.State.bits st) ~cycles nl, stuck @ seu))
      in
      let eq_seed = Random.State.bits st in
      let nfaults = List.length faults in
      let result = ref None in
      let equiv c opt =
        Equiv.wide_random_netlists ~scheduler:sch ~cache:c ~passes:4 ~cycles ~seed:eq_seed
          ~deadline nl opt
      in
      let design_check () =
        let lint = Lint.run nl in
        let opt = Optimize.optimize nl in
        let eq = equiv cache opt in
        let report =
          C.run ~scheduler:sch ~cache ~engine:(`Slab k) ~deadline ~retry ~admission nl ~faults
            ~stimulus ~cycles
        in
        (lint, opt, eq, report)
      in
      let get () = Option.get !result in
      {
        run = (fun () -> result := Some (design_check ()));
        items = (fun () -> float_of_int nfaults);
        check =
          (fun () ->
            let _, opt, eq, report = get () in
            let fails = ref (count_failures report nfaults) in
            if not (Equiv.seq_equivalent eq) then
              fails := (name ^ ": not equivalent to its optimized form") :: !fails;
            (* cache-free, so the check leaves the measured cache alone *)
            if Equiv.seq_equivalent
                 (Equiv.wide_random_netlists ~passes:1 ~cycles ~seed:eq_seed nl
                    (invert_first_output opt))
            then
              fails := (name ^ ": equivalent to a copy with one output inverted") :: !fails;
            (match
               sample_stuck st (Replay.codes report) (Array.of_list faults)
             with
            | Some (site, value, code) ->
              fails := !fails @ regrade nl ~stimulus ~cycles ~site ~value ~code
            | None -> ());
            List.map (fun f -> name ^ ": " ^ f) !fails);
        replay =
          (fun () ->
            let lint0, _, eq0, report = get () in
            let lint = span ~layer:Trace.Analyze_lint "lint.run" (fun () -> Lint.run nl) in
            let opt =
              span ~layer:Trace.Netlist_optimize "optimize" (fun () -> Optimize.optimize nl)
            in
            let eq = span ~layer:Trace.Equiv_check "equiv" (fun () -> equiv rcache opt) in
            let codes =
              Replay.campaign ~sch ~cache:rcache ~deadline ~retry ~k nl ~faults ~stimulus ~cycles
            in
            (if lint = lint0 then []
             else [ name ^ ": lint replay disagrees" ])
            @ (if eq = eq0 then [] else [ name ^ ": equiv replay disagrees" ])
            @ compare_replay name report codes);
      }
    in
    { prepare; round; facts; caches; admission = Some admission;
      teardown = (fun () -> Scheduler.shutdown sch) }
  in
  { name = "catalogue-mixed"; items_unit = "faults"; setup }

let all = [ wallace64; cpu_programs; catalogue_mixed ]
