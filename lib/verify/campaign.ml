(* Lane-parallel fault-injection campaigns.

   The robustness question the paper's section 4.2 motivates — how does
   the design behave under conditions you did not intend? — answered at
   engine speed: every lane of a word-parallel engine runs a distinct
   fault, injected at runtime through per-lane force masks instead of
   per-fault netlist rewriting and recompilation.  The campaign core
   addresses the engine through a small word-indexed ops record, so the
   same classification loop runs on {!Compiled_wide} (62 lanes, the
   default) or on a K-word {!Slab} (62*K lanes, [~engine:(`Slab k)]).
   Fault lists chunk over {!Sharded.run_tasks} (or a scheduler job).

   Each chunk is one lane-refill loop.  Lane 0 runs the golden circuit
   for the chunk's first window, recording the golden outputs per cycle
   and the final golden state, then takes a fault like every other
   lane.  A lane runs its fault on its own clock and retires it as soon
   as it is detected (or when its window ends); the freed lane is reset
   to power-up, in that lane only, and takes the next fault of the
   chunk.  Faults are mostly detected within a few cycles, so a lane
   grades several faults per window instead of one.

   Every fault is classified against the golden run:
   - detected: an observable output diverged (with detection latency),
   - latent: outputs never diverged but some dff's final state did,
   - masked: no divergence at all.

   The engines are built with [~optimize:false ~relayout:false
   ~fuse:false] so component indices in force sites match the caller's
   netlist unchanged. *)

module Netlist = Hydra_netlist.Netlist
module W = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Sharded = Hydra_engine.Sharded
module Scheduler = Hydra_engine.Scheduler
module Cache = Hydra_engine.Cache
module Resilience = Hydra_engine.Resilience

type fault =
  | Stuck_at of { site : int; value : bool }
  | Seu of { site : int; at_cycle : int }
  | Intermittent of { site : int; rate : float; seed : int }

type classification =
  | Detected of { latency : int; cycle : int; output : string }
  | Latent
  | Masked

type verdict = {
  fault : fault;
  name : string;
  classification : classification;
  status : (string * bool) list;
}

type report = {
  netlist : Netlist.t;
  stimulus : (string * bool list) list;
  cycles : int;
  total : int;
  detected : int;
  latent : int;
  masked : int;
  verdicts : verdict list;
}

let site_of = function
  | Stuck_at { site; _ } | Seu { site; _ } | Intermittent { site; _ } -> site

(* Fault names are built for every graded fault, so without format
   interpretation: [site_label] is [Netlist.describe]'s text. *)
let site_label nl site =
  let labels =
    match nl.Netlist.names.(site) with
    | [] -> ""
    | nms -> "(" ^ String.concat "," nms ^ ")"
  in
  String.concat ""
    [
      Netlist.component_name nl.Netlist.components.(site);
      "#";
      string_of_int site;
      labels;
    ]

let model_suffix = function
  | Stuck_at { value; _ } -> if value then " stuck-at-1" else " stuck-at-0"
  | Seu { at_cycle; _ } -> " seu@" ^ string_of_int at_cycle
  | Intermittent { rate; seed; _ } ->
    Printf.sprintf " intermittent(rate=%g,seed=%d)" rate seed

let fault_name nl fault = site_label nl (site_of fault) ^ model_suffix fault

(* Enumerators.  [all_stuck_at] preserves the historic {!Fault} order
   (site ascending, stuck-at-0 before stuck-at-1) so reports line up
   with the legacy coverage API. *)

let all_stuck_at nl =
  let fs = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
      | Netlist.Dffc _ ->
        fs :=
          Stuck_at { site = i; value = true }
          :: Stuck_at { site = i; value = false }
          :: !fs
      | Netlist.Inport _ | Netlist.Outport _ | Netlist.Constant _ -> ())
    nl.Netlist.components;
  List.rev !fs

let dff_sites nl =
  let ds = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with Netlist.Dffc _ -> ds := i :: !ds | _ -> ())
    nl.Netlist.components;
  List.rev !ds

let all_seu ?(at_cycle = 0) nl =
  List.map (fun site -> Seu { site; at_cycle }) (dff_sites nl)

let seu_sweep nl ~cycles =
  List.concat_map
    (fun site -> List.init cycles (fun c -> Seu { site; at_cycle = c }))
    (dff_sites nl)

(* Stimulus: one bool stream per input port, consumed cycle by cycle
   (missing ports idle at false, short streams pad with false). *)

let stimulus_of_vectors ?(cycles_per_vector = 1) nl vectors =
  let names = List.map fst nl.Netlist.inputs in
  let rows = List.map Array.of_list vectors in
  ( List.mapi
      (fun k name ->
        ( name,
          List.concat_map
            (fun row -> List.init cycles_per_vector (fun _ -> row.(k)))
            rows ))
      names,
    cycles_per_vector * List.length vectors )

let random_stimulus ~seed ~cycles nl =
  if cycles < 0 then invalid_arg "Campaign.random_stimulus: cycles must be >= 0";
  let st = Random.State.make [| 0x5eed; seed; cycles |] in
  List.map
    (fun (name, _) -> (name, List.init cycles (fun _ -> Random.State.bool st)))
    nl.Netlist.inputs

(* The word-indexed face the classification loop drives.  A fault's
   force masks are one {!Slab.force} record (one 62-bit word per engine
   word) and the live records are installed all at once; intermittent
   faults then mutate their flip masks per cycle and call
   [o_sync_flips] (a no-op on the slab, which shares the arrays by
   reference). *)
type ops = {
  o_words : int;
  o_reset : unit -> unit;
  o_settle : unit -> unit;
  o_tick : unit -> unit;
  o_poke : int -> int -> int -> unit;  (* site, word, packed value *)
  o_peek : int -> int -> int;  (* site, word *)
  o_install : Slab.force array -> unit;
  o_sync_flips : Slab.force array -> unit;
  o_clear : unit -> unit;
}

let wide_ops sim =
  let installed = ref [||] in
  {
    o_words = 1;
    o_reset = (fun () -> W.reset sim);
    o_settle = (fun () -> W.settle sim);
    o_tick = (fun () -> W.tick sim);
    o_poke = (fun site _ v -> W.poke sim site v);
    o_peek = (fun site _ -> W.peek sim site);
    o_install =
      (fun ps ->
        installed :=
          Array.map
            (fun p ->
              {
                W.f_site = p.Slab.f_site;
                force0 = p.Slab.force0.(0);
                force1 = p.Slab.force1.(0);
                flip = p.Slab.flip.(0);
              })
            ps;
        W.set_forces sim !installed);
    (* the wide force masks are plain ints, so flip updates are copied
       through to the installed records *)
    o_sync_flips =
      (fun ps ->
        Array.iteri (fun i p -> !installed.(i).W.flip <- p.Slab.flip.(0)) ps);
    o_clear = (fun () -> W.clear_forces sim);
  }

let slab_ops sim =
  {
    o_words = Slab.k sim;
    o_reset = (fun () -> Slab.reset sim);
    o_settle = (fun () -> Slab.settle sim);
    o_tick = (fun () -> Slab.tick sim);
    o_poke = (fun site w v -> Slab.poke_word sim site w v);
    o_peek = (fun site w -> Slab.peek_word sim site w);
    o_install = Slab.set_forces sim;
    (* the slab keeps the caller's mask arrays by reference: flip
       mutations are already live *)
    o_sync_flips = (fun _ -> ());
    o_clear = (fun () -> Slab.clear_forces sim);
  }

(* Lane-refill bookkeeping helpers. *)

(* [acc] holds rows of [words] ints: OR [mask] into each listed row. *)
let or_rows acc words mask rows =
  for r = 0 to Array.length rows - 1 do
    let base = rows.(r) * words in
    for w = 0 to words - 1 do
      acc.(base + w) <- acc.(base + w) lor mask.(w)
    done
  done

(* Index of the single set bit of [b]. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then (n := 32; b := !b lsr 32);
  if !b land 0xFFFF = 0 then (n := !n + 16; b := !b lsr 16);
  if !b land 0xFF = 0 then (n := !n + 8; b := !b lsr 8);
  if !b land 0xF = 0 then (n := !n + 4; b := !b lsr 4);
  if !b land 0x3 = 0 then (n := !n + 2; b := !b lsr 2);
  if !b land 0x1 = 0 then incr n;
  !n

(* A set of lanes with O(1) add and remove, iterated densely. *)
type lane_set = { members : int array; at : int array; mutable size : int }

let lane_set nlanes =
  { members = Array.make nlanes 0; at = Array.make nlanes (-1); size = 0 }

let set_add s lane =
  s.at.(lane) <- s.size;
  s.members.(s.size) <- lane;
  s.size <- s.size + 1

let set_remove s lane =
  let x = s.at.(lane) in
  if x >= 0 then begin
    s.size <- s.size - 1;
    let last = s.members.(s.size) in
    s.members.(x) <- last;
    s.at.(last) <- x;
    s.at.(lane) <- -1
  end

let no_coins = Random.State.make [||]

(* Split the faults evenly over the team members, keeping every chunk
   between one full pass (lanes - 1 faults beside the golden lane) and
   lanes x cycles faults.  A chunk pays for its golden window and its
   drain tail (the last cycles, when lanes run out of faults and idle),
   so bigger chunks settle less; the cap keeps deadline checks, retries
   and the load balance across members at a few windows per chunk
   (about 35 settles on the 8-cycle wallace64 campaign, EXPERIMENTS
   E23). *)
let chunking ~lanes ~members ~cycles nfaults =
  let members = max 1 members in
  let per_chunk =
    max (lanes - 1) (min (lanes * cycles) ((nfaults + members - 1) / members))
  in
  Scheduler.chunking ~lanes:per_chunk nfaults

let run ?scheduler ?cache ?sharded ?domains ?(engine = `Wide)
    ?(gating = false) ?(status_outputs = []) ?deadline ?retry ?admission ?chaos
    nl ~faults ~stimulus ~cycles =
  if cycles < 0 then invalid_arg "Campaign.run: cycles must be >= 0";
  (match (scheduler, domains) with
  | Some _, Some _ ->
    invalid_arg "Campaign.run: pass either ?scheduler or ?domains, not both"
  | _ -> ());
  (match engine with
  | `Wide when gating ->
    invalid_arg "Campaign.run: ?gating requires ~engine:(`Slab k)"
  | _ -> ());
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Campaign.run: invalid netlist: " ^ e));
  let n = Netlist.size nl in
  List.iter
    (fun f ->
      let site = site_of f in
      if site < 0 || site >= n then
        invalid_arg "Campaign.run: fault site out of range";
      match (f, nl.Netlist.components.(site)) with
      | _, Netlist.Outport _ ->
        invalid_arg "Campaign.run: cannot fault an outport"
      | Seu _, Netlist.Dffc _ -> ()
      | Seu _, _ ->
        invalid_arg
          (Printf.sprintf "Campaign.run: SEU site %d is not a dff" site)
      | Intermittent { rate; _ }, _ when not (rate >= 0.0 && rate <= 1.0) ->
        invalid_arg "Campaign.run: intermittent rate outside [0,1]"
      | _ -> ())
    faults;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name nl.Netlist.inputs) then
        invalid_arg ("Campaign.run: stimulus for unknown input " ^ name))
    stimulus;
  (* per local cycle, the inputs driven high *)
  let inputs = Array.of_list nl.Netlist.inputs in
  let high_inputs =
    let bits =
      Array.map
        (fun (name, _) ->
          let b = Array.make cycles false in
          (match List.assoc_opt name stimulus with
          | None -> ()
          | Some bs -> List.iteri (fun c v -> if c < cycles then b.(c) <- v) bs);
          b)
        inputs
    in
    Array.init cycles (fun c ->
        let hi = ref [] in
        for i = Array.length inputs - 1 downto 0 do
          if bits.(i).(c) then hi := i :: !hi
        done;
        Array.of_list !hi)
  in
  let status_sites =
    Array.of_list
      (List.map
         (fun name ->
           match List.assoc_opt name nl.Netlist.outputs with
           | Some site -> (name, site)
           | None -> invalid_arg ("Campaign.run: unknown status output " ^ name))
         status_outputs)
  in
  let compare_sites =
    Array.of_list
      (List.filter
         (fun (name, _) -> not (List.mem name status_outputs))
         nl.Netlist.outputs)
  in
  let dffs = Array.of_list (dff_sites nl) in
  (* what a refilled lane is reset to: dffs and constants (a stuck-at on
     a constant stays in the value slab after its force is removed);
     inputs are re-poked every cycle and gates recompute *)
  let power_up =
    let ps = ref [] in
    Array.iteri
      (fun i comp ->
        match comp with
        | Netlist.Dffc b | Netlist.Constant b -> ps := (i, -Bool.to_int b) :: !ps
        | _ -> ())
      nl.Netlist.components;
    Array.of_list (List.rev !ps)
  in
  let faults_arr = Array.of_list faults in
  let nfaults = Array.length faults_arr in
  let results = Array.make (max nfaults 1) None in
  let ninputs = Array.length inputs in
  let ncompare = Array.length compare_sites in
  let nstatus = Array.length status_sites in
  let no_status = List.map (fun sname -> (sname, false)) status_outputs in
  (* Verdicts of faults [lo, lo + count) in fault order, so a run of
     faults on one site (both stuck-at values, an SEU sweep) builds the
     site's label once. *)
  let publish lo classes statuses =
    let last = ref (-1) and label = ref "" in
    Array.iteri
      (fun i classification ->
        let fault = faults_arr.(lo + i) in
        let site = site_of fault in
        if site <> !last then begin
          last := site;
          label := site_label nl site
        end;
        results.(lo + i) <-
          Some
            {
              fault;
              name = !label ^ model_suffix fault;
              classification;
              status = statuses.(i);
            })
      classes
  in
  (* Faults [lo, hi) on one engine.  Lane [l] is word [l / 62], bit
     [l mod 62].  A lane started at global cycle [g0] is at local cycle
     [g - g0]; lanes started in the same cycle form a cohort, driven
     with its own stimulus vector and compared against the golden
     outputs of its local cycle.  A cohort lives at most [cycles]
     cycles, so its masks sit in ring slot [g0 mod cycles]. *)
  let run_chunk ops lo hi =
    let count = hi - lo in
    let classes = Array.make count Masked in
    let statuses = Array.make count no_status in
    (* with no cycle to run, every lane keeps the golden power-up state *)
    if cycles > 0 then begin
      let words = ops.o_words in
      let nlanes = words * W.lanes in
      ops.o_clear ();
      ops.o_reset ();
      let lane_fault = Array.make nlanes (-1) (* chunk-relative; -1 idle *)
      and lane_g0 = Array.make nlanes 0
      and no_force =
        { Slab.f_site = 0; force0 = [||]; force1 = [||]; flip = [||] }
      in
      let lane_p = Array.make nlanes no_force in
      let lane_rate = Array.make nlanes 0.0 and lane_coins = Array.make nlanes no_coins in
      (* the lanes carrying a force, and the intermittent ones among them *)
      let forced = lane_set nlanes and inter = lane_set nlanes in
      let forces_dirty = ref false in
      let cmask = Array.make_matrix cycles words 0 in
      let cn = Array.make cycles 0 in
      let coh = Array.make cycles 0 and ncoh = ref 0 in
      let cur_mask = Array.make cycles [||] and cur_tau = Array.make cycles 0 in
      let undet = Array.make words 0 in
      let free = Array.make nlanes 0 and nfree = ref 0 in
      let next = ref 0 and live = ref 0 in
      let seu_due = Array.make cycles [] in
      let det_cycle = Array.make count (-1) and det_out = Array.make count "" in
      let status_acc = Array.make_matrix nstatus words 0 in
      (* golden outputs high per local cycle; golden final dff state as
         sign-extended words *)
      let high_outputs = Array.make cycles [||] in
      let expect = Array.make (ncompare * words) 0 in
      let in_words = Array.make (ninputs * words) 0 in
      let gold_state = Array.make (Array.length dffs) 0 in
      let join lane g =
        let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
        let s = g mod cycles in
        cmask.(s).(w) <- cmask.(s).(w) lor bit;
        cn.(s) <- cn.(s) + 1;
        lane_g0.(lane) <- g
      in
      (* a lane's mask arrays carry only its own bit, so they are reused
         from fault to fault: the previous record is out of the force set
         before the next settle *)
      let force lane site =
        let old = lane_p.(lane) in
        let p =
          if old == no_force then
            {
              Slab.f_site = site;
              force0 = Array.make words 0;
              force1 = Array.make words 0;
              flip = Array.make words 0;
            }
          else begin
            Array.fill old.Slab.force0 0 words 0;
            Array.fill old.Slab.force1 0 words 0;
            Array.fill old.Slab.flip 0 words 0;
            { old with Slab.f_site = site }
          end
        in
        lane_p.(lane) <- p;
        set_add forced lane;
        forces_dirty := true;
        p
      in
      let start lane g =
        let k = !next in
        incr next;
        incr live;
        join lane g;
        lane_fault.(lane) <- k;
        let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
        undet.(w) <- undet.(w) lor bit;
        match faults_arr.(lo + k) with
        | Stuck_at { site; value } ->
          let p = force lane site in
          (if value then p.Slab.force1 else p.Slab.force0).(w) <- bit
        | Seu { site; at_cycle } ->
          if at_cycle >= 0 && at_cycle < cycles then begin
            let d = (g + at_cycle) mod cycles in
            seu_due.(d) <- (lane, k, site) :: seu_due.(d)
          end
        | Intermittent { site; rate; seed } ->
          ignore (force lane site);
          set_add inter lane;
          (* seeded per fault, not per chunk, so results are independent
             of how faults land on chunks, lanes and members *)
          lane_rate.(lane) <- rate;
          lane_coins.(lane) <- Random.State.make [| seed; site |]
      in
      let retire lane =
        let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
        let s = lane_g0.(lane) mod cycles in
        cmask.(s).(w) <- cmask.(s).(w) land lnot bit;
        cn.(s) <- cn.(s) - 1;
        undet.(w) <- undet.(w) land lnot bit;
        if forced.at.(lane) >= 0 then begin
          set_remove forced lane;
          set_remove inter lane;
          forces_dirty := true
        end;
        if lane_fault.(lane) >= 0 then decr live;
        lane_fault.(lane) <- -1;
        free.(!nfree) <- lane;
        incr nfree
      in
      let conclude lane ~latent =
        let k = lane_fault.(lane) in
        let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
        let classification =
          if det_cycle.(k) >= 0 then
            let injection =
              match faults_arr.(lo + k) with
              | Seu { at_cycle; _ } -> at_cycle
              | Stuck_at _ | Intermittent _ -> 0
            in
            Detected
              {
                latency = det_cycle.(k) - injection;
                cycle = det_cycle.(k);
                output = det_out.(k);
              }
          else if latent then Latent
          else Masked
        in
        let status =
          if nstatus = 0 then []
          else
            List.init nstatus (fun si ->
                (fst status_sites.(si), status_acc.(si).(w) land bit <> 0))
        in
        classes.(k) <- classification;
        statuses.(k) <- status;
        retire lane
      in
      (* lane 0 is golden for the first window; the faults fill the rest *)
      join 0 0;
      for lane = 1 to min count (nlanes - 1) do
        start lane 0
      done;
      coh.(0) <- 0;
      ncoh := 1;
      let refill = Array.make words 0 in
      let installed = ref [||] in
      let clock = ref 0 in
      while !live > 0 || !next < count do
        let g = !clock in
        (* drop emptied cohorts (before a refill may reuse the ring slot
           of the one that ended last cycle), snapshot the live ones *)
        let n = ref 0 in
        for c = 0 to !ncoh - 1 do
          let g0 = coh.(c) in
          let s = g0 mod cycles in
          if cn.(s) > 0 then begin
            coh.(!n) <- g0;
            cur_mask.(!n) <- cmask.(s);
            cur_tau.(!n) <- g - g0;
            incr n
          end
        done;
        if !nfree > 0 && !next < count then begin
          Array.fill refill 0 words 0;
          while !nfree > 0 && !next < count do
            decr nfree;
            let lane = free.(!nfree) in
            start lane g;
            let w = lane / W.lanes in
            refill.(w) <- refill.(w) lor (1 lsl (lane mod W.lanes))
          done;
          coh.(!n) <- g;
          cur_mask.(!n) <- cmask.(g mod cycles);
          cur_tau.(!n) <- 0;
          incr n;
          for w = 0 to words - 1 do
            let m = refill.(w) in
            if m <> 0 then begin
              Array.iter
                (fun (site, v) ->
                  let old = ops.o_peek site w in
                  let reset = old land lnot m lor (v land m) in
                  if reset <> old then ops.o_poke site w reset)
                power_up;
              for si = 0 to nstatus - 1 do
                status_acc.(si).(w) <- status_acc.(si).(w) land lnot m
              done
            end
          done
        end;
        ncoh := !n;
        let ncur = !n in
        if !forces_dirty then begin
          forces_dirty := false;
          installed := Array.init forced.size (fun x -> lane_p.(forced.members.(x)));
          if forced.size = 0 then ops.o_clear () else ops.o_install !installed
        end;
        (* each input word is the union of the masks of the cohorts
           whose stimulus drives it high *)
        Array.fill in_words 0 (ninputs * words) 0;
        for c = 0 to ncur - 1 do
          or_rows in_words words cur_mask.(c) high_inputs.(cur_tau.(c))
        done;
        for i = 0 to ninputs - 1 do
          let site = snd inputs.(i) in
          for w = 0 to words - 1 do
            ops.o_poke site w in_words.((i * words) + w)
          done
        done;
        let due = g mod cycles in
        if seu_due.(due) <> [] then begin
          List.iter
            (fun (lane, k, site) ->
              if lane_fault.(lane) = k then begin
                let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
                ops.o_poke site w (ops.o_peek site w lxor bit)
              end)
            seu_due.(due);
          seu_due.(due) <- []
        end;
        if inter.size > 0 then begin
          for x = 0 to inter.size - 1 do
            let lane = inter.members.(x) in
            let w = lane / W.lanes and bit = 1 lsl (lane mod W.lanes) in
            lane_p.(lane).Slab.flip.(w) <-
              (if Random.State.float lane_coins.(lane) 1.0 < lane_rate.(lane)
               then bit
               else 0)
          done;
          ops.o_sync_flips !installed
        end;
        ops.o_settle ();
        if g < cycles then begin
          let hi = ref [] in
          for o = ncompare - 1 downto 0 do
            if ops.o_peek (snd compare_sites.(o)) 0 land 1 = 1 then hi := o :: !hi
          done;
          high_outputs.(g) <- Array.of_list !hi
        end;
        if Array.exists (fun u -> u <> 0) undet then begin
          (* the golden value of every output, per lane, at the lane's
             own local cycle *)
          Array.fill expect 0 (ncompare * words) 0;
          for c = 0 to ncur - 1 do
            or_rows expect words cur_mask.(c) high_outputs.(cur_tau.(c))
          done;
          for o = 0 to ncompare - 1 do
            let oname, osite = compare_sites.(o) in
            for w = 0 to words - 1 do
              let u = undet.(w) in
              if u <> 0 then begin
                let diff =
                  ref ((ops.o_peek osite w lxor expect.((o * words) + w)) land u)
                in
                undet.(w) <- u land lnot !diff;
                while !diff <> 0 do
                  let low = !diff land - !diff in
                  diff := !diff lxor low;
                  let lane = (w * W.lanes) + bit_index low in
                  let k = lane_fault.(lane) in
                  det_cycle.(k) <- g - lane_g0.(lane);
                  det_out.(k) <- oname;
                  (* status flags are sampled over the whole window *)
                  if nstatus = 0 then conclude lane ~latent:false
                done
              end
            done
          done
        end;
        for si = 0 to nstatus - 1 do
          let ssite = snd status_sites.(si) and acc = status_acc.(si) in
          for w = 0 to words - 1 do
            acc.(w) <- acc.(w) lor ops.o_peek ssite w
          done
        done;
        ops.o_tick ();
        if g = cycles - 1 then
          Array.iteri (fun j site -> gold_state.(j) <- -(ops.o_peek site 0 land 1)) dffs;
        (* the cohort started [cycles] ago ends its window.  Latent: some
           dff's final state differs from the golden one though no output
           ever did.  Only the final state counts — an upset that the
           circuit heals (e.g. an ECC reload) is masked. *)
        let s = (g + 1) mod cycles in
        if cn.(s) > 0 then
          for w = 0 to words - 1 do
            let m = cmask.(s).(w) in
            if m <> 0 then begin
              let state_diff = ref 0 in
              if m land undet.(w) <> 0 then
                Array.iteri
                  (fun j site ->
                    state_diff :=
                      !state_diff lor (ops.o_peek site w lxor gold_state.(j)))
                  dffs;
              let rest = ref m in
              while !rest <> 0 do
                let low = !rest land - !rest in
                rest := !rest lxor low;
                let lane = (w * W.lanes) + bit_index low in
                if lane_fault.(lane) >= 0 then
                  conclude lane ~latent:(!state_diff land low <> 0)
                else retire lane (* the golden lane *)
              done
            end
          done;
        clock := g + 1
      done;
      ops.o_clear ()
    end;
    publish lo classes statuses
  in
  (match engine with
  | `Slab k when k < 1 -> invalid_arg "Campaign.run: slab k must be >= 1"
  | _ -> ());
  (* Resilience knobs.  The deadline is a wall budget over the whole
     campaign; scheduler runs carry it (and the retry policy) on the
     job, direct runs enforce it at chunk boundaries with a local
     retry loop.  The admission controller may degrade a slab request
     to fewer words (fewer lanes, same results) before it would shed
     the campaign outright. *)
  let t0 = Resilience.now () in
  let check_deadline () =
    match deadline with
    | Some d when Resilience.now () -. t0 > d ->
      raise
        (Resilience.Deadline_exceeded
           { job = "campaign"; elapsed = Resilience.now () -. t0 })
    | _ -> ()
  in
  let sched_deadline () =
    Option.map (fun d -> Float.max 0.001 (d -. (Resilience.now () -. t0))) deadline
  in
  let acquired =
    match admission with
    | None -> None
    | Some a -> (
      let want =
        W.lanes * (match engine with `Wide -> 1 | `Slab k -> k)
      in
      match Resilience.acquire a ~lanes:want with
      | `Granted g -> Some (a, g)
      | `Shed -> raise (Resilience.Shed { job = "campaign"; priority = 0 }))
  in
  let engine =
    match (acquired, engine) with
    | Some (_, g), `Slab k when g < W.lanes * k ->
      `Slab (max 1 (g / W.lanes))  (* degraded, not rejected *)
    | _ -> engine
  in
  Fun.protect
    ~finally:(fun () ->
      match acquired with
      | Some (a, g) -> Resilience.release a ~lanes:g
      | None -> ())
    (fun () ->
      let lanes = W.lanes * match engine with `Wide -> 1 | `Slab k -> k in
      let members =
        match (scheduler, sharded, domains) with
        | Some sch, _, _ -> Scheduler.domains sch
        | None, Some sh, _ -> Sharded.domains sh
        | None, None, Some d -> d
        | None, None, None -> Hydra_parallel.Pool.default_domains ()
      in
      let ch = chunking ~lanes ~members ~cycles nfaults in
      let nchunks = ch.Scheduler.count in
      let chunk_bounds = ch.Scheduler.bounds in
      (* dress a chunk body with the resilience wrappers: a chaos
         injection point at entry (each retry re-rolls its fate), a
         chunk-boundary deadline check, and — when no scheduler carries
         the retry policy natively — a local backoff-and-rerun loop
         (chunks recompute their result slice from reset, so a rerun is
         bit-identical) *)
      let dress body ~member c =
        check_deadline ();
        let attempt_body () =
          (match chaos with
          | Some p -> Chaos.inject p ~label:"campaign" ~task:c ()
          | None -> ());
          body ~member c
        in
        match (scheduler, retry) with
        | Some _, _ | None, None -> attempt_body ()
        | None, Some pol ->
          let rec go attempt =
            try attempt_body ()
            with e
              when attempt < pol.Resilience.max_attempts
                   && pol.Resilience.transient e ->
              Unix.sleepf (Resilience.backoff pol ~attempt ~seed:(0xca3 + c));
              check_deadline ();
              go (attempt + 1)
          in
          go 1
      in
      (* engines always compile with the identity passes (force sites
         are caller-netlist component indices); [?cache] serves warm
         replicas *)
      let wide_base () =
        match cache with
        | Some c -> Cache.wide c ~optimize:false ~relayout:false ~fuse:false nl
        | None -> W.create ~optimize:false ~relayout:false ~fuse:false nl
      in
      let slab_base k =
        match cache with
        | Some c ->
          Cache.slab c ~k ~gating ~optimize:false ~relayout:false ~fuse:false
            nl
        | None ->
          Slab.create ~k ~gating ~optimize:false ~relayout:false ~fuse:false nl
      in
      let run_sharded sh =
        if Sharded.netlist sh <> nl then
          invalid_arg
            "Campaign.run: sharded engine compiled from a different netlist \
             (build it with ~optimize:false ~relayout:false ~fuse:false on \
             the campaign netlist)";
        let body ~member c =
          let lo, hi = chunk_bounds c in
          run_chunk (wide_ops (Sharded.replica sh member)) lo hi
        in
        match scheduler with
        | Some sch ->
          if Scheduler.pool sch != Sharded.pool sh then
            invalid_arg
              "Campaign.run: ?scheduler and ?sharded must share one pool \
               (Sharded.of_base ~pool:(Scheduler.pool sch))";
          Scheduler.run_tasks sch ~name:"campaign" ?deadline:(sched_deadline ())
            ?retry nchunks (dress body)
        | None -> Sharded.run_tasks sh nchunks (dress body)
      in
      match (engine, sharded) with
      | `Slab _, Some _ ->
        invalid_arg
          "Campaign.run: ?sharded reuses a wide engine; pass ?domains with \
           ~engine:(`Slab k) instead"
      | `Slab k, None ->
        if nchunks > 0 then begin
          let base = slab_base k in
          let module SSh = Sharded.Slab_sharded in
          let body ssh ~member c =
            let lo, hi = chunk_bounds c in
            run_chunk (slab_ops (SSh.replica ssh member)) lo hi
          in
          match scheduler with
          | Some sch ->
            let ssh = SSh.of_base ~pool:(Scheduler.pool sch) base in
            Scheduler.run_tasks sch ~name:"campaign"
              ?deadline:(sched_deadline ()) ?retry nchunks (dress (body ssh))
          | None ->
            let ssh = SSh.of_base ?domains base in
            Fun.protect
              ~finally:(fun () -> SSh.shutdown ssh)
              (fun () -> SSh.run_tasks ssh nchunks (dress (body ssh)))
        end
      | `Wide, Some sh -> run_sharded sh
      | `Wide, None ->
        if Option.is_none scheduler && Option.is_none domains && nchunks <= 1
        then begin
          if nchunks = 1 then begin
            let sim = wide_base () in
            let body ~member:_ c =
              let lo, hi = chunk_bounds c in
              run_chunk (wide_ops sim) lo hi
            in
            dress body ~member:0 0
          end
        end
        else if nchunks > 0 then begin
          match scheduler with
          | Some sch ->
            run_sharded
              (Sharded.of_base ~pool:(Scheduler.pool sch) (wide_base ()))
          | None ->
            let sh = Sharded.of_base ?domains (wide_base ()) in
            Fun.protect
              ~finally:(fun () -> Sharded.shutdown sh)
              (fun () -> run_sharded sh)
        end);
  let verdicts =
    List.init nfaults (fun i ->
        match results.(i) with
        | Some v -> v
        | None -> assert false (* every chunk writes its slice *))
  in
  let count p =
    List.length (List.filter (fun v -> p v.classification) verdicts)
  in
  {
    netlist = nl;
    stimulus;
    cycles;
    total = nfaults;
    detected = count (function Detected _ -> true | _ -> false);
    latent = count (function Latent -> true | _ -> false);
    masked = count (function Masked -> true | _ -> false);
    verdicts;
  }

let replay report fault =
  let status_outputs =
    match report.verdicts with
    | v :: _ -> List.map fst v.status
    | [] -> []
  in
  let r =
    run ~status_outputs report.netlist ~faults:[ fault ]
      ~stimulus:report.stimulus ~cycles:report.cycles
  in
  List.hd r.verdicts

(* Summaries and renderers. *)

let coverage_ratio r =
  if r.total = 0 then 1.0 else float_of_int r.detected /. float_of_int r.total

let mean_latency r =
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun v ->
      match v.classification with
      | Detected { latency; _ } ->
        incr n;
        sum := !sum + latency
      | Latent | Masked -> ())
    r.verdicts;
  if !n = 0 then None else Some (float_of_int !sum /. float_of_int !n)

let class_string = function
  | Detected _ -> "detected"
  | Latent -> "latent"
  | Masked -> "masked"

let status_suffix v =
  let on = List.filter_map (fun (n, b) -> if b then Some n else None) v.status in
  if on = [] then "" else " [" ^ String.concat "," on ^ "]"

let verdict_to_string v =
  (match v.classification with
  | Detected { latency; cycle; output } ->
    Printf.sprintf "detected %s: latency %d at cycle %d via %s" v.name latency
      cycle output
  | Latent -> Printf.sprintf "latent   %s" v.name
  | Masked -> Printf.sprintf "masked   %s" v.name)
  ^ status_suffix v

let summary_string r =
  Printf.sprintf
    "fault campaign: %d faults over %d cycles: %d detected (%.1f%%), %d \
     latent, %d masked"
    r.total r.cycles r.detected
    (100.0 *. coverage_ratio r)
    r.latent r.masked

let to_string r =
  String.concat "\n"
    (summary_string r :: List.map (fun v -> "  " ^ verdict_to_string v) r.verdicts)

(* JSON: the [hydra faults --json] contract, pinned by a test. *)

let js = Hydra_analyze.Diagnostic.json_string

let verdict_to_json v =
  let model =
    match v.fault with
    | Stuck_at { site; value } ->
      Printf.sprintf "\"model\":\"stuck_at\",\"site\":%d,\"value\":%d" site
        (Bool.to_int value)
    | Seu { site; at_cycle } ->
      Printf.sprintf "\"model\":\"seu\",\"site\":%d,\"at_cycle\":%d" site
        at_cycle
    | Intermittent { site; rate; seed } ->
      Printf.sprintf "\"model\":\"intermittent\",\"site\":%d,\"rate\":%g,\"seed\":%d"
        site rate seed
  in
  let cls =
    match v.classification with
    | Detected { latency; cycle; output } ->
      Printf.sprintf "\"class\":\"detected\",\"latency\":%d,\"cycle\":%d,\"output\":%s"
        latency cycle (js output)
    | Latent -> "\"class\":\"latent\""
    | Masked -> "\"class\":\"masked\""
  in
  let status =
    if v.status = [] then ""
    else
      ",\"status\":{"
      ^ String.concat ","
          (List.map (fun (n, b) -> Printf.sprintf "%s:%b" (js n) b) v.status)
      ^ "}"
  in
  Printf.sprintf "{\"name\":%s,%s,%s%s}" (js v.name) model cls status

let to_json r =
  Printf.sprintf
    "{\"version\":1,\"total\":%d,\"detected\":%d,\"latent\":%d,\"masked\":%d,\"cycles\":%d,\"verdicts\":[%s]}"
    r.total r.detected r.latent r.masked r.cycles
    (String.concat "," (List.map verdict_to_json r.verdicts))
