(* The lane-parallel fault-campaign engine: force-mask injection
   equivalence with netlist rewriting, coverage bit-identity with the
   historic per-fault-recompile loop, fault classification (detected /
   latent / masked), the SEU and intermittent models, the ECC and CPU
   graceful-degradation demonstrations, and the pinned JSON contract. *)

open Util

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module W = Hydra_engine.Compiled_wide
module Sharded = Hydra_engine.Sharded
module Scheduler = Hydra_engine.Scheduler
module Fault = Hydra_verify.Fault
module C = Hydra_verify.Campaign
module Lint = Hydra_analyze.Lint
module D = Hydra_analyze.Diagnostic

let fig1 () =
  let a = G.input "a" and b = G.input "b" in
  N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ]

let ripple n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

(* out = dff(dff x): input effects need two observation cycles to reach
   the output, so cycles_per_vector matters. *)
let two_stage () =
  let x = G.input "x" in
  N.of_graph ~outputs:[ ("y", G.dff (G.dff x)) ]

(* The secded catalogue circuit: SECDED-protected register next to an
   unprotected two-stage pipeline over the same 4 data inputs. *)
let secded () =
  let module E = Hydra_circuits.Ecc.Protected (G) in
  let data = List.init 4 (fun i -> G.input (Printf.sprintf "d%d" i)) in
  let dec, single, double = E.secded_reg data in
  let plain = E.plain_pipeline data in
  N.of_graph
    ~outputs:
      (List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) dec
      @ [ ("single", single); ("double", double) ]
      @ List.mapi (fun i s -> (Printf.sprintf "u%d" i, s)) plain)

let classification_of report fault =
  let v = List.find (fun v -> v.C.fault = fault) report.C.verdicts in
  v.C.classification

let is_detected = function C.Detected _ -> true | C.Latent | C.Masked -> false

let check_cov_equal name (a : Fault.coverage) (b : Fault.coverage) =
  check_int (name ^ ": total") a.Fault.total b.Fault.total;
  check_int (name ^ ": detected") a.Fault.detected b.Fault.detected;
  check_bool (name ^ ": undetected lists") true
    (a.Fault.undetected = b.Fault.undetected)

(* ---- the fixed-pass oracle ----

   The campaign loop as it was before lane refill: every fault of a
   61-fault pass runs all [cycles] cycles beside a golden lane 0 of the
   same wide engine, and the pass is classified at its end.  Kept here
   as the reference the lane-refill loop must reproduce verdict for
   verdict. *)
let fixed_pass_run ?(status_outputs = []) nl ~faults ~stimulus ~cycles =
  let sim = W.create ~optimize:false ~relayout:false ~fuse:false nl in
  let streams =
    Array.of_list
      (List.map
         (fun (name, site) ->
           let words = Array.make (max cycles 1) 0 in
           (match List.assoc_opt name stimulus with
           | None -> ()
           | Some bits ->
             List.iteri
               (fun c b -> if c < cycles && b then words.(c) <- W.lane_mask)
               bits);
           (site, words))
         nl.N.inputs)
  in
  let status_sites =
    Array.of_list
      (List.map (fun name -> (name, List.assoc name nl.N.outputs)) status_outputs)
  in
  let compare_sites =
    Array.of_list
      (List.filter (fun (name, _) -> not (List.mem name status_outputs)) nl.N.outputs)
  in
  let dffs = Array.of_list (C.dff_sites nl) in
  let faults_arr = Array.of_list faults in
  let nfaults = Array.length faults_arr in
  let verdicts = Array.make nfaults None in
  let run_pass lo hi =
    let count = hi - lo in
    let bit_of k = 1 lsl (k + 1) in
    let live = ref 0 in
    for k = 0 to count - 1 do
      live := !live lor bit_of k
    done;
    W.clear_forces sim;
    W.reset sim;
    let forces = ref [] and seus = ref [] and inters = ref [] in
    for k = 0 to count - 1 do
      let force site =
        let f = { W.f_site = site; force0 = 0; force1 = 0; flip = 0 } in
        forces := f :: !forces;
        f
      in
      match faults_arr.(lo + k) with
      | C.Stuck_at { site; value } ->
        let f = force site in
        if value then f.W.force1 <- bit_of k else f.W.force0 <- bit_of k
      | C.Seu { site; at_cycle } -> seus := (at_cycle, site, bit_of k) :: !seus
      | C.Intermittent { site; rate; seed } ->
        inters := (force site, bit_of k, rate, Random.State.make [| seed; site |]) :: !inters
    done;
    W.set_forces sim (Array.of_list (List.rev !forces));
    let inters = List.rev !inters in
    let det_cycle = Array.make (max count 1) (-1) in
    let det_out = Array.make (max count 1) "" in
    let undet = ref !live in
    let status_acc = Array.make (Array.length status_sites) 0 in
    for cycle = 0 to cycles - 1 do
      Array.iter (fun (site, svs) -> W.poke sim site svs.(cycle)) streams;
      List.iter
        (fun (c, site, bit) ->
          if c = cycle then W.poke sim site (W.peek sim site lxor bit))
        !seus;
      List.iter
        (fun (f, bit, rate, st) ->
          f.W.flip <- (if Random.State.float st 1.0 < rate then bit else 0))
        inters;
      W.settle sim;
      Array.iter
        (fun (oname, osite) ->
          let gext = -(W.peek sim osite land 1) in
          let diff = (W.peek sim osite lxor gext) land !undet in
          for k = 0 to count - 1 do
            if diff land bit_of k <> 0 then begin
              det_cycle.(k) <- cycle;
              det_out.(k) <- oname
            end
          done;
          undet := !undet land lnot diff)
        compare_sites;
      Array.iteri
        (fun si (_, ssite) -> status_acc.(si) <- status_acc.(si) lor W.peek sim ssite)
        status_sites;
      W.tick sim
    done;
    let state_diff =
      Array.fold_left
        (fun acc site ->
          acc lor ((W.peek sim site lxor -(W.peek sim site land 1)) land !live))
        0 dffs
    in
    for k = 0 to count - 1 do
      let fault = faults_arr.(lo + k) in
      let classification =
        if det_cycle.(k) >= 0 then
          let injection = match fault with C.Seu { at_cycle; _ } -> at_cycle | _ -> 0 in
          C.Detected
            { latency = det_cycle.(k) - injection; cycle = det_cycle.(k); output = det_out.(k) }
        else if state_diff land bit_of k <> 0 then C.Latent
        else C.Masked
      in
      let status =
        Array.to_list
          (Array.mapi (fun si (sname, _) -> (sname, status_acc.(si) land bit_of k <> 0)) status_sites)
      in
      verdicts.(lo + k) <- Some { C.fault; name = C.fault_name nl fault; classification; status }
    done;
    W.clear_forces sim
  in
  let per_pass = W.lanes - 1 in
  let lo = ref 0 in
  while !lo < nfaults do
    run_pass !lo (min nfaults (!lo + per_pass));
    lo := !lo + per_pass
  done;
  Array.to_list (Array.map Option.get verdicts)

(* Random sequential circuits for the oracle comparison: gates, plain
   dffs, constants and xor-accumulator registers (feedback loops, so
   upsets can stay latent), over three inputs. *)
type node = Ninv | Nand | Nor | Nxor | Ndff | Nconst of bool | Nacc

let gen_circuit =
  QCheck2.Gen.(
    list_size (int_range 2 24)
      (triple
         (frequency
            [ (3, oneofl [ Ninv; Nand; Nor; Nxor ]); (2, return Ndff);
              (1, map (fun b -> Nconst b) bool); (1, return Nacc) ])
         (int_bound 1000) (int_bound 1000)))

let circuit_netlist nodes =
  let ins = [ G.input "a"; G.input "b"; G.input "c" ] in
  let pool = ref (Array.of_list ins) in
  List.iter
    (fun (op, s1, s2) ->
      let arr = !pool in
      let a = arr.(s1 mod Array.length arr) and b = arr.(s2 mod Array.length arr) in
      let v =
        match op with
        | Ninv -> G.inv a
        | Nand -> G.and2 a b
        | Nor -> G.or2 a b
        | Nxor -> G.xor2 a b
        | Ndff -> G.dff a
        | Nconst v -> G.and2 a (G.constant v)
        | Nacc -> G.feedback (fun q -> G.dff (G.xor2 q a))
      in
      pool := Array.append arr [| v |])
    nodes;
  let arr = !pool in
  let n = Array.length arr in
  N.extract ~inputs:ins
    ~outputs:(List.init (min 3 n) (fun i -> (Printf.sprintf "o%d" i, arr.(n - 1 - i))))

(* Every fault model on every site kind a campaign accepts: stuck-at on
   gates, dffs, inports and constants; SEUs before, inside and past the
   window; intermittents.  Sampled with repetition, so the list is long
   enough to refill lanes and leave a partial last chunk. *)
let random_faults nl ~cycles st n =
  let sites = Array.init (N.size nl) Fun.id in
  let faultable =
    Array.of_list
      (List.filter
         (fun i -> match nl.N.components.(i) with N.Outport _ -> false | _ -> true)
         (Array.to_list sites))
  in
  let dffs = Array.of_list (C.dff_sites nl) in
  List.init n (fun _ ->
      let pick a = a.(Random.State.int st (Array.length a)) in
      match Random.State.int st 4 with
      | 0 when Array.length dffs > 0 ->
        C.Seu { site = pick dffs; at_cycle = Random.State.int st (cycles + 3) - 1 }
      | 1 ->
        C.Intermittent
          { site = pick faultable; rate = Random.State.float st 1.0; seed = Random.State.bits st }
      | _ -> C.Stuck_at { site = pick faultable; value = Random.State.bool st })

let refill_case =
  QCheck2.Gen.(
    quad gen_circuit (oneofl [ 0; 1; 2; 5; 16 ]) (int_range 1 600) (pair int bool))

let shared_scheduler = lazy (Scheduler.create ~domains:2 ())

let suite =
  [
    (* ---- force masks vs netlist rewriting ---- *)
    tc "campaign: stuck-at force matches Fault.inject per cycle" (fun () ->
        let nl = fig1 () in
        let vectors = Hydra_core.Bit.vectors 2 in
        let good = Fault.response nl ~vectors ~cycles_per_vector:1 in
        List.iter
          (fun f ->
            let bad =
              Fault.response (Fault.inject nl f) ~vectors ~cycles_per_vector:1
            in
            let stimulus, cycles = C.stimulus_of_vectors nl vectors in
            let report =
              C.run nl
                ~faults:
                  [ C.Stuck_at { site = f.Fault.site; value = f.Fault.stuck } ]
                ~stimulus ~cycles
            in
            check_bool (Fault.fault_name nl f) (bad <> good)
              (is_detected (List.hd report.C.verdicts).C.classification))
          (Fault.all_faults nl));
    tc "campaign: set_forces rejects fused engines and bad sites" (fun () ->
        let nl = ripple 8 in
        let fused = W.create nl in
        Alcotest.check_raises "fused"
          (Invalid_argument
             "Compiled_wide.set_forces: requires an engine built with \
              ~fuse:false")
          (fun () -> W.set_forces fused [| { W.f_site = 1; force0 = 0; force1 = 2; flip = 0 } |]);
        let sim = W.create ~optimize:false ~relayout:false ~fuse:false nl in
        let n = N.size nl in
        Alcotest.check_raises "site range"
          (Invalid_argument
             (Printf.sprintf
                "Compiled_wide.set_forces: force site %d out of range (netlist \
                 has %d components)"
                n n))
          (fun () ->
            W.set_forces sim
              [| { W.f_site = n; force0 = 0; force1 = 2; flip = 0 } |]);
        Alcotest.check_raises "negative site"
          (Invalid_argument
             (Printf.sprintf
                "Compiled_wide.set_forces: force site -1 out of range (netlist \
                 has %d components)"
                n))
          (fun () ->
            W.set_forces sim
              [| { W.f_site = -1; force0 = 0; force1 = 0; flip = 1 } |]));
    (* ---- coverage bit-identity ---- *)
    tc "campaign: coverage bit-identical to recompile loop (combinational)"
      (fun () ->
        List.iter
          (fun (name, nl, inputs) ->
            let vectors = Fault.random_vectors ~seed:3 ~inputs 24 in
            check_cov_equal name
              (Fault.coverage_recompile nl ~vectors)
              (Fault.coverage nl ~vectors))
          [
            ("fig1", fig1 (), 2);
            (* 124 faults: exercises >61-fault chunking over domains *)
            ("ripple8", ripple 8, 16);
          ]);
    tc "campaign: coverage bit-identical on a sequential circuit, cpv=2"
      (fun () ->
        let nl = two_stage () in
        let vectors = Fault.random_vectors ~seed:5 ~inputs:1 12 in
        check_cov_equal "two_stage"
          (Fault.coverage_recompile nl ~vectors ~cycles_per_vector:2)
          (Fault.coverage nl ~vectors ~cycles_per_vector:2));
    tc "campaign: sharded reuse matches one-shot runs" (fun () ->
        let nl = ripple 8 in
        let sh = Sharded.create ~optimize:false ~relayout:false ~fuse:false nl in
        Fun.protect
          ~finally:(fun () -> Sharded.shutdown sh)
          (fun () ->
            let faults = C.all_stuck_at nl in
            let stimulus = C.random_stimulus ~seed:11 ~cycles:20 nl in
            let once = C.run nl ~faults ~stimulus ~cycles:20 in
            let shared1 = C.run ~sharded:sh nl ~faults ~stimulus ~cycles:20 in
            let shared2 = C.run ~sharded:sh nl ~faults ~stimulus ~cycles:20 in
            check_bool "first shared run" true
              (once.C.verdicts = shared1.C.verdicts);
            check_bool "second shared run (replica state cleared)" true
              (once.C.verdicts = shared2.C.verdicts);
            Alcotest.check_raises "foreign netlist rejected"
              (Invalid_argument
                 "Campaign.run: sharded engine compiled from a different \
                  netlist (build it with ~optimize:false ~relayout:false \
                  ~fuse:false on the campaign netlist)")
              (fun () ->
                ignore
                  (C.run ~sharded:sh (fig1 ())
                     ~faults:[ C.Stuck_at { site = 1; value = true } ]
                     ~stimulus:[] ~cycles:1))));
    (* ---- generate_tests: cycles_per_vector threading (the old bug) ---- *)
    tc "campaign: generate_tests threads cycles_per_vector" (fun () ->
        let nl = two_stage () in
        (* a dff output fault needs 2 cycles of observation per vector to
           show at the output before the next vector overwrites stage 1 *)
        let vectors, cov2 =
          Fault.generate_tests ~seed:1 ~batch:4 ~max_vectors:32
            ~cycles_per_vector:2 nl
        in
        (* the returned coverage is exactly coverage at the same cpv *)
        check_cov_equal "returned = recomputed"
          (Fault.coverage nl ~vectors ~cycles_per_vector:2)
          cov2;
        (* and the old bug is gone: grading at cpv=1 would disagree *)
        let cov1 = Fault.coverage nl ~vectors ~cycles_per_vector:1 in
        check_bool "cpv=2 detects at least as much" true
          (cov2.Fault.detected >= cov1.Fault.detected));
    tc "campaign: generate_tests default grading unchanged" (fun () ->
        (* pre-rewire behaviour at the default cpv, pinned on an adder *)
        let nl = ripple 4 in
        let vectors, cov = Fault.generate_tests ~seed:42 ~target:0.95 nl in
        check_cov_equal "consistent with coverage"
          (Fault.coverage nl ~vectors) cov;
        check_bool "95%+ reached" true (Fault.ratio cov >= 0.95));
    (* ---- satellite: injected netlists validate and lint ---- *)
    tc "campaign: injected netlist validates; lint reports dead-logic"
      (fun () ->
        let nl = fig1 () in
        List.iter
          (fun f ->
            let bad = Fault.inject nl f in
            (match N.validate bad with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("validate: " ^ e));
            (* the faulted site still evaluates but drives nothing *)
            let diags = Lint.run bad in
            check_bool
              (Fault.fault_name nl f ^ ": dead-logic reported")
              true
              (List.exists (fun d -> d.D.rule = "dead-logic") diags))
          (Fault.all_faults nl));
    (* ---- satellite: SEU before reset completes vs power-up X ---- *)
    tc "campaign: SEU inside the power-up X window is not double-counted"
      (fun () ->
        let nl = two_stage () in
        (* establish the X window with the ternary simulator: both dffs
           unknown at power-up, known only after two steps *)
        let xs = Hydra_engine.Xsim.create ~respect_init:false nl in
        Hydra_engine.Xsim.set_input_bool xs "x" true;
        check_int "both dffs X at cycle 0" 2 (Hydra_engine.Xsim.unknown_dffs xs);
        Hydra_engine.Xsim.step xs;
        check_int "stage 2 still X at cycle 1" 1
          (Hydra_engine.Xsim.unknown_dffs xs);
        (* the output dff is the outport's driver *)
        let out_dff = nl.N.fanin.(List.assoc "y" nl.N.outputs).(0) in
        let stimulus = [ ("x", [ true; true; true; true; true; true ]) ] in
        let in_window = C.Seu { site = out_dff; at_cycle = 0 } in
        let after_window = C.Seu { site = out_dff; at_cycle = 3 } in
        let report =
          C.run nl ~faults:[ in_window; after_window ] ~stimulus ~cycles:6
        in
        (* exactly one verdict per scheduled fault — the two-valued
           campaign powers up from declared inits, so an upset inside the
           X window is one ordinary flip, not an extra power-up unknown *)
        check_int "one verdict per fault" 2 report.C.total;
        (match (classification_of report in_window,
                classification_of report after_window) with
        | C.Detected { latency = l0; _ }, C.Detected { latency = l3; _ } ->
          check_int "same latency in and out of the X window" l0 l3
        | _ -> Alcotest.fail "both upsets must be detected"));
    (* ---- classification semantics ---- *)
    tc "campaign: latent vs masked split on an unread register" (fun () ->
        (* y = dff(x), plus a self-holding register that never reaches y *)
        let x = G.input "x" in
        let dead = G.feedback (fun q -> G.dff q) in
        let live = G.dff x in
        (* keep [dead] in the netlist by routing it through an and with
           constant 0: y = live or (dead and 0) = live *)
        let y = G.or2 live (G.and2 dead G.zero) in
        let nl = N.of_graph ~outputs:[ ("y", y) ] in
        let dffs = C.dff_sites nl in
        check_int "two dffs" 2 (List.length dffs);
        let stimulus = [ ("x", [ true; true; false; true ]) ] in
        let faults = C.all_seu ~at_cycle:1 nl in
        let report = C.run nl ~faults ~stimulus ~cycles:4 in
        (* the self-holding dff keeps its upset forever but never reaches
           y: latent.  Upsetting the live dff shows at y the same cycle:
           detected. *)
        let classes =
          List.map (fun v -> C.class_string v.C.classification) report.C.verdicts
        in
        check_bool "one latent, one detected" true
          (List.sort compare classes = [ "detected"; "latent" ]));
    tc "campaign: SEU scheduled past the window is masked" (fun () ->
        let nl = two_stage () in
        let dff = List.hd (C.dff_sites nl) in
        let report =
          C.run nl
            ~faults:[ C.Seu { site = dff; at_cycle = 50 } ]
            ~stimulus:[ ("x", [ true; true ]) ]
            ~cycles:2
        in
        check_string "masked" "masked"
          (C.class_string (List.hd report.C.verdicts).C.classification));
    (* ---- intermittent model ---- *)
    tc "campaign: intermittent rate 1.0 detects, rate 0.0 masks" (fun () ->
        let nl = fig1 () in
        (* site 1 is the inv gate (inport a = 0) *)
        let stimulus, cycles =
          C.stimulus_of_vectors nl (Hydra_core.Bit.vectors 2)
        in
        let r1 =
          C.run nl
            ~faults:[ C.Intermittent { site = 1; rate = 1.0; seed = 9 } ]
            ~stimulus ~cycles
        in
        check_bool "always flipping is detected" true
          (is_detected (List.hd r1.C.verdicts).C.classification);
        let r0 =
          C.run nl
            ~faults:[ C.Intermittent { site = 1; rate = 0.0; seed = 9 } ]
            ~stimulus ~cycles
        in
        check_string "never flipping is masked" "masked"
          (C.class_string (List.hd r0.C.verdicts).C.classification));
    tc "campaign: intermittent verdict independent of chunk placement"
      (fun () ->
        let nl = ripple 8 in
        let stimulus = C.random_stimulus ~seed:2 ~cycles:16 nl in
        let im = C.Intermittent { site = 20; rate = 0.5; seed = 33 } in
        let alone =
          (List.hd (C.run nl ~faults:[ im ] ~stimulus ~cycles:16).C.verdicts)
            .C.classification
        in
        (* same fault rides in the second chunk of a 124-fault campaign *)
        let packed = C.all_stuck_at nl @ [ im ] in
        let big = C.run nl ~faults:packed ~stimulus ~cycles:16 in
        let last = List.nth big.C.verdicts (big.C.total - 1) in
        check_string "same classification" (C.class_string alone)
          (C.class_string last.C.classification));
    (* ---- replay ---- *)
    tc "campaign: replay reproduces every verdict" (fun () ->
        let nl = ripple 4 in
        let stimulus = C.random_stimulus ~seed:21 ~cycles:12 nl in
        let report =
          C.run nl ~faults:(C.all_stuck_at nl) ~stimulus ~cycles:12
        in
        List.iter
          (fun v ->
            let again = C.replay report v.C.fault in
            check_bool (v.C.name ^ " replays identically") true
              (again.C.classification = v.C.classification))
          report.C.verdicts);
    (* ---- ECC graceful degradation (the acceptance demo) ---- *)
    tc "campaign: SECDED masks every codeword SEU, bare pipeline diverges"
      (fun () ->
        let nl = secded () in
        let stimulus = C.random_stimulus ~seed:17 ~cycles:8 nl in
        let report =
          C.run nl
            ~status_outputs:[ "single"; "double" ]
            ~faults:(C.all_seu ~at_cycle:3 nl)
            ~stimulus ~cycles:8
        in
        (* 8 codeword dffs + 8 pipeline dffs *)
        check_int "16 dffs swept" 16 report.C.total;
        let masked, detected =
          List.partition
            (fun v -> v.C.classification = C.Masked)
            report.C.verdicts
        in
        check_int "codeword upsets all masked" 8 (List.length masked);
        check_int "pipeline upsets all detected" 8 (List.length detected);
        List.iter
          (fun v ->
            check_bool (v.C.name ^ ": error_detected asserted") true
              (List.assoc "single" v.C.status);
            check_bool (v.C.name ^ ": not a double error") false
              (List.assoc "double" v.C.status))
          masked;
        let latencies =
          List.filter_map
            (fun v ->
              match v.C.classification with
              | C.Detected { latency; output; _ } ->
                (* divergence must surface on the unprotected copy *)
                check_bool (v.C.name ^ " via u output") true
                  (String.length output > 0 && output.[0] = 'u');
                Some latency
              | _ -> None)
            detected
        in
        (* stage-2 upsets show the same cycle, stage-1 one cycle later *)
        check_int_list "latencies 0 and 1, four each" [ 0; 0; 0; 0; 1; 1; 1; 1 ]
          (List.sort compare latencies));
    (* ---- CPU campaign against the golden execution ---- *)
    tc "campaign: program_stimulus reproduces run_structural's halt cycle"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let module Driver = Hydra_cpu.Driver in
        let program =
          Asm.assemble
            "  ldval R1,3[R0]\n\
            \  ldval R2,4[R0]\n\
            \  add R3,R1,R2\n\
            \  store R3,result[R0]\n\
            \  halt\n\
             result: data 0\n"
        in
        let res = Driver.run_structural ~mem_bits:6 program in
        check_bool "reference run halts" true res.Driver.halted;
        let stimulus, cycles =
          Driver.program_stimulus ~mem_bits:6 ~max_cycles:200 program
        in
        let nl = Driver.system_netlist ~mem_bits:6 () in
        let sim = W.create ~optimize:false ~relayout:false ~fuse:false nl in
        let first_halt = ref (-1) in
        List.iteri
          (fun cycle _ ->
            if !first_halt < 0 && cycle < cycles then begin
              List.iter
                (fun (port, bits) ->
                  W.set_input_bool sim port
                    (match List.nth_opt bits cycle with
                    | Some b -> b
                    | None -> false))
                stimulus;
              W.settle sim;
              if W.output_lane sim "halted" 0 then first_halt := cycle;
              W.tick sim
            end)
          (List.init cycles Fun.id);
        check_int "halt cycle = run_structural cycles + program length"
          (res.Driver.cycles + List.length program)
          !first_halt);
    tc "campaign: CPU SEUs — pc upset detected, cold memory cell latent"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let module Driver = Hydra_cpu.Driver in
        let program =
          Asm.assemble
            "  ldval R1,0[R0]\n\
             loop: ldval R2,1[R0]\n\
            \  add R1,R1,R2\n\
            \  cmpeq R3,R1,R0\n\
            \  jumpf R3,loop2[R0]\n\
             loop2: cmpeq R3,R1,R0\n\
            \  halt\n"
        in
        let len = List.length program in
        let res = Driver.run_structural ~mem_bits:6 program in
        check_bool "golden halts" true res.Driver.halted;
        let stimulus, cycles =
          Driver.program_stimulus ~mem_bits:6 ~max_cycles:100 program
        in
        let nl = Driver.system_netlist ~mem_bits:6 () in
        (* inject while the program is executing *)
        let at_cycle = len + 2 in
        check_bool "injection before halt" true
          (at_cycle < len + res.Driver.cycles);
        (* the dff driving the pc0 outport is a pc register bit *)
        let pc0 = nl.N.fanin.(List.assoc "pc0" nl.N.outputs).(0) in
        check_bool "pc0 is dff-driven"
          (match nl.N.components.(pc0) with N.Dffc _ -> true | _ -> false)
          true;
        let faults = [ C.Seu { site = pc0; at_cycle } ] in
        let report = C.run nl ~faults ~stimulus ~cycles in
        (match (List.hd report.C.verdicts).C.classification with
        | C.Detected { latency; output; _ } ->
          check_int "pc divergence is immediate" 0 latency;
          check_string "seen on the pc outputs" "pc0" output
        | c ->
          Alcotest.fail ("pc upset should be detected, got " ^ C.class_string c));
        (* memory cells beyond the program are loaded by nothing, read by
           nothing: an upset there persists silently *)
        let sample_dffs =
          (* the structural RAM dominates the dff population; sample a
             spread and require some latent verdicts *)
          let all = Array.of_list (C.dff_sites nl) in
          List.init 24 (fun i ->
              C.Seu
                {
                  site = all.(Array.length all - 1 - (i * 7));
                  at_cycle;
                })
        in
        let r2 = C.run nl ~faults:sample_dffs ~stimulus ~cycles in
        check_bool "some upsets stay latent" true (r2.C.latent > 0));
    (* ---- renderers ---- *)
    tc "campaign: JSON report shape is pinned" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("y", G.dff x) ] in
        let faults =
          [ C.Stuck_at { site = 1; value = true }; C.Seu { site = 1; at_cycle = 1 } ]
        in
        let stimulus = [ ("x", [ false; false; true ]) ] in
        let report = C.run nl ~faults ~stimulus ~cycles:3 in
        check_string "json"
          "{\"version\":1,\"total\":2,\"detected\":2,\"latent\":0,\"masked\":0,\"cycles\":3,\"verdicts\":[{\"name\":\"dff#1 stuck-at-1\",\"model\":\"stuck_at\",\"site\":1,\"value\":1,\"class\":\"detected\",\"latency\":0,\"cycle\":0,\"output\":\"y\"},{\"name\":\"dff#1 seu@1\",\"model\":\"seu\",\"site\":1,\"at_cycle\":1,\"class\":\"detected\",\"latency\":0,\"cycle\":1,\"output\":\"y\"}]}"
          (C.to_json report);
        check_string "summary"
          "fault campaign: 2 faults over 3 cycles: 2 detected (100.0%), 0 \
           latent, 0 masked"
          (C.summary_string report));
    tc "campaign: run validates fault descriptors" (fun () ->
        let nl = fig1 () in
        Alcotest.check_raises "seu on a gate"
          (Invalid_argument "Campaign.run: SEU site 1 is not a dff") (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Seu { site = 1; at_cycle = 0 } ]
                 ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "rate out of range"
          (Invalid_argument "Campaign.run: intermittent rate outside [0,1]")
          (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Intermittent { site = 1; rate = 1.5; seed = 0 } ]
                 ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "unknown stimulus port"
          (Invalid_argument "Campaign.run: stimulus for unknown input zz")
          (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Stuck_at { site = 1; value = true } ]
                 ~stimulus:[ ("zz", [ true ]) ]
                 ~cycles:1)));
    (* ---- the slab-backed campaign: more than 61 faults per pass ---- *)
    tc "campaign: slab engine verdicts = wide engine verdicts" (fun () ->
        let nl = secded () in
        let stimulus = C.random_stimulus ~seed:11 ~cycles:24 nl in
        (* a mixed fault list well past one wide chunk: every stuck-at,
           every SEU, and a few intermittents *)
        let faults =
          C.all_stuck_at nl
          @ C.all_seu ~at_cycle:3 nl
          @ List.map
              (fun (site, seed) -> C.Intermittent { site; rate = 0.4; seed })
              [ (1, 7); (3, 8); (5, 9) ]
        in
        check_bool "more than one wide chunk" true (List.length faults > 61);
        let wide =
          C.run ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
            ~cycles:24
        in
        List.iter
          (fun k ->
            let slab =
              C.run ~engine:(`Slab k)
                ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
                ~cycles:24
            in
            check_int (Printf.sprintf "k=%d detected" k) wide.C.detected
              slab.C.detected;
            check_bool
              (Printf.sprintf "k=%d verdicts bit-identical" k)
              true
              (wide.C.verdicts = slab.C.verdicts))
          [ 1; 2; 4 ];
        (* cluster gating composes with the campaign's forces: same
           verdicts, bit for bit *)
        let gated =
          C.run ~engine:(`Slab 2) ~gating:true
            ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
            ~cycles:24
        in
        check_bool "gated verdicts bit-identical" true
          (wide.C.verdicts = gated.C.verdicts);
        (* k=4 fits the whole list in a single engine pass *)
        check_bool "fits one slab pass" true (List.length faults <= (62 * 4) - 1));
    tc "campaign: slab engine option validation" (fun () ->
        let nl = fig1 () in
        let faults = [ C.Stuck_at { site = 1; value = true } ] in
        Alcotest.check_raises "k < 1"
          (Invalid_argument "Campaign.run: slab k must be >= 1") (fun () ->
            ignore (C.run ~engine:(`Slab 0) nl ~faults ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "gating on wide"
          (Invalid_argument "Campaign.run: ?gating requires ~engine:(`Slab k)")
          (fun () ->
            ignore (C.run ~gating:true nl ~faults ~stimulus:[] ~cycles:1));
        let sh =
          Sharded.create ~optimize:false ~relayout:false ~fuse:false nl
        in
        Alcotest.check_raises "sharded + slab"
          (Invalid_argument
             "Campaign.run: ?sharded reuses a wide engine; pass ?domains with \
              ~engine:(`Slab k) instead")
          (fun () ->
            ignore
              (C.run ~sharded:sh ~engine:(`Slab 2) nl ~faults ~stimulus:[]
                 ~cycles:1));
        Sharded.shutdown sh);
    (* ---- lane refill ---- *)
    tc "campaign: negative cycle counts are rejected" (fun () ->
        let nl = fig1 () in
        Alcotest.check_raises "run"
          (Invalid_argument "Campaign.run: cycles must be >= 0") (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Stuck_at { site = 1; value = true } ]
                 ~stimulus:[] ~cycles:(-1)));
        Alcotest.check_raises "random_stimulus"
          (Invalid_argument "Campaign.random_stimulus: cycles must be >= 0")
          (fun () -> ignore (C.random_stimulus ~seed:1 ~cycles:(-3) nl)));
    qc ~count:100 "campaign: lane refill reproduces the fixed-pass loop"
      refill_case (fun (nodes, cycles, nfaults, (seed, with_status)) ->
        let nl = circuit_netlist nodes in
        let faults =
          random_faults nl ~cycles (Random.State.make [| seed |]) nfaults
        in
        let stimulus = C.random_stimulus ~seed ~cycles nl in
        let status_outputs = if with_status then [ "o0" ] else [] in
        let oracle =
          fixed_pass_run ~status_outputs nl ~faults ~stimulus ~cycles
        in
        let sh = Sharded.create ~optimize:false ~relayout:false ~fuse:false nl in
        let sch = Lazy.force shared_scheduler in
        let agrees ?scheduler ?sharded ?domains ?gating engine =
          (C.run ?scheduler ?sharded ?domains ~engine ?gating ~status_outputs
             nl ~faults ~stimulus ~cycles)
            .C.verdicts
          = oracle
        in
        let ok =
          agrees `Wide
          && agrees ~domains:2 `Wide
          && agrees ~sharded:sh `Wide
          && agrees ~scheduler:sch `Wide
          && List.for_all
               (fun k ->
                 agrees ~domains:1 (`Slab k)
                 && agrees ~gating:true (`Slab k)
                 && agrees ~domains:2 (`Slab k)
                 && agrees ~scheduler:sch ~gating:true (`Slab k))
               [ 1; 2; 4 ]
        in
        Sharded.shutdown sh;
        ok);
  ]
