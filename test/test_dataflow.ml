(* Tests for Hydra_analyze.Dataflow and its clients: the generic
   worklist solver, sequential constant propagation (stuck registers),
   definitive reaching-X, backward observability, equivalence classes,
   the certified Sweep optimizer (including a seeded wrong sweep that
   must be refuted with a replayable counterexample), Bmc invariant
   pruning, Ternary lattice laws, SARIF export, and an independent
   wide-engine falsification of every analysis verdict. *)

open Util
module N = Hydra_netlist.Netlist
module Optimize = Hydra_netlist.Optimize
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module D = Hydra_analyze.Diagnostic
module Dataflow = Hydra_analyze.Dataflow
module Sweep = Hydra_analyze.Sweep
module Certify = Hydra_analyze.Certify
module Lint = Hydra_analyze.Lint
module Sim = Hydra_analyze.Sim
module Wide = Hydra_engine.Compiled_wide
module Bmc = Hydra_verify.Bmc

let mk = Test_analyze.mk

(* Fixtures ------------------------------------------------------------- *)

(* dff#1 reloads and2(dff, a): since it powers up at 0 the and gate is
   pinned at 0 and the register provably never leaves reset — a
   *sequential* constant invisible to the structural const-dff rule *)
let fx_stuck =
  mk
    [| N.Inport "a"; N.Dffc false; N.And2c; N.Outport "q" |]
    [| [||]; [| 2 |]; [| 1; 0 |]; [| 1 |] |]

(* dff#1 just delays the input: not stuck *)
let fx_toggle =
  mk
    [| N.Inport "a"; N.Dffc false; N.Outport "q" |]
    [| [||]; [| 0 |]; [| 1 |] |]

(* dff#1 powers up 0 but reloads const 1: constant after one tick, yet
   NOT sequentially stuck (its trace is 0,1,1,... — join(F,T) = X) *)
let fx_reload =
  mk
    [| N.Constant true; N.Dffc false; N.Outport "q" |]
    [| [||]; [| 0 |]; [| 1 |] |]

(* dff#0 holds itself: the power-up X survives forever *)
let fx_hold = mk [| N.Dffc false; N.Outport "q" |] [| [| 0 |]; [| 0 |] |]

(* two-stage pipe from the input: power-up X flushes after two ticks *)
let fx_flush =
  mk
    [| N.Inport "a"; N.Dffc false; N.Dffc false; N.Outport "q" |]
    [| [||]; [| 0 |]; [| 1 |]; [| 2 |] |]

(* inv#1 feeds only and2#3 whose other leg is constant 0: the and gate
   is a known constant, so the inverter is live yet never observable *)
let fx_masked =
  mk
    [| N.Inport "a"; N.Invc; N.Constant false; N.And2c; N.Or2c;
       N.Outport "x" |]
    [| [||]; [| 0 |]; [||]; [| 1; 2 |]; [| 3; 0 |]; [| 4 |] |]

(* and2#3 commutes and2#2's legs; dff#4/dff#5 latch the twins: two
   provable equivalence classes *)
let fx_dup =
  mk
    [| N.Inport "a"; N.Inport "b"; N.And2c; N.And2c; N.Dffc false;
       N.Dffc false; N.Xor2c; N.Outport "q" |]
    [| [||]; [||]; [| 0; 1 |]; [| 1; 0 |]; [| 2 |]; [| 3 |]; [| 4; 5 |];
       [| 6 |] |]

(* plain inverter pipe — the victim for the seeded bad sweep *)
let fx_inv =
  mk [| N.Inport "a"; N.Invc; N.Outport "x" |] [| [||]; [| 0 |]; [| 1 |] |]

(* ok = inv(stuck dff): holds at every cycle, with one provably-stuck
   state bit for Bmc to assume away *)
let fx_bmc =
  mk
    [| N.Inport "a"; N.Dffc false; N.And2c; N.Invc; N.Outport "ok" |]
    [| [||]; [| 2 |]; [| 1; 0 |]; [| 1 |]; [| 3 |] |]

let gen_ternary = QCheck2.Gen.oneofl [ T.F; T.T; T.X ]

(* 62 random lanes for the wide engine *)
let random_word rs =
  Int64.to_int (Random.State.int64 rs Int64.max_int) land Wide.lane_mask

(* Drive an un-optimized, un-relayouted, un-fused wide engine (so peek
   indices are netlist component indices) with random inputs and verify
   every Dataflow verdict against the concrete lanes: claimed constants
   never toggle, class members carry equal words.  An independent
   falsification of the analysis on a *different* simulator than
   Dataflow.crosscheck uses. *)
let wide_falsify ?(cycles = 16) ?(seed = 0xbead) df =
  let nl = Dataflow.netlist df in
  let w = Wide.create ~optimize:false ~relayout:false ~fuse:false nl in
  let rs = Random.State.make [| seed |] in
  let consts = Dataflow.constant_components df in
  let classes = Dataflow.classes df in
  for cycle = 0 to cycles - 1 do
    List.iter
      (fun (name, _) -> Wide.set_input w name (random_word rs))
      nl.N.inputs;
    Wide.settle w;
    List.iter
      (fun (i, b) ->
        let want = if b then Wide.lane_mask else 0 in
        if Wide.peek w i <> want then
          Alcotest.failf "component %d claimed constant %b, toggled at cycle %d"
            i b cycle)
      consts;
    List.iter
      (fun cls ->
        match cls with
        | rep :: rest ->
          let v = Wide.peek w rep in
          List.iter
            (fun j ->
              if Wide.peek w j <> v then
                Alcotest.failf
                  "class members %d and %d differ at cycle %d" rep j cycle)
            rest
        | [] -> ())
      classes;
    Wide.tick w
  done

(* Oracle comparison: every analysis and the worklist statistics of the
   flat [Dataflow] against [Dataflow_ref], the list-and-closure version
   it replaced.  [Some what] names the first result that differs. *)
module Ref = Dataflow_ref

let oracle_mismatch nl =
  let df = Dataflow.create nl and r = Ref.create nl in
  let stats l =
    List.map (fun (k, s) -> (k, s.Dataflow.visits, s.Dataflow.updates)) l
  in
  let ref_stats l =
    List.map (fun (k, s) -> (k, s.Ref.visits, s.Ref.updates)) l
  in
  List.find_map
    (fun (what, same) -> if same () then None else Some what)
    [
      ("constants", fun () -> Dataflow.constants df = Ref.constants r);
      ("reaching_x", fun () -> Dataflow.reaching_x df = Ref.reaching_x r);
      ("observable", fun () -> Dataflow.observable df = Ref.observable r);
      ("masked", fun () -> Dataflow.masked df = Ref.masked r);
      ("classes", fun () -> Dataflow.classes df = Ref.classes r);
      ( "stuck_registers",
        fun () -> Dataflow.stuck_registers df = Ref.stuck_registers r );
      ( "constant_components",
        fun () -> Dataflow.constant_components df = Ref.constant_components r );
      ( "reaching_x_outputs",
        fun () -> Dataflow.reaching_x_outputs df = Ref.reaching_x_outputs r );
      ("diagnostics", fun () -> Dataflow.diagnostics df = Ref.diagnostics r);
      ("stats", fun () -> stats (Dataflow.stats df) = ref_stats (Ref.stats r));
    ]

(* The flat evaluators against the closure ones: ternary settles in every
   mode, and packed words of every component over random cycles. *)
let sim_mismatch nl =
  let lv = Levelize.compute nl in
  let f = Sim.flatten nl lv in
  let ternary =
    List.for_all
      (fun (inputs, respect_init, cycles) ->
        Sim.ternary_values ~inputs ~respect_init ~cycles f
        = Ref.Sim.ternary_values ~inputs ~respect_init ~cycles nl lv)
      [ (T.X, false, 0); (T.X, true, 0); (T.F, false, 3); (T.T, true, 2) ]
  in
  if not ternary then Some "ternary_values"
  else if lv.Levelize.cyclic <> [] then None
  else begin
    let s = Sim.packed_create f and r = Ref.Sim.packed_create nl lv in
    let st = Random.State.make [| N.size nl |] in
    let same = ref true in
    for _ = 1 to 4 do
      List.iter
        (fun (name, _) ->
          let w = Hydra_core.Packed.random_word st in
          Sim.packed_set_input s name w;
          Ref.Sim.packed_set_input r name w)
        nl.N.inputs;
      Sim.packed_settle s;
      Ref.Sim.packed_settle r;
      for i = 0 to N.size nl - 1 do
        if Sim.packed_value s i <> Ref.Sim.packed_value r i then same := false
      done;
      Sim.packed_tick s;
      Ref.Sim.packed_tick r
    done;
    if !same then None else Some "packed"
  end

(* The path 0 -> 1 -> ... -> n-1 as solver successors. *)
let chain n =
  {
    Dataflow.off = Array.init (n + 1) (fun i -> min i (n - 1));
    dst = Array.init (n - 1) (fun i -> i + 1);
  }

(* ----------------------------------------------------------------------- *)

let suite =
  [
    (* --- the generic solver --- *)
    tc "solve: chain propagation reaches the fixpoint" (fun () ->
        let n = 5 in
        let reach, stats =
          Dataflow.solve ~succs:(chain n)
            ~transfer:(fun v i -> if i = 0 then 1 else v.(i - 1))
            (Array.make n 0)
        in
        check_bool "all reached" true (Array.for_all (fun b -> b = 1) reach);
        check_bool "visited at least n nodes" true (stats.Dataflow.visits >= n);
        check_bool "updates happened" true (stats.Dataflow.updates >= n - 1));
    tc "solve: frozen nodes keep their init and block flow" (fun () ->
        let n = 5 in
        let reach, _ =
          Dataflow.solve
            ~frozen:(Array.init n (fun i -> i = 2))
            ~succs:(chain n)
            ~transfer:(fun v i -> if i = 0 then 1 else v.(i - 1))
            (Array.make n 0)
        in
        check_bool_list "cut at the frozen node"
          [ true; true; false; false; false ]
          (Array.to_list (Array.map (fun b -> b = 1) reach)));
    (* --- sequential constant propagation --- *)
    tc "stuck register: and-gated reload loop is provably stuck" (fun () ->
        let df = Dataflow.create fx_stuck in
        check_bool "dff stuck at 0" true
          (Dataflow.stuck_registers df = [ (1, false) ]);
        check_bool "the and gate is constant too" true
          (List.mem (2, false) (Dataflow.constant_components df));
        let d =
          List.find
            (fun d -> d.D.rule = "stuck-register")
            (Dataflow.diagnostics df)
        in
        check_int_list "components" [ 1 ] d.D.components;
        check_bool "witness shows the value" true
          (List.mem "dff#1=0" d.D.witness));
    tc "toggling register is not stuck" (fun () ->
        check_bool "no stuck registers" true
          (Dataflow.stuck_registers (Dataflow.create fx_toggle) = []));
    tc "reloaded-constant dff is constant-after-reset, not stuck" (fun () ->
        (* trace is 0,1,1,...: join(F,T) = X, so stuck-register must stay
           quiet while the structural const-dff rule still fires *)
        let df = Dataflow.create fx_reload in
        check_bool "not sequentially stuck" true
          (Dataflow.stuck_registers df = []);
        let fired = List.map (fun d -> d.D.rule) (Lint.run fx_reload) in
        check_bool "const-dff fires" true (List.mem "const-dff" fired);
        check_bool "stuck-register quiet" false
          (List.mem "stuck-register" fired));
    tc "stuck-register surfaces through Lint.run" (fun () ->
        let fired = List.map (fun d -> d.D.rule) (Lint.run fx_stuck) in
        check_bool "fires" true (List.mem "stuck-register" fired));
    (* --- reaching-X --- *)
    tc "reaching-X: holding loop keeps power-up X forever" (fun () ->
        let df = Dataflow.create fx_hold in
        check_bool "output sees X" true
          (Dataflow.reaching_x_outputs df = [ "q" ]));
    tc "reaching-X: flushed pipe is definitively clean" (fun () ->
        (* bounded xsim at cycle 0 still reports X on the output — the
           fixpoint proves the X is flushed without picking a bound *)
        let df = Dataflow.create fx_flush in
        check_bool "fixpoint: clean" true (Dataflow.reaching_x_outputs df = []);
        let bounded =
          Sim.ternary_values ~inputs:T.F ~cycles:0 (Dataflow.flat df)
        in
        check_bool "bounded at 0 cycles still unknown" true (bounded.(3) = T.X);
        check_bool "fixpoint value is known" true
          (T.is_known (Dataflow.reaching_x df).(3)));
    (* --- observability --- *)
    tc "observability: constant-masked inverter is unobservable" (fun () ->
        let df = Dataflow.create fx_masked in
        check_int_list "masked" [ 1 ] (Dataflow.masked df);
        let obs = Dataflow.observable df in
        check_bool "inv not observable" false obs.(1);
        check_bool "input still observable" true obs.(0);
        let d =
          List.find
            (fun d -> d.D.rule = "unobservable-logic")
            (Dataflow.diagnostics df)
        in
        check_int_list "diagnostic components" [ 1 ] d.D.components);
    (* --- equivalence classes --- *)
    tc "classes: commuted twins and their dffs merge" (fun () ->
        let df = Dataflow.create fx_dup in
        check_bool "two classes" true
          (Dataflow.classes df = [ [ 2; 3 ]; [ 4; 5 ] ]);
        let d =
          List.find
            (fun d -> d.D.rule = "redundant-logic")
            (Dataflow.diagnostics df)
        in
        check_int_list "duplicates" [ 3; 5 ] d.D.components);
    (* --- sweep + certification --- *)
    tc "sweep: duplicates merge and the run certifies" (fun () ->
        let post, report, oc = Certify.sweep fx_dup in
        check_bool "certified" true (Certify.certified oc);
        check_int "merged" 2 report.Sweep.merged;
        check_bool "smaller" true (N.size post < N.size fx_dup);
        check_bool "still valid" true (N.validate post = Ok ()));
    tc "sweep: masked logic is dropped" (fun () ->
        let post, report, oc = Certify.sweep fx_masked in
        check_bool "certified" true (Certify.certified oc);
        check_int "one constant folded" 1 report.Sweep.constants;
        (* the inverter loses its only reader and falls away *)
        check_bool "inverter gone" true
          (not (Array.exists (fun c -> c = N.Invc) post.N.components)));
    tc "sweep: certifies on catalogue circuits" (fun () ->
        List.iter
          (fun (name, nl) ->
            let _post, _r, oc = Certify.sweep nl in
            if not (Certify.certified oc) then
              Alcotest.failf "sweep of %s refuted: %s" name
                (Certify.describe oc))
          [
            ("mux1", Test_analyze.mux1_netlist ());
            ("ripple:8", Test_analyze.ripple_netlist 8);
          ]);
    tc "seeded bad sweep is refuted with a replayable counterexample"
      (fun () ->
        let df = Dataflow.create fx_inv in
        let aliases, _, _ = Sweep.aliases df in
        (* the "sweep" that claims the inverter aliases its own input *)
        aliases.(1) <- Optimize.To 0;
        let post = Optimize.apply_aliases fx_inv aliases in
        match Certify.check ~transform:"bad-sweep" ~pre:fx_inv ~post () with
        | Certify.Certified _ -> Alcotest.fail "expected a refutation"
        | Certify.Refuted { failure = Certify.Behaviour_differs cex; _ } ->
          check_string "output named" "x" cex.Certify.output;
          (* replay the counterexample on the reference simulator: the
             two netlists must really disagree at the reported cycle *)
          let packed nl =
            Sim.packed_create (Sim.flatten nl (Levelize.compute nl))
          in
          let s1 = packed fx_inv and s2 = packed post in
          for c = 0 to cex.Certify.cycle do
            List.iter
              (fun (name, bits) ->
                let w = if List.nth bits c then 1 else 0 in
                Sim.packed_set_input s1 name w;
                Sim.packed_set_input s2 name w)
              cex.Certify.inputs;
            Sim.packed_settle s1;
            Sim.packed_settle s2;
            if c < cex.Certify.cycle then begin
              Sim.packed_tick s1;
              Sim.packed_tick s2
            end
          done;
          check_bool "counterexample replays" false
            (Sim.packed_output s1 cex.Certify.output land 1
            = Sim.packed_output s2 cex.Certify.output land 1)
        | Certify.Refuted { failure; _ } ->
          Alcotest.failf "wrong failure: %s" (Certify.describe_failure failure));
    (* --- falsification --- *)
    tc "crosscheck: Ok on fixtures and catalogue circuits" (fun () ->
        List.iter
          (fun (name, nl) ->
            match Dataflow.crosscheck (Dataflow.create nl) with
            | Ok () -> ()
            | Error m -> Alcotest.failf "crosscheck of %s failed: %s" name m)
          [
            ("fx_stuck", fx_stuck);
            ("fx_dup", fx_dup);
            ("fx_masked", fx_masked);
            ("mux1", Test_analyze.mux1_netlist ());
            ("ripple:12", Test_analyze.ripple_netlist 12);
          ]);
    tc "wide engine cannot falsify the verdicts" (fun () ->
        List.iter
          (fun nl -> wide_falsify (Dataflow.create nl))
          [ fx_stuck; fx_dup; fx_masked; Test_analyze.ripple_netlist 8 ]);
    tc "stats name the three fixpoints" (fun () ->
        let df = Dataflow.create fx_dup in
        check_bool "three analyses" true
          (List.map fst (Dataflow.stats df)
          = [ "constants"; "observable"; "reaching-x" ]));
    (* --- Bmc invariant pruning --- *)
    tc "bmc: stuck-register invariants preserve verdicts" (fun () ->
        let invariants =
          Dataflow.stuck_registers (Dataflow.create fx_bmc)
        in
        check_bool "analysis found the stuck dff" true
          (invariants = [ (1, false) ]);
        check_bool "holds without assumptions" true
          (Bmc.check ~property:"ok" ~depth:4 fx_bmc = Bmc.Holds);
        check_bool "holds with assumptions" true
          (Bmc.check ~invariants ~property:"ok" ~depth:4 fx_bmc = Bmc.Holds);
        let plain, t1 = Bmc.reachable_states fx_bmc in
        let pruned, t2 = Bmc.reachable_states ~invariants fx_bmc in
        check_bool "no truncation" true (not t1 && not t2);
        check_int "same reachable count" plain pruned);
    tc "bmc: wrong invariants are rejected up front" (fun () ->
        let reject inv =
          match Bmc.check ~invariants:[ inv ] ~property:"ok" ~depth:1 fx_bmc with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check_bool "out of range" true (reject (99, false));
        check_bool "not a dff" true (reject (2, false));
        check_bool "wrong power-up value" true (reject (1, true)));
    tc "bmc: a lying invariant trips the snapshot tripwire" (fun () ->
        (* dff#1 powers up true but follows the input — pinning it at
           true validates, then must fail hard instead of pruning
           unsoundly *)
        let nl =
          mk
            [| N.Inport "a"; N.Dffc true; N.Outport "q" |]
            [| [||]; [| 0 |]; [| 1 |] |]
        in
        match Bmc.check ~invariants:[ (1, true) ] ~property:"q" ~depth:3 nl with
        | exception Failure m ->
          check_bool "names the dff" true
            (String.length m > 0
            && String.index_opt m '1' <> None)
        | _ -> Alcotest.fail "expected the tripwire to fire");
    (* --- SARIF export --- *)
    tc "sarif export parses and pins the schema version" (fun () ->
        let targets =
          [
            ("fx_stuck", Lint.run fx_stuck);
            ("fx_masked", Dataflow.diagnostics (Dataflow.create fx_masked));
          ]
        in
        let doc = D.to_sarif ~tool:"hydra-test" targets in
        check_bool "parses" true (json_parses doc);
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh
            && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "version pinned" true (contains doc "\"version\":\"2.1.0\"");
        check_bool "rule table present" true (contains doc "stuck-register");
        check_bool "warning level mapped" true
          (contains doc "\"level\":\"warning\""));
    (* --- Ternary lattice laws (QCheck) --- *)
    qc ~count:200 "ternary: join commutes"
      QCheck2.Gen.(pair gen_ternary gen_ternary)
      (fun (a, b) -> T.join a b = T.join b a);
    qc ~count:200 "ternary: join associates"
      QCheck2.Gen.(triple gen_ternary gen_ternary gen_ternary)
      (fun (a, b, c) -> T.join (T.join a b) c = T.join a (T.join b c));
    qc ~count:200 "ternary: join is idempotent, known only on agreement"
      QCheck2.Gen.(pair gen_ternary gen_ternary)
      (fun (a, b) ->
        T.join a a = a
        && (not (T.is_known (T.join a b)) || a = b));
    qc ~count:200 "ternary: leq is a partial order"
      QCheck2.Gen.(triple gen_ternary gen_ternary gen_ternary)
      (fun (a, b, c) ->
        T.leq a a
        && ((not (T.leq a b && T.leq b a)) || a = b)
        && ((not (T.leq a b && T.leq b c)) || T.leq a c));
    qc ~count:500 "ternary: every gate transfer is monotone for leq"
      QCheck2.Gen.(
        quad gen_ternary gen_ternary gen_ternary gen_ternary)
      (fun (a, a', b, b') ->
        let mono1 f = not (T.leq a a') || T.leq (f a) (f a') in
        let mono2 f =
          not (T.leq a a' && T.leq b b') || T.leq (f a b) (f a' b')
        in
        mono1 T.inv && mono2 T.and2 && mono2 T.or2 && mono2 T.xor2);
    (* --- the flat analyses against the list-and-closure oracle --- *)
    qc ~count:500 "flat analyses = list-and-closure oracle on random netlists"
      Test_levelize.gen_raw (fun g ->
        let nl = Test_levelize.build_raw g in
        match (oracle_mismatch nl, sim_mismatch nl) with
        | None, None -> true
        | Some what, _ | None, Some what ->
          QCheck2.Test.fail_reportf "%s differs" what);
    tc "oracle: random netlists reach every awkward case" (fun () ->
        (* the generator must produce what the oracle property is about,
           or it passes vacuously *)
        let st = Random.State.make [| 17 |] in
        let seen_cycle = ref false
        and seen_dff_loop = ref false
        and seen_stuck = ref false
        and seen_class = ref false in
        (* a flip flop loading itself, or another flip flop that loads it *)
        let dff_loop (nl : N.t) i =
          let d = nl.N.fanin.(i).(0) in
          d = i
          ||
          match nl.N.components.(d) with
          | N.Dffc _ -> nl.N.fanin.(d).(0) = i
          | _ -> false
        in
        for _ = 1 to 400 do
          let nl =
            Test_levelize.build_raw
              (QCheck2.Gen.generate1 ~rand:st Test_levelize.gen_raw)
          in
          let df = Dataflow.create nl in
          if (Dataflow.levelization df).Levelize.cyclic <> [] then
            seen_cycle := true;
          Array.iteri
            (fun i c ->
              match c with
              | N.Dffc _ -> if dff_loop nl i then seen_dff_loop := true
              | _ -> ())
            nl.N.components;
          if Dataflow.stuck_registers df <> [] then seen_stuck := true;
          if Dataflow.classes df <> [] then seen_class := true
        done;
        check_bool "combinational cycles" true !seen_cycle;
        check_bool "dff-only loops" true !seen_dff_loop;
        check_bool "sequential constants (stuck registers)" true !seen_stuck;
        check_bool "equivalence classes" true !seen_class);
    tc "flat analyses = list-and-closure oracle on the catalogue" (fun () ->
        List.iter
          (fun (name, nl) ->
            match (oracle_mismatch nl, sim_mismatch nl) with
            | None, None -> ()
            | Some what, _ | None, Some what ->
              Alcotest.failf "%s: %s differs" name what)
          (Lazy.force Catalogue.all));
    (* --- random circuits (QCheck) --- *)
    qc ~count:25 "sweep certifies on random circuits" Test_analyze.gen_nodes
      (fun nodes ->
        let nl = Test_analyze.random_netlist nodes in
        let _post, _r, oc = Certify.sweep ~passes:1 ~cycles:8 nl in
        Certify.certified oc);
    qc ~count:25 "crosscheck holds on random circuits" Test_analyze.gen_nodes
      (fun nodes ->
        let df = Dataflow.create (Test_analyze.random_netlist nodes) in
        match Dataflow.crosscheck ~passes:1 ~cycles:8 df with
        | Ok () -> true
        | Error _ -> false);
  ]
