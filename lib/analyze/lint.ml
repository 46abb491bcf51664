(* Netlist lint: a registry of static rules grounded in the paper's
   synchronous model (sections 3 and 4.5).

   The model is a set of static obligations — no combinational feedback,
   every flip flop powers up with a known value, every signal settles
   within the clock period — and some softer design-hygiene facts the
   extraction pipeline can leave behind (constants feeding gates, logic
   reaching no output, inputs driving nothing).  Each rule inspects one
   obligation and reports structured {!Diagnostic.t}s; expensive shared
   facts are computed at most once per run and shared across rules: the
   run's one {!Dataflow.t} supplies the levelization and fanout (a run
   levelizes its netlist exactly once), ternary evaluations are lazy.

   Severities: [Error] marks a netlist the engines must not trust
   (malformed structure, combinational cycle, a configured timing budget
   blown); [Warning] marks model-hygiene findings that simulate fine but
   deserve eyes.  The shipped circuit catalogue is error-clean — CI
   enforces it. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary

type config = {
  fanout_threshold : int;  (* hotspot rule: warn above this fanout *)
  path_budget : int option;  (* error when the critical path exceeds it *)
  xsim_cycles : int;  (* cycles of X-propagation for uninit-state *)
}

let default_config =
  { fanout_threshold = 64; path_budget = None; xsim_cycles = 4 }

(* Shared facts, computed at most once per run. *)
type ctx = {
  nl : Netlist.t;
  config : config;
  df : Dataflow.t;  (* the run's one levelization, fanout and liveness *)
  tern_free : int array Lazy.t;
      (* inputs X, state X, cycle 0: known values are structural constants *)
  tern_zero : int array Lazy.t;
      (* inputs 0, state from X, after xsim_cycles: X here means the
         power-up unknowns survive *)
  df_diags : Diagnostic.t list Lazy.t;
      (* the Dataflow fixpoint findings (stuck-register,
         unobservable-logic, redundant-logic), computed once *)
}

type rule = {
  name : string;
  about : string;
  check : ctx -> Diagnostic.t list;
}

let label ctx i = Netlist.describe ctx.nl i

(* Witness labels: the first eight components of a finding. *)
let shown ctx l = List.map (label ctx) (List.filteri (fun k _ -> k < 8) l)

let diag ?(witness = []) ctx rule severity components fmt =
  ignore ctx;
  Printf.ksprintf
    (fun message ->
      { Diagnostic.rule; severity; components; witness; message })
    fmt

(* comb-cycle: the synchronous model's hardest obligation (paper section
   3).  Reports one ordered witness cycle by name. *)
let comb_cycle_rule =
  {
    name = "comb-cycle";
    about = "combinational feedback loop (forbidden by the synchronous model)";
    check =
      (fun ctx ->
        let lv = Dataflow.levelization ctx.df in
        match lv.Levelize.cyclic with
        | [] -> []
        | cyclic ->
          let witness_comps =
            match Levelize.cycle_witness ctx.nl lv with
            | Some c -> c
            | None -> []
          in
          let witness = List.map (label ctx) witness_comps in
          let closed =
            match witness with [] -> [] | first :: _ -> witness @ [ first ]
          in
          [
            diag ~witness:closed ctx "comb-cycle" Diagnostic.Error cyclic
              "%d component(s) on combinational cycles; witness cycle: %s"
              (List.length cyclic)
              (Levelize.describe_cycle ctx.nl witness_comps);
          ]);
  }

(* floating-input: a declared input port that drives nothing. *)
let floating_input_rule =
  {
    name = "floating-input";
    about = "declared input port drives no component";
    check =
      (fun ctx ->
        let dead =
          List.filter
            (fun (_, i) -> Dataflow.fanout_count ctx.df i = 0)
            ctx.nl.Netlist.inputs
        in
        match dead with
        | [] -> []
        | dead ->
          let comps = List.sort compare (List.map snd dead) in
          [
            diag ctx "floating-input" Diagnostic.Warning comps
              "%d input port(s) drive nothing: %s" (List.length dead)
              (String.concat ", " (List.map fst dead));
          ]);
  }

(* dead-logic: components (other than ports) from which no output port is
   reachable — they burn area and simulation time for nothing.  Walks the
   fanin closure of the outputs. *)
let dead_logic_rule =
  {
    name = "dead-logic";
    about = "logic unreachable from any output port";
    check =
      (fun ctx ->
        let nl = ctx.nl in
        let n = Netlist.size nl in
        let live = Dataflow.live ctx.df in
        let dead = ref [] in
        for i = n - 1 downto 0 do
          match nl.Netlist.components.(i) with
          | Netlist.Inport _ | Netlist.Outport _ -> ()
          | _ -> if not live.(i) then dead := i :: !dead
        done;
        match !dead with
        | [] -> []
        | dead ->
          let shown = shown ctx dead in
          [
            diag ~witness:shown ctx "dead-logic" Diagnostic.Warning dead
              "%d component(s) reach no output port" (List.length dead);
          ]);
  }

(* const-gate: a gate whose output is already forced by the structural
   constants — ternary abstract evaluation with every input and every
   flip flop unknown.  Anything known here is foldable by Optimize. *)
let const_gate_rule =
  {
    name = "const-gate";
    about = "gate output is constant (foldable)";
    check =
      (fun ctx ->
        let values = Lazy.force ctx.tern_free in
        let found = ref [] in
        Array.iteri
          (fun i c ->
            match c with
            | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c ->
              if T.is_known (Sim.t_of_code values.(i)) then
                found := i :: !found
            | _ -> ())
          ctx.nl.Netlist.components;
        match List.rev !found with
        | [] -> []
        | found ->
          let shown = shown ctx found in
          [
            diag ~witness:shown ctx "const-gate" Diagnostic.Warning found
              "%d gate(s) compute a constant regardless of inputs and \
               state (run Optimize to fold them)"
              (List.length found);
          ]);
  }

(* const-dff: a flip flop whose data input is structurally constant — it
   can only ever hold that value after the first tick, so it is a
   constant wearing state-element area. *)
let const_dff_rule =
  {
    name = "const-dff";
    about = "flip-flop data input is constant";
    check =
      (fun ctx ->
        let values = Lazy.force ctx.tern_free in
        let found = ref [] in
        Array.iteri
          (fun i c ->
            match c with
            | Netlist.Dffc _ ->
              let d = ctx.nl.Netlist.fanin.(i).(0) in
              if T.is_known (Sim.t_of_code values.(d)) then
                found := i :: !found
            | _ -> ())
          ctx.nl.Netlist.components;
        match List.rev !found with
        | [] -> []
        | found ->
          let shown = shown ctx found in
          [
            diag ~witness:shown ctx "const-dff" Diagnostic.Warning found
              "%d flip flop(s) reload a constant every cycle"
              (List.length found);
          ]);
  }

(* uninit-state: X-propagation (the {!Sim.ternary_values} evaluator with
   [respect_init:false], the same analysis Hydra_engine.Xsim performs)
   with all inputs held at 0.  An output still X after [xsim_cycles]
   ticks can observe the power-up state of some flip flop — the design
   depends on power-up values it never re-initializes. *)
let uninit_state_rule =
  {
    name = "uninit-state";
    about = "output can observe uninitialized power-up state";
    check =
      (fun ctx ->
        let values = Lazy.force ctx.tern_zero in
        let nl = ctx.nl in
        let escaped =
          List.filter
            (fun (_, i) -> Sim.t_of_code values.(i) = T.X)
            nl.Netlist.outputs
        in
        match escaped with
        | [] -> []
        | escaped ->
          (* the witness: flip flops still X that structurally reach one
             of the escaped outputs through combinational logic *)
          let live = Array.make (Netlist.size nl) false in
          let rec mark i =
            if not live.(i) then begin
              live.(i) <- true;
              match nl.Netlist.components.(i) with
              | Netlist.Dffc _ -> ()  (* state boundary: stop *)
              | _ -> Array.iter mark nl.Netlist.fanin.(i)
            end
          in
          List.iter (fun (_, i) -> mark i) escaped;
          let x_dffs = ref [] in
          Array.iteri
            (fun i c ->
              match c with
              | Netlist.Dffc _ ->
                if live.(i) && Sim.t_of_code values.(i) = T.X then
                  x_dffs := i :: !x_dffs
              | _ -> ())
            nl.Netlist.components;
          let x_dffs = List.rev !x_dffs in
          let shown = shown ctx x_dffs in
          [
            diag ~witness:shown ctx "uninit-state" Diagnostic.Warning
              (List.sort compare (List.map snd escaped))
              "%d output(s) still unknown after %d cycle(s) of \
               X-propagation from power-up (%s): %d uninitialized flip \
               flop(s) reach them"
              (List.length escaped) ctx.config.xsim_cycles
              (String.concat ", " (List.map fst escaped))
              (List.length x_dffs);
          ]);
  }

(* fanout-hotspot: nets driving very many sinks — electrically slow and,
   for the engines, a cache-locality tell.  Threshold configurable. *)
let fanout_hotspot_rule =
  {
    name = "fanout-hotspot";
    about = "net drives more sinks than the configured threshold";
    check =
      (fun ctx ->
        let hot = ref [] in
        for i = 0 to Netlist.size ctx.nl - 1 do
          let d = Dataflow.fanout_count ctx.df i in
          if d > ctx.config.fanout_threshold then hot := (i, d) :: !hot
        done;
        match List.sort (fun (_, a) (_, b) -> compare b a) !hot with
        | [] -> []
        | hot ->
          let shown =
            List.map
              (fun (i, d) -> Printf.sprintf "%s[%d]" (label ctx i) d)
              (List.filteri (fun k _ -> k < 8) hot)
          in
          [
            diag ~witness:shown ctx "fanout-hotspot" Diagnostic.Warning
              (List.sort compare (List.map fst hot))
              "%d net(s) exceed the fanout threshold %d (worst: %s drives \
               %d sinks)"
              (List.length hot) ctx.config.fanout_threshold
              (label ctx (fst (List.hd hot)))
              (snd (List.hd hot));
          ]);
  }

(* path-budget: the paper's settling obligation made checkable — when a
   clock-period budget (in gate delays) is configured, the critical path
   must fit it.  The witness is one deepest register-to-register /
   port-to-port path. *)
let path_budget_rule =
  {
    name = "path-budget";
    about = "critical path exceeds the configured gate-delay budget";
    check =
      (fun ctx ->
        match ctx.config.path_budget with
        | None -> []
        | Some budget ->
          let lv = Dataflow.levelization ctx.df in
          if lv.Levelize.cyclic <> [] then []
            (* meaningless under a cycle; comb-cycle already fired *)
          else if lv.Levelize.critical_path <= budget then []
          else begin
            let nl = ctx.nl in
            let levels = lv.Levelize.levels in
            (* endpoint: the deepest driver of an outport or dff *)
            let endpoint = ref (-1) and deepest = ref (-1) in
            Array.iteri
              (fun i c ->
                match c with
                | Netlist.Outport _ | Netlist.Dffc _ ->
                  Array.iter
                    (fun d ->
                      if levels.(d) > !deepest then begin
                        deepest := levels.(d);
                        endpoint := d
                      end)
                    nl.Netlist.fanin.(i)
                | _ -> ())
              nl.Netlist.components;
            (* walk back through deepest drivers to a level-0 source *)
            let path = ref [] in
            let cur = ref !endpoint in
            path := [ !cur ];
            while levels.(!cur) > 0 do
              let next = ref (-1) in
              Array.iter
                (fun d ->
                  if !next = -1 || levels.(d) > levels.(!next) then next := d)
                nl.Netlist.fanin.(!cur);
              cur := !next;
              path := !cur :: !path
            done;
            let path = !path in
            [
              diag
                ~witness:(List.map (label ctx) path)
                ctx "path-budget" Diagnostic.Error path
                "critical path is %d gate delays, over the budget of %d"
                lv.Levelize.critical_path budget;
            ]
          end);
  }

(* The fixpoint rules: thin front-ends over {!Dataflow.diagnostics},
   which does the real work (and documents the message formats).  They
   are strictly stronger than their structural cousins — stuck-register
   sees through feedback loops const-dff cannot, unobservable-logic
   subsumes nothing but sharpens dead-logic's "reaches no output" to
   "reaches outputs only through constants" — and every verdict they
   rest on is simulation-falsifiable via Dataflow.crosscheck. *)
let dataflow_rule name about =
  {
    name;
    about;
    check =
      (fun ctx ->
        List.filter
          (fun d -> d.Diagnostic.rule = name)
          (Lazy.force ctx.df_diags));
  }

let stuck_register_rule =
  dataflow_rule "stuck-register"
    "flip flop provably holds its power-up value forever"

let unobservable_logic_rule =
  dataflow_rule "unobservable-logic"
    "logic reaches outputs only through constant-masked paths"

let redundant_logic_rule =
  dataflow_rule "redundant-logic"
    "component provably equivalent to an earlier one (mergeable)"

(* The registry, in report order. *)
let rules =
  [
    comb_cycle_rule;
    floating_input_rule;
    dead_logic_rule;
    const_gate_rule;
    const_dff_rule;
    stuck_register_rule;
    unobservable_logic_rule;
    redundant_logic_rule;
    uninit_state_rule;
    fanout_hotspot_rule;
    path_budget_rule;
  ]

let rule_names = List.map (fun r -> (r.name, r.about)) rules

let run ?(config = default_config) nl =
  (* A malformed netlist makes every other analysis unsafe (they index
     with the fanin numbers), so validation gates the registry. *)
  match Netlist.validate nl with
  | Error reason ->
    [
      {
        Diagnostic.rule = "invalid-netlist";
        severity = Diagnostic.Error;
        components = [];
        witness = [];
        message = "malformed netlist: " ^ reason;
      };
    ]
  | Ok () ->
    let df = Dataflow.create nl in
    let flat = Dataflow.flat df in
    let ctx =
      {
        nl;
        config;
        df;
        tern_free = lazy (Sim.ternary_codes ~inputs:T.X ~cycles:0 flat);
        tern_zero =
          lazy
            (Sim.ternary_codes ~inputs:T.F ~respect_init:false
               ~cycles:config.xsim_cycles flat);
        df_diags = lazy (Dataflow.diagnostics df);
      }
    in
    (* Deterministic output contract: stable sort by rule name, then by
       the involved component indices — the order tools and the pinned
       JSON fixtures can rely on, independent of registry order. *)
    List.concat_map (fun r -> r.check ctx) rules
    |> List.stable_sort (fun a b ->
           match compare a.Diagnostic.rule b.Diagnostic.rule with
           | 0 -> compare a.Diagnostic.components b.Diagnostic.components
           | c -> c)
