(* Reference netlist evaluators for the analyses.

   Two deliberately simple interpreters over [Netlist.t], kept below
   [Hydra_engine] in the dependency order so the engines themselves can
   be *checked* against them:

   - a ternary abstract evaluator (Kleene 0/1/X over
     {!Hydra_core.Ternary}) used by the lint rules: constants propagate,
     inputs and flip-flop state are parameters, components left
     unleveled by a combinational cycle stay X;

   - a packed (62-lane) concrete simulator used by {!Certify} as the
     independent oracle for transform translation-validation.  It shares
     no code with the compiled engines — no optimizer, no re-layout, no
     fused kernels — which is the point: a bug in those passes cannot
     hide in the checker. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module P = Hydra_core.Packed

(* Ternary evaluation ---------------------------------------------------- *)

(* THE ternary abstract transfer function over netlist components: one
   Kleene gate evaluation, reading fanin values through [fi].  This is the
   single shared implementation behind the lint rules' abstract
   evaluation ({!ternary_values}) and every {!Dataflow} forward domain —
   a soundness bug here would poison both, which is why test_dataflow
   checks the gate laws (monotonicity w.r.t. {!T.leq}) by QCheck.
   [None] for components that are not combinational functions of their
   fanin (ports, constants, flip flops): their values are boundary
   conditions of whichever analysis is running. *)
let ternary_gate (c : Netlist.component) (fi : int -> T.t) : T.t option =
  match c with
  | Netlist.Invc -> Some (T.inv (fi 0))
  | Netlist.And2c -> Some (T.and2 (fi 0) (fi 1))
  | Netlist.Or2c -> Some (T.or2 (fi 0) (fi 1))
  | Netlist.Xor2c -> Some (T.xor2 (fi 0) (fi 1))
  | Netlist.Outport _ -> Some (fi 0)
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> None

(* Settled component values after [cycles] clock ticks, with every input
   port held at [inputs] and flip flops powered up at X (or their declared
   value with [respect_init]).  Components on combinational cycles are
   never evaluated and read X.  [lv] is [nl]'s levelization, supplied by
   the caller so that one analysis run levelizes once. *)
let ternary_values ?(inputs = T.X) ?(respect_init = false) ?(cycles = 0) nl
    (lv : Levelize.t) =
  let n = Netlist.size nl in
  let values = Array.make n T.X in
  let state = Array.make n T.X in
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Dffc init ->
        state.(i) <- (if respect_init then T.of_bool init else T.X)
      | _ -> ())
    nl.Netlist.components;
  let settle () =
    Array.iteri
      (fun i c ->
        match c with
        | Netlist.Inport _ -> values.(i) <- inputs
        | Netlist.Constant b -> values.(i) <- T.of_bool b
        | Netlist.Dffc _ -> values.(i) <- state.(i)
        | _ -> ())
      nl.Netlist.components;
    Array.iter
      (fun i ->
        let fi k = values.(nl.Netlist.fanin.(i).(k)) in
        match ternary_gate nl.Netlist.components.(i) fi with
        | Some v -> values.(i) <- v
        | None -> ())
      lv.Levelize.order
  in
  settle ();
  for _ = 1 to cycles do
    Array.iteri
      (fun i c ->
        match c with
        | Netlist.Dffc _ -> state.(i) <- values.(nl.Netlist.fanin.(i).(0))
        | _ -> ())
      nl.Netlist.components;
    settle ()
  done;
  values

(* Packed reference simulator -------------------------------------------- *)

type packed = {
  nl : Netlist.t;
  order : int array;
  values : int array;
  state : int array;  (* indexed like components; only dffs used *)
  input_index : (string, int) Hashtbl.t;
  dffs : int array;
  dff_init : int array;  (* broadcast power-up words *)
}

let packed_create nl (lv : Levelize.t) =
  if lv.Levelize.cyclic <> [] then
    raise (Levelize.Combinational_cycle lv.Levelize.cyclic);
  let n = Netlist.size nl in
  let input_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) nl.Netlist.inputs;
  let dffs = ref [] in
  Array.iteri
    (fun i c -> match c with Netlist.Dffc _ -> dffs := i :: !dffs | _ -> ())
    nl.Netlist.components;
  let dffs = Array.of_list (List.rev !dffs) in
  let dff_init =
    Array.map
      (fun i ->
        match nl.Netlist.components.(i) with
        | Netlist.Dffc b -> if b then P.lane_mask else 0
        | _ -> assert false)
      dffs
  in
  let t =
    {
      nl;
      order = lv.Levelize.order;
      values = Array.make n 0;
      state = Array.make n 0;
      input_index;
      dffs;
      dff_init;
    }
  in
  Array.iteri (fun j i -> t.state.(i) <- dff_init.(j)) dffs;
  t

let packed_reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Array.fill t.state 0 (Array.length t.state) 0;
  Array.iteri (fun j i -> t.state.(i) <- t.dff_init.(j)) t.dffs

let packed_set_input t name w =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> t.values.(i) <- w land P.lane_mask
  | None -> invalid_arg ("Sim.packed_set_input: unknown input " ^ name)

let packed_settle t =
  let nl = t.nl in
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Constant b -> t.values.(i) <- (if b then P.lane_mask else 0)
      | Netlist.Dffc _ -> t.values.(i) <- t.state.(i)
      | _ -> ())
    nl.Netlist.components;
  Array.iter
    (fun i ->
      let fi k = t.values.(nl.Netlist.fanin.(i).(k)) in
      t.values.(i) <-
        (match nl.Netlist.components.(i) with
        | Netlist.Invc -> lnot (fi 0) land P.lane_mask
        | Netlist.And2c -> fi 0 land fi 1
        | Netlist.Or2c -> fi 0 lor fi 1
        | Netlist.Xor2c -> fi 0 lxor fi 1
        | Netlist.Outport _ -> fi 0
        | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ ->
          t.values.(i)))
    t.order

let packed_tick t =
  Array.iter
    (fun i -> t.state.(i) <- t.values.(t.nl.Netlist.fanin.(i).(0)))
    t.dffs

let packed_output t name =
  match List.assoc_opt name t.nl.Netlist.outputs with
  | Some i -> t.values.(i)
  | None -> invalid_arg ("Sim.packed_output: unknown output " ^ name)

let packed_outputs t =
  List.map (fun (s, i) -> (s, t.values.(i))) t.nl.Netlist.outputs

(* Settled word of any component, by index — Dataflow's cross-check reads
   every component, not just ports, to compare analysis verdicts against
   what the lanes actually did. *)
let packed_value t i = t.values.(i)
