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
     hide in the checker.

   Both run over a {!flat} view of the netlist: one int kind code and
   two fanin columns per component, so evaluating a gate is two array
   reads and a table lookup or a word operation, with no closure and no
   allocation per component. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module P = Hydra_core.Packed

(* Flat netlist view -------------------------------------------------------- *)

(* Kind codes.  The combinational ones (outport and the four gates) come
   first so that they index the ternary gate table directly. *)
let k_outport = 0
let k_inv = 1
let k_and = 2
let k_or = 3
let k_xor = 4
let k_inport = 5
let k_const0 = 6
let k_const1 = 7
let k_dff0 = 8
let k_dff1 = 9

let kind_code (c : Netlist.component) =
  match c with
  | Netlist.Outport _ -> k_outport
  | Netlist.Invc -> k_inv
  | Netlist.And2c -> k_and
  | Netlist.Or2c -> k_or
  | Netlist.Xor2c -> k_xor
  | Netlist.Inport _ -> k_inport
  | Netlist.Constant b -> if b then k_const1 else k_const0
  | Netlist.Dffc b -> if b then k_dff1 else k_dff0

let is_gate k = k <= k_xor
let is_dff k = k >= k_dff0

type flat = {
  netlist : Netlist.t;
  levels : Levelize.t;
  kind : int array;
  fanin0 : int array;
  fanin1 : int array;
  steps : int array;
  sources : int array;
  dffs : int array;
}

let indices_where kind p =
  let out = ref [] in
  for i = Array.length kind - 1 downto 0 do
    if p kind.(i) then out := i :: !out
  done;
  Array.of_list !out

(* A component without a second fanin reads its first one twice, so
   every gate table lookup and word operation can index both columns
   unconditionally; a source reads itself.  [steps] is the levelized
   order as one sequential stream, four ints per component (kind,
   fanin 0, fanin 1, component), so a settle reads it front to back. *)
let flatten (nl : Netlist.t) (lv : Levelize.t) =
  let fanin = nl.Netlist.fanin in
  let n = Array.length nl.Netlist.components in
  let kind = Array.map kind_code nl.Netlist.components in
  let fanin0 = Array.make n 0 and fanin1 = Array.make n 0 in
  for i = 0 to n - 1 do
    let fi = fanin.(i) in
    match Array.length fi with
    | 0 ->
      fanin0.(i) <- i;
      fanin1.(i) <- i
    | 1 ->
      fanin0.(i) <- fi.(0);
      fanin1.(i) <- fi.(0)
    | _ ->
      fanin0.(i) <- fi.(0);
      fanin1.(i) <- fi.(1)
  done;
  let order = lv.Levelize.order in
  let steps = Array.make (4 * Array.length order) 0 in
  for j = 0 to Array.length order - 1 do
    let i = order.(j) in
    steps.(4 * j) <- kind.(i);
    steps.((4 * j) + 1) <- fanin0.(i);
    steps.((4 * j) + 2) <- fanin1.(i);
    steps.((4 * j) + 3) <- i
  done;
  {
    netlist = nl;
    levels = lv;
    kind;
    fanin0;
    fanin1;
    steps;
    sources = indices_where kind (fun k -> k >= k_inport && k <= k_const1);
    dffs = indices_where kind is_dff;
  }

(* Ternary evaluation ---------------------------------------------------- *)

(* Ternary values as ints: F = 0, T = 1, X = 2. *)
let t_code = function T.F -> 0 | T.T -> 1 | T.X -> 2
let t_values = [| T.F; T.T; T.X |]
let t_of_code c = t_values.(c)

(* THE ternary abstract transfer function over netlist components, as a
   table indexed [kind * 9 + a * 3 + b] for the combinational kinds
   (outport and the four gates) over coded fanin values [a], [b].  It is
   filled from {!Hydra_core.Ternary}'s gate functions, so those stay the
   single definition of Kleene logic behind the lint rules' abstract
   evaluation ({!ternary_codes}) and every {!Dataflow} forward domain —
   test_dataflow checks their laws (monotonicity w.r.t. {!T.leq}) by
   QCheck. *)
let gate_table =
  Array.init 45 (fun x ->
      let a = t_of_code (x / 3 mod 3) and b = t_of_code (x mod 3) in
      t_code
        (match x / 9 with
        | 0 -> a
        | 1 -> T.inv a
        | 2 -> T.and2 a b
        | 3 -> T.or2 a b
        | _ -> T.xor2 a b))

let ternary_gate f (v : int array) i =
  gate_table.((f.kind.(i) * 9) + (v.(f.fanin0.(i)) * 3) + v.(f.fanin1.(i)))

(* Settled coded component values after [cycles] clock ticks, with every
   input port held at [inputs] and flip flops powered up at X (or their
   declared value with [respect_init]).  Components on combinational
   cycles are never evaluated and read X. *)
let ternary_codes ?(inputs = T.X) ?(respect_init = false) ?(cycles = 0) f =
  let { kind; steps; sources; dffs; _ } = f in
  let n = Array.length kind in
  let values = Array.make n 2 in
  let state = Array.make n 2 in
  if respect_init then
    Array.iter (fun i -> state.(i) <- kind.(i) - k_dff0) dffs;
  let input = t_code inputs in
  Array.iter
    (fun i ->
      values.(i) <-
        (if kind.(i) = k_inport then input else kind.(i) - k_const0))
    sources;
  let settle () =
    Array.iter (fun i -> values.(i) <- state.(i)) dffs;
    for j = 0 to (Array.length steps / 4) - 1 do
      values.(steps.((4 * j) + 3)) <-
        gate_table.((steps.(4 * j) * 9)
                    + (values.(steps.((4 * j) + 1)) * 3)
                    + values.(steps.((4 * j) + 2)))
    done
  in
  settle ();
  for _ = 1 to cycles do
    Array.iter (fun i -> state.(i) <- values.(f.fanin0.(i))) dffs;
    settle ()
  done;
  values

let ternary_values ?inputs ?respect_init ?cycles f =
  Array.map t_of_code (ternary_codes ?inputs ?respect_init ?cycles f)

(* Packed reference simulator -------------------------------------------- *)

type packed = {
  f : flat;
  values : int array;
  state : int array;  (* indexed like components; only dffs used *)
  input_index : (string, int) Hashtbl.t;
}

let packed_reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Array.fill t.state 0 (Array.length t.state) 0;
  Array.iter
    (fun i -> if t.f.kind.(i) = k_dff1 then t.state.(i) <- P.lane_mask)
    t.f.dffs

let packed_create f =
  let lv = f.levels in
  if lv.Levelize.cyclic <> [] then
    raise (Levelize.Combinational_cycle lv.Levelize.cyclic);
  let n = Array.length f.kind in
  let input_index = Hashtbl.create 16 in
  List.iter
    (fun (s, i) -> Hashtbl.replace input_index s i)
    f.netlist.Netlist.inputs;
  let t = { f; values = Array.make n 0; state = Array.make n 0; input_index } in
  packed_reset t;
  t

let packed_set_input t name w =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> t.values.(i) <- w land P.lane_mask
  | None -> invalid_arg ("Sim.packed_set_input: unknown input " ^ name)

let packed_settle t =
  let { kind; steps; sources; dffs; _ } = t.f and v = t.values in
  Array.iter
    (fun i ->
      if kind.(i) = k_const0 then v.(i) <- 0
      else if kind.(i) = k_const1 then v.(i) <- P.lane_mask)
    sources;
  Array.iter (fun i -> v.(i) <- t.state.(i)) dffs;
  for j = 0 to (Array.length steps / 4) - 1 do
    let a = v.(steps.((4 * j) + 1)) and b = v.(steps.((4 * j) + 2)) in
    (* kind codes: 1 inv, 2 and, 3 or, 4 xor, 0 outport *)
    v.(steps.((4 * j) + 3)) <-
      (match steps.(4 * j) with
      | 1 -> lnot a land P.lane_mask
      | 2 -> a land b
      | 3 -> a lor b
      | 4 -> a lxor b
      | _ -> a)
  done

let packed_tick t =
  Array.iter (fun i -> t.state.(i) <- t.values.(t.f.fanin0.(i))) t.f.dffs

let packed_output t name =
  match List.assoc_opt name t.f.netlist.Netlist.outputs with
  | Some i -> t.values.(i)
  | None -> invalid_arg ("Sim.packed_output: unknown output " ^ name)

let packed_outputs t =
  List.map (fun (s, i) -> (s, t.values.(i))) t.f.netlist.Netlist.outputs

(* Settled word of any component, by index — Dataflow's cross-check reads
   every component, not just ports, to compare analysis verdicts against
   what the lanes actually did. *)
let packed_value t i = t.values.(i)
