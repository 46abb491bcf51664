(* The list-and-closure dataflow analyses that [Hydra_analyze.Dataflow]
   and the evaluators it drives in [Hydra_analyze.Sim] used to be (a
   generic polymorphic solver with [int list] successors, a [Queue] and a
   closure per visit; polymorphic [Hashtbl]s of variant keys for the
   class refinement), kept as the oracle for test_dataflow: the flat
   versions must agree with it exactly, worklist statistics included. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module P = Hydra_core.Packed
module Diagnostic = Hydra_analyze.Diagnostic

module Sim = struct
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

  let packed_value t i = t.values.(i)
end

(* Generic worklist solver ------------------------------------------------ *)

type solve_stats = { visits : int; updates : int }

let solve ?(frozen = fun _ -> false) ~n ~equal ~succs ~transfer ~init () =
  let values = Array.init n init in
  let queued = Array.make n false in
  let q = Queue.create () in
  let push i =
    if not (queued.(i) || frozen i) then begin
      queued.(i) <- true;
      Queue.add i q
    end
  in
  for i = 0 to n - 1 do
    push i
  done;
  let visits = ref 0 and updates = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.take q in
    queued.(i) <- false;
    incr visits;
    let v = transfer (fun j -> values.(j)) i in
    if not (equal v values.(i)) then begin
      values.(i) <- v;
      incr updates;
      List.iter push (succs i)
    end
  done;
  (values, { visits = !visits; updates = !updates })

(* Analysis state --------------------------------------------------------- *)

type t = {
  nl : Netlist.t;
  lv : Levelize.t;
  fanout : (int * int) list array;
  cyclic : bool array;
  mutable constants_ : (T.t array * solve_stats) option;
  mutable reaching_ : (T.t array * solve_stats) option;
  mutable observable_ : (bool array * solve_stats) option;
  mutable classes_ : int list list option;
}

let create nl =
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Dataflow.create: malformed netlist: " ^ reason));
  let lv = Levelize.compute nl in
  let cyclic = Array.make (Netlist.size nl) false in
  List.iter (fun i -> cyclic.(i) <- true) lv.Levelize.cyclic;
  {
    nl;
    lv;
    fanout = Netlist.fanout nl;
    cyclic;
    constants_ = None;
    reaching_ = None;
    observable_ = None;
    classes_ = None;
  }

let netlist t = t.nl
let levelization t = t.lv
let fanout t = t.fanout
let label t i = Netlist.describe t.nl i
let forward_succs t i = List.map fst t.fanout.(i)

(* Sequential constant propagation ---------------------------------------- *)

let constants_full t =
  match t.constants_ with
  | Some r -> r
  | None ->
    let nl = t.nl in
    let n = Netlist.size nl in
    (* start: the cycle-0 settle from reset (inputs unknown, flip flops
       at their power-up values) — a pre-fixpoint of the transfer, since
       a dff's transfer joins its power-up value back in *)
    let init =
      Sim.ternary_values ~inputs:T.X ~respect_init:true ~cycles:0 nl t.lv
    in
    let transfer get i =
      match nl.Netlist.components.(i) with
      | Netlist.Inport _ -> T.X
      | Netlist.Constant b -> T.of_bool b
      | Netlist.Dffc b -> T.join (T.of_bool b) (get nl.Netlist.fanin.(i).(0))
      | c -> (
        match Sim.ternary_gate c (fun k -> get nl.Netlist.fanin.(i).(k)) with
        | Some v -> v
        | None -> assert false)
    in
    let r =
      solve
        ~frozen:(fun i -> t.cyclic.(i))
        ~n ~equal:( = ) ~succs:(forward_succs t) ~transfer
        ~init:(fun i -> init.(i))
        ()
    in
    t.constants_ <- Some r;
    r

let constants t = fst (constants_full t)

let stuck_registers t =
  let consts = constants t in
  let out = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Dffc _ -> (
        match T.to_bool consts.(i) with
        | Some b -> out := (i, b) :: !out
        | None -> ())
      | _ -> ())
    t.nl.Netlist.components;
  List.rev !out

let constant_components t =
  let consts = constants t in
  let out = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
      | Netlist.Dffc _ -> (
        match T.to_bool consts.(i) with
        | Some b -> out := (i, b) :: !out
        | None -> ())
      | _ -> ())
    t.nl.Netlist.components;
  List.rev !out

(* Reaching-X ------------------------------------------------------------- *)

let reaching_full t =
  match t.reaching_ with
  | Some r -> r
  | None ->
    let nl = t.nl in
    let n = Netlist.size nl in
    let init i =
      match nl.Netlist.components.(i) with
      | Netlist.Inport _ -> T.F
      | Netlist.Constant b -> T.of_bool b
      | _ -> T.X
    in
    let transfer get i =
      match nl.Netlist.components.(i) with
      | Netlist.Inport _ -> T.F
      | Netlist.Constant b -> T.of_bool b
      | Netlist.Dffc _ -> get nl.Netlist.fanin.(i).(0)
      | c -> (
        match Sim.ternary_gate c (fun k -> get nl.Netlist.fanin.(i).(k)) with
        | Some v -> v
        | None -> assert false)
    in
    let r =
      solve
        ~frozen:(fun i -> t.cyclic.(i))
        ~n ~equal:( = ) ~succs:(forward_succs t) ~transfer ~init ()
    in
    t.reaching_ <- Some r;
    r

let reaching_x t = fst (reaching_full t)

let reaching_x_outputs t =
  let r = reaching_x t in
  List.filter_map
    (fun (name, i) -> if r.(i) = T.X then Some name else None)
    t.nl.Netlist.outputs

(* Backward observability ------------------------------------------------- *)

let observable_full t =
  match t.observable_ with
  | Some r -> r
  | None ->
    let consts = constants t in
    let nl = t.nl in
    let n = Netlist.size nl in
    let is_outport i =
      match nl.Netlist.components.(i) with
      | Netlist.Outport _ -> true
      | _ -> false
    in
    (* a sink whose own value is a known sequential constant transmits
       nothing: whatever its fanin does, its output never moves *)
    let transmits j = not (T.is_known consts.(j)) in
    let transfer get i =
      is_outport i || List.exists (fun (j, _) -> transmits j && get j) t.fanout.(i)
    in
    let r =
      solve ~n ~equal:Bool.equal
        ~succs:(fun i -> Array.to_list nl.Netlist.fanin.(i))
        ~transfer ~init:is_outport ()
    in
    t.observable_ <- Some r;
    r

let observable t = fst (observable_full t)

let masked t =
  let nl = t.nl in
  let n = Netlist.size nl in
  (* structural liveness, so we don't re-report plain dead-logic *)
  let live = Array.make n false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter mark nl.Netlist.fanin.(i)
    end
  in
  List.iter (fun (_, i) -> mark i) nl.Netlist.outputs;
  let obs = observable t in
  let consts = constants t in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match nl.Netlist.components.(i) with
    | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
    | Netlist.Dffc _ ->
      if live.(i) && (not obs.(i)) && not (T.is_known consts.(i)) then
        out := i :: !out
    | _ -> ()
  done;
  !out

(* Equivalence classes ---------------------------------------------------- *)

(* Structural keys for one hash-consing round: gates by operator and
   (commutatively normalized) child ids, flip flops by their current
   partition class, known sequential constants collapse onto the
   matching constant, everything unmergeable (ports, components on
   combinational cycles) gets a unique key. *)
type key =
  | KConst of bool
  | KUniq of int
  | KDff of int
  | KInv of int
  | KAnd of int * int
  | KOr of int * int
  | KXor of int * int

let signatures t =
  let nl = t.nl in
  let n = Netlist.size nl in
  let s = Sim.packed_create nl t.lv in
  let st = Random.State.make [| 0xC1A5; n |] in
  Sim.packed_reset s;
  let h = Array.make n 0 in
  for _ = 1 to 16 do
    List.iter
      (fun (nm, _) -> Sim.packed_set_input s nm (P.random_word st))
      nl.Netlist.inputs;
    Sim.packed_settle s;
    for i = 0 to n - 1 do
      h.(i) <- (h.(i) * 31) + Sim.packed_value s i
    done;
    Sim.packed_tick s
  done;
  h

let comb_ids t consts dff_class =
  let nl = t.nl in
  let n = Netlist.size nl in
  let ids = Array.make n (-1) in
  let table : (key, int) Hashtbl.t = Hashtbl.create ((2 * n) + 16) in
  let fresh = ref 0 in
  let id_of key =
    match Hashtbl.find_opt table key with
    | Some id -> id
    | None ->
      let id = !fresh in
      incr fresh;
      Hashtbl.add table key id;
      id
  in
  Array.iteri
    (fun i c ->
      if t.cyclic.(i) then ids.(i) <- id_of (KUniq i)
      else
        match T.to_bool consts.(i) with
        | Some b -> ids.(i) <- id_of (KConst b)
        | None -> (
          match c with
          | Netlist.Inport _ -> ids.(i) <- id_of (KUniq i)
          | Netlist.Constant b -> ids.(i) <- id_of (KConst b)
          | Netlist.Dffc _ -> ids.(i) <- id_of (KDff dff_class.(i))
          | _ -> ()))
    nl.Netlist.components;
  Array.iter
    (fun i ->
      if ids.(i) < 0 then begin
        let fi k = ids.(nl.Netlist.fanin.(i).(k)) in
        let key =
          match nl.Netlist.components.(i) with
          | Netlist.Invc -> KInv (fi 0)
          | Netlist.And2c ->
            let a = fi 0 and b = fi 1 in
            KAnd (min a b, max a b)
          | Netlist.Or2c ->
            let a = fi 0 and b = fi 1 in
            KOr (min a b, max a b)
          | Netlist.Xor2c ->
            let a = fi 0 and b = fi 1 in
            KXor (min a b, max a b)
          | Netlist.Outport _ -> KUniq i
          | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ ->
            assert false
        in
        ids.(i) <- id_of key
      end)
    t.lv.Levelize.order;
  (* anything levelization didn't order and the source pass didn't key
     stays unmergeable — unique is always sound *)
  for i = 0 to n - 1 do
    if ids.(i) < 0 then ids.(i) <- id_of (KUniq i)
  done;
  ids

let classes t =
  match t.classes_ with
  | Some c -> c
  | None ->
    let nl = t.nl in
    let n = Netlist.size nl in
    let consts = constants t in
    let sigs = if t.lv.Levelize.cyclic = [] then Some (signatures t) else None in
    (* initial partition: power-up value, split by random signature *)
    let cls = Array.make n (-1) in
    let table = Hashtbl.create 16 in
    let count = ref 0 in
    Array.iteri
      (fun i c ->
        match c with
        | Netlist.Dffc b ->
          let key = (b, match sigs with Some h -> h.(i) | None -> 0) in
          cls.(i) <-
            (match Hashtbl.find_opt table key with
            | Some k -> k
            | None ->
              let k = !count in
              incr count;
              Hashtbl.add table key k;
              k)
        | _ -> ())
      nl.Netlist.components;
    (* refine by the data input's structural id until stable; keys
       include the old class, so blocks only ever split, and an
       unchanged count means an unchanged partition *)
    let rec refine cls count =
      let ids = comb_ids t consts cls in
      let table = Hashtbl.create 16 in
      let fresh = ref 0 in
      let cls' = Array.make n (-1) in
      Array.iteri
        (fun i c ->
          match c with
          | Netlist.Dffc _ ->
            let key = (cls.(i), ids.(nl.Netlist.fanin.(i).(0))) in
            cls'.(i) <-
              (match Hashtbl.find_opt table key with
              | Some k -> k
              | None ->
                let k = !fresh in
                incr fresh;
                Hashtbl.add table key k;
                k)
          | _ -> ())
        nl.Netlist.components;
      if !fresh = count then ids else refine cls' !fresh
    in
    let ids = refine cls !count in
    let groups : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i c ->
        let mergeable =
          match c with
          | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
          | Netlist.Dffc _ ->
            true
          | _ -> false
        in
        if mergeable && (not t.cyclic.(i)) && not (T.is_known consts.(i)) then
          let prev =
            match Hashtbl.find_opt groups ids.(i) with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace groups ids.(i) (i :: prev))
      nl.Netlist.components;
    let out =
      Hashtbl.fold
        (fun _ members acc ->
          match members with
          | _ :: _ :: _ -> List.rev members :: acc
          | _ -> acc)
        groups []
    in
    let out = List.sort compare out in
    t.classes_ <- Some out;
    out

(* Stats ------------------------------------------------------------------ *)

let stats t =
  [
    ("constants", snd (constants_full t));
    ("observable", snd (observable_full t));
    ("reaching-x", snd (reaching_full t));
  ]

(* Diagnostics ------------------------------------------------------------ *)

let take8 l = List.filteri (fun k _ -> k < 8) l

let diagnostics t =
  let ds = ref [] in
  (match stuck_registers t with
  | [] -> ()
  | stuck ->
    let witness =
      take8
        (List.map
           (fun (i, b) ->
             Printf.sprintf "%s=%c" (label t i) (if b then '1' else '0'))
           stuck)
    in
    ds :=
      {
        Diagnostic.rule = "stuck-register";
        severity = Diagnostic.Warning;
        components = List.map fst stuck;
        witness;
        message =
          Printf.sprintf
            "%d flip flop(s) provably hold their power-up value forever \
             (sequential constant from reset)"
            (List.length stuck);
      }
      :: !ds);
  (match masked t with
  | [] -> ()
  | m ->
    ds :=
      {
        Diagnostic.rule = "unobservable-logic";
        severity = Diagnostic.Warning;
        components = m;
        witness = take8 (List.map (label t) m);
        message =
          Printf.sprintf
            "%d component(s) reach output ports only through \
             constant-masked paths (never observable)"
            (List.length m);
      }
      :: !ds);
  (match classes t with
  | [] -> ()
  | cls ->
    let dup = List.concat_map List.tl cls in
    let witness =
      take8
        (List.map
           (fun c ->
             match c with
             | rep :: next :: _ ->
               Printf.sprintf "%s = %s" (label t next) (label t rep)
             | _ -> assert false)
           cls)
    in
    ds :=
      {
        Diagnostic.rule = "redundant-logic";
        severity = Diagnostic.Warning;
        components = List.sort compare dup;
        witness;
        message =
          Printf.sprintf
            "%d component(s) duplicate equivalent logic across %d \
             class(es) (mergeable)"
            (List.length dup) (List.length cls);
      }
      :: !ds);
  List.rev !ds
