(* Fixpoint dataflow analyses over netlists.

   A generic worklist (chaotic-iteration) solver plus four client
   analyses, all phrased as least fixpoints of monotone transfer
   functions over finite lattices — the classic recipe, instantiated on
   the paper's flat netlist form:

   - sequential constant propagation ({!constants}): ternary values
     under the constant-propagation order (X on top, "not a constant").
     A flip flop's abstract value is the join of its power-up value and
     everything it ever loads, so a known fixpoint value means the
     component provably holds that value at every cycle from reset, for
     every input sequence.  Registers stuck this way are dead state.

   - reaching-X ({!reaching_x}): ternary values under the information
     order (X at the bottom).  Inputs held at 0, flip flops starting at
     X, the least fixpoint is exactly the limit of Xsim's synchronous
     iteration (the per-cycle state sequence ascends the information
     order, so it converges within #dffs ticks); an output that is X in
     the fixpoint depends on power-up state *forever* — a definitive
     verdict where the lint rule's bounded [xsim_cycles] check was only
     suggestive.  {!crosscheck} verifies the two formulations agree.

   - observability ({!observable}): a backward boolean pass.  A
     component is observable when it is an output port or some sink of
     its transmits — and a sink whose own value is a known sequential
     constant transmits nothing.  Live-but-unobservable components are
     masked by constants on every path to an output: removable.

   - equivalence classes ({!classes}): partition refinement.  Flip
     flops start partitioned by power-up value (split further by a
     62-lane random-simulation signature — purely an accelerator, it
     can only make the initial partition finer, never unsound), gates
     get hash-consed structural ids with commutative normalization and
     dff fanin collapsed to its class; classes are re-split by the data
     input's id until stable.  A stable partition is a bisimulation:
     same-class components provably carry equal values at every cycle,
     so duplicates can be merged.

   Soundness of the chaotic iteration: each analysis starts at a
   pre-fixpoint (init ⊑ transfer(init) pointwise) and every transfer is
   monotone, so values only ascend and the loop terminates at the least
   fixpoint above the start, independent of visit order.  Components on
   combinational cycles are frozen at X (the conservative element of
   both ternary orders): recomputing them could descend, and the
   synchronous model forbids them anyway (comb-cycle lints as an
   error).

   Every positive verdict is falsifiable by running the circuit, and
   {!crosscheck} does exactly that against the packed reference
   simulator — an analysis calling a toggling signal constant is a hard
   failure, not a shrug. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module P = Hydra_core.Packed

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

(* Cross-check ------------------------------------------------------------ *)

let crosscheck ?(passes = 2) ?(cycles = 16) ?(seed = 0xdf1) t =
  let nl = t.nl in
  let n = Netlist.size nl in
  let exception Fail of string in
  try
    (* reaching-X: the worklist least fixpoint must equal the limit of
       synchronous Xsim iteration — the state sequence ascends the
       information order, so #dffs + 1 cycles reach the limit *)
    let ndffs =
      Array.fold_left
        (fun acc c -> match c with Netlist.Dffc _ -> acc + 1 | _ -> acc)
        0 nl.Netlist.components
    in
    let sync =
      Sim.ternary_values ~inputs:T.F ~respect_init:false ~cycles:(ndffs + 1)
        nl t.lv
    in
    let reaching = reaching_x t in
    for i = 0 to n - 1 do
      if reaching.(i) <> sync.(i) then
        raise
          (Fail
             (Printf.sprintf
                "reaching-x: %s is %c under the worklist fixpoint but %c \
                 after %d synchronous cycles"
                (label t i)
                (T.to_char reaching.(i))
                (T.to_char sync.(i))
                (ndffs + 1)))
    done;
    (* constants and equivalence classes against the packed reference
       simulator: a claimed constant must never toggle, claimed equals
       must carry equal words, on every lane of every cycle *)
    if t.lv.Levelize.cyclic = [] then begin
      let consts = constants t in
      let cls = classes t in
      let s = Sim.packed_create nl t.lv in
      for pass = 0 to passes - 1 do
        let st = Random.State.make [| seed; pass; cycles |] in
        Sim.packed_reset s;
        for c = 0 to cycles - 1 do
          List.iter
            (fun (nm, _) -> Sim.packed_set_input s nm (P.random_word st))
            nl.Netlist.inputs;
          Sim.packed_settle s;
          Array.iteri
            (fun i v ->
              match T.to_bool v with
              | Some b ->
                let expect = if b then P.lane_mask else 0 in
                if Sim.packed_value s i <> expect then
                  raise
                    (Fail
                       (Printf.sprintf
                          "constants: %s claimed stuck at %d but toggles \
                           at cycle %d of pass %d"
                          (label t i) (Bool.to_int b) c pass))
              | None -> ())
            consts;
          List.iter
            (fun members ->
              match members with
              | rep :: rest ->
                let w = Sim.packed_value s rep in
                List.iter
                  (fun j ->
                    if Sim.packed_value s j <> w then
                      raise
                        (Fail
                           (Printf.sprintf
                              "classes: %s and %s diverge at cycle %d of \
                               pass %d"
                              (label t rep) (label t j) c pass)))
                  rest
              | [] -> ())
            cls;
          Sim.packed_tick s
        done
      done
    end;
    Ok ()
  with Fail m -> Error m
