(* Fixpoint dataflow analyses over netlists.

   One worklist (chaotic-iteration) solver plus four client
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

(* Worklist solver -------------------------------------------------------- *)

(* Flat throughout: values are ints, successors one CSR table, the FIFO
   an int ring (each node is queued at most once at a time, so [n] slots
   suffice), the transfer reads the value array directly.  A visit
   allocates nothing. *)

type solve_stats = { visits : int; updates : int }
type succs = { off : int array; dst : int array }

let solve ?frozen ~succs ~transfer values =
  let n = Array.length values in
  let { off; dst } = succs in
  (* queued or frozen: never (re)queued *)
  let held = Bytes.make n '\000' in
  Option.iter
    (Array.iteri (fun i b -> if b then Bytes.set held i '\002'))
    frozen;
  let ring = Array.make (max n 1) 0 in
  let head = ref 0 and len = ref 0 in
  let push i =
    if Bytes.get held i = '\000' then begin
      Bytes.set held i '\001';
      let tail = !head + !len in
      ring.(if tail >= n then tail - n else tail) <- i;
      incr len
    end
  in
  for i = 0 to n - 1 do
    push i
  done;
  let visits = ref 0 and updates = ref 0 in
  while !len > 0 do
    let i = ring.(!head) in
    head := if !head + 1 = n then 0 else !head + 1;
    decr len;
    Bytes.set held i '\000';
    incr visits;
    let v : int = transfer values i in
    if v <> values.(i) then begin
      values.(i) <- v;
      incr updates;
      for e = off.(i) to off.(i + 1) - 1 do
        push dst.(e)
      done
    end
  done;
  (values, { visits = !visits; updates = !updates })

(* Analysis state --------------------------------------------------------- *)

type t = {
  nl : Netlist.t;
  flat : Sim.flat;
  sinks : succs;
      (* forward edges, one per fanin slot, each component's sinks
         ascending (as {!Netlist.fanout} lists them) *)
  cyclic : bool array;
  mutable constants_ : (int array * solve_stats) option;
  mutable reaching_ : (int array * solve_stats) option;
  mutable observable_ : (int array * solve_stats) option;
  mutable classes_ : int list list option;
  mutable live_ : bool array option;
}

(* The sinks CSR by counting sort: count each component's out-edges,
   prefix-sum to the end of its segment, then place sinks from the last
   one down, which leaves [off.(d)] at the start and each segment
   ascending. *)
let sinks_of (nl : Netlist.t) =
  let fanin = nl.Netlist.fanin in
  let n = Array.length fanin in
  let off = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun d -> off.(d) <- off.(d) + 1)) fanin;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  let dst = Array.make off.(n) 0 in
  for s = n - 1 downto 0 do
    let fi = fanin.(s) in
    for p = Array.length fi - 1 downto 0 do
      let d = fi.(p) in
      off.(d) <- off.(d) - 1;
      dst.(off.(d)) <- s
    done
  done;
  { off; dst }

let create nl =
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Dataflow.create: malformed netlist: " ^ reason));
  let lv = Levelize.compute nl in
  let cyclic = Array.make (Netlist.size nl) false in
  List.iter (fun i -> cyclic.(i) <- true) lv.Levelize.cyclic;
  {
    nl;
    flat = Sim.flatten nl lv;
    sinks = sinks_of nl;
    cyclic;
    constants_ = None;
    reaching_ = None;
    observable_ = None;
    classes_ = None;
    live_ = None;
  }

let netlist t = t.nl
let levelization t = t.flat.Sim.levels
let flat t = t.flat
let fanout_count t i = t.sinks.off.(i + 1) - t.sinks.off.(i)
let label t i = Netlist.describe t.nl i
let decode codes = Array.map Sim.t_of_code codes

(* Sequential constant propagation ---------------------------------------- *)

(* Known ternary codes: F 0, T 1; X is 2. *)
let x = 2
let known c = c < x

let constants_full t =
  match t.constants_ with
  | Some r -> r
  | None ->
    let f = t.flat in
    let kind = f.Sim.kind and fanin0 = f.Sim.fanin0 in
    (* start: the cycle-0 settle from reset (inputs unknown, flip flops
       at their power-up values) — a pre-fixpoint of the transfer, since
       a dff's transfer joins its power-up value back in *)
    let init = Sim.ternary_codes ~inputs:T.X ~respect_init:true ~cycles:0 f in
    let transfer v i =
      let k = kind.(i) in
      if Sim.is_gate k then Sim.ternary_gate f v i
      else if k = Sim.k_inport then x
      else if k = Sim.k_const0 then 0
      else if k = Sim.k_const1 then 1
      else
        (* dff: join its power-up value with what it loads *)
        let b = k - Sim.k_dff0 in
        if v.(fanin0.(i)) = b then b else x
    in
    let r = solve ~frozen:t.cyclic ~succs:t.sinks ~transfer init in
    t.constants_ <- Some r;
    r

let constant_codes t = fst (constants_full t)
let constants t = decode (constant_codes t)

(* Components of a kind selected by [p] whose constant is known, with
   that value, ascending. *)
let known_constants t p =
  let consts = constant_codes t and kind = t.flat.Sim.kind in
  let out = ref [] in
  for i = Array.length kind - 1 downto 0 do
    if p kind.(i) && known consts.(i) then out := (i, consts.(i) = 1) :: !out
  done;
  !out

let stuck_registers t = known_constants t Sim.is_dff

(* gates (not outports) and flip flops *)
let gate_or_dff k = (Sim.is_gate k && k <> Sim.k_outport) || Sim.is_dff k
let constant_components t = known_constants t gate_or_dff

(* Reaching-X ------------------------------------------------------------- *)

let reaching_full t =
  match t.reaching_ with
  | Some r -> r
  | None ->
    let f = t.flat in
    let kind = f.Sim.kind and fanin0 = f.Sim.fanin0 in
    let boundary k =
      if k = Sim.k_inport || k = Sim.k_const0 then 0
      else if k = Sim.k_const1 then 1
      else x
    in
    let init = Array.map boundary kind in
    let transfer v i =
      let k = kind.(i) in
      if Sim.is_gate k then Sim.ternary_gate f v i
      else if Sim.is_dff k then v.(fanin0.(i))
      else boundary k
    in
    let r = solve ~frozen:t.cyclic ~succs:t.sinks ~transfer init in
    t.reaching_ <- Some r;
    r

let reaching_x t = decode (fst (reaching_full t))

let reaching_x_outputs t =
  let r = fst (reaching_full t) in
  List.filter_map
    (fun (name, i) -> if r.(i) = x then Some name else None)
    t.nl.Netlist.outputs

(* Backward observability ------------------------------------------------- *)

let observable_full t =
  match t.observable_ with
  | Some r -> r
  | None ->
    let consts = constant_codes t in
    let kind = t.flat.Sim.kind in
    let { off; dst } = t.sinks in
    (* successors are the fanin, in port order *)
    let fanin = t.nl.Netlist.fanin in
    let n = Array.length fanin in
    let foff = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      foff.(i + 1) <- foff.(i) + Array.length fanin.(i)
    done;
    let fdst = Array.make foff.(n) 0 in
    Array.iteri
      (fun i fi -> Array.blit fi 0 fdst foff.(i) (Array.length fi))
      fanin;
    (* a sink whose own value is a known sequential constant transmits
       nothing: whatever its fanin does, its output never moves *)
    let transfer v i =
      if kind.(i) = Sim.k_outport then 1
      else begin
        let e = ref off.(i) and last = off.(i + 1) in
        while !e < last && not (consts.(dst.(!e)) = x && v.(dst.(!e)) = 1) do
          incr e
        done;
        if !e < last then 1 else 0
      end
    in
    let init = Array.map (fun k -> Bool.to_int (k = Sim.k_outport)) kind in
    let r = solve ~succs:{ off = foff; dst = fdst } ~transfer init in
    t.observable_ <- Some r;
    r

let observable t = Array.map (fun b -> b = 1) (fst (observable_full t))

(* Structural liveness: reaches an output port through fanin edges. *)
let live t =
  match t.live_ with
  | Some l -> l
  | None ->
    let f = t.flat in
    let n = Array.length f.Sim.kind in
    let live = Array.make n false in
    let stack = Array.make n 0 and sp = ref 0 in
    let mark i =
      if not live.(i) then begin
        live.(i) <- true;
        stack.(!sp) <- i;
        incr sp
      end
    in
    List.iter (fun (_, i) -> mark i) t.nl.Netlist.outputs;
    while !sp > 0 do
      decr sp;
      let i = stack.(!sp) in
      (* a source's fanin columns point at itself, already live *)
      mark f.Sim.fanin0.(i);
      mark f.Sim.fanin1.(i)
    done;
    t.live_ <- Some live;
    live

let masked t =
  let kind = t.flat.Sim.kind in
  let n = Array.length kind in
  (* structural liveness, so we don't re-report plain dead-logic *)
  let live = live t in
  let obs = fst (observable_full t) in
  let consts = constant_codes t in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if gate_or_dff kind.(i) && live.(i) && obs.(i) = 0 && not (known consts.(i))
    then out := i :: !out
  done;
  !out

(* Equivalence classes ---------------------------------------------------- *)

(* Interning int keys to dense ids: open addressing with linear probing
   over a power-of-two table sized for every key one round can intern
   (at most one per component), so it never grows.  Slot [h] is
   [slots.(2h)] (the key) and [slots.(2h + 1)] (its id, < 0 when the
   slot is free), so a probe touches one cache line and keys may be any
   int. *)
type interner = { slots : int array; shift : int }

let interner capacity =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  { slots = Array.make (2 lsl !bits) (-1); shift = Sys.int_size - !bits }

let clear it = Array.fill it.slots 0 (Array.length it.slots) (-1)

(* The id of [key], or the next [fresh] id for a new key. *)
let intern it fresh key =
  let slots = it.slots in
  let mask = (Array.length slots / 2) - 1 in
  let h = ref ((key * 0x1E3779B97F4A7C15) lsr it.shift) in
  while slots.((2 * !h) + 1) >= 0 && slots.(2 * !h) <> key do
    h := (!h + 1) land mask
  done;
  let id = slots.((2 * !h) + 1) in
  if id >= 0 then id
  else begin
    let id = !fresh in
    incr fresh;
    slots.(2 * !h) <- key;
    slots.((2 * !h) + 1) <- id;
    id
  end

(* Gate keys for one hash-consing round, packed into one int: a 2-bit
   operator tag and the operator's child ids, commutatively normalized
   for the two-input gates.  Ids take 30 bits each, hence the size limit
   in {!classes}. *)
let key_inv a = a lsl 2

let key_pair tag a b =
  let lo = min a b and hi = max a b in
  (lo lsl 32) lor (hi lsl 2) lor tag

(* 16 random cycles of the packed simulator, each flip flop's words
   hashed together (only flip flops are partitioned by signature). *)
let signatures t =
  let nl = t.nl in
  let n = Netlist.size nl in
  let s = Sim.packed_create t.flat in
  let st = Random.State.make [| 0xC1A5; n |] in
  Sim.packed_reset s;
  let h = Array.make n 0 in
  for _ = 1 to 16 do
    List.iter
      (fun (nm, _) -> Sim.packed_set_input s nm (P.random_word st))
      nl.Netlist.inputs;
    Sim.packed_settle s;
    Array.iter
      (fun i -> h.(i) <- (h.(i) * 31) + Sim.packed_value s i)
      t.flat.Sim.dffs;
    Sim.packed_tick s
  done;
  h

(* One hash-consing round: a structural id per component.  Gates get
   interned keys by operator and child ids, flip flops one id per
   partition class, known sequential constants the id of the matching
   constant, and everything unmergeable (ports, components on
   combinational cycles) a unique id.  Ids are numbered in first-use
   order. *)
let comb_ids t it consts dff_class nclasses =
  let f = t.flat in
  let kind = f.Sim.kind in
  let n = Array.length kind in
  let ids = Array.make n (-1) in
  clear it;
  let fresh = ref 0 in
  let next () =
    let id = !fresh in
    incr fresh;
    id
  in
  let const_id = [| -1; -1 |] and class_id = Array.make nclasses (-1) in
  let shared table slot =
    if table.(slot) < 0 then table.(slot) <- next ();
    table.(slot)
  in
  for i = 0 to n - 1 do
    let k = kind.(i) in
    if t.cyclic.(i) then ids.(i) <- next ()
    else if known consts.(i) then ids.(i) <- shared const_id consts.(i)
    else if k = Sim.k_inport then ids.(i) <- next ()
    else if k = Sim.k_const0 || k = Sim.k_const1 then
      ids.(i) <- shared const_id (k - Sim.k_const0)
    else if Sim.is_dff k then ids.(i) <- shared class_id dff_class.(i)
  done;
  let steps = f.Sim.steps in
  for j = 0 to (Array.length steps / 4) - 1 do
    let i = steps.((4 * j) + 3) in
    if ids.(i) < 0 then begin
      let k = steps.(4 * j) in
      let a = ids.(steps.((4 * j) + 1)) and b = ids.(steps.((4 * j) + 2)) in
      ids.(i) <-
        (if k = Sim.k_outport then next ()
         else
           intern it fresh
             (if k = Sim.k_inv then key_inv a
              else key_pair (k - Sim.k_and + 1) a b))
    end
  done;
  (* anything levelization didn't order and the source pass didn't key
     stays unmergeable — unique is always sound *)
  for i = 0 to n - 1 do
    if ids.(i) < 0 then ids.(i) <- next ()
  done;
  ids

let classes t =
  match t.classes_ with
  | Some c -> c
  | None ->
    let f = t.flat in
    let kind = f.Sim.kind and fanin0 = f.Sim.fanin0 in
    let n = Array.length kind in
    if n >= 1 lsl 30 then invalid_arg "Dataflow.classes: netlist too large";
    let consts = constant_codes t in
    let dffs = f.Sim.dffs in
    let ndffs = Array.length dffs in
    (* initial partition: power-up value, split by random signature (one
       table per power-up value, sharing the class count) *)
    let cls = Array.make n (-1) in
    let count = ref 0 in
    let sigs =
      if f.Sim.levels.Levelize.cyclic = [] then signatures t
      else Array.make n 0
    in
    let by_init = [| interner ndffs; interner ndffs |] in
    Array.iter
      (fun i ->
        cls.(i) <- intern by_init.(kind.(i) - Sim.k_dff0) count sigs.(i))
      dffs;
    (* refine by the data input's structural id until stable; keys
       include the old class, so blocks only ever split, and an
       unchanged count means an unchanged partition *)
    let it = interner n and next = by_init.(0) in
    let rec refine cls count =
      let ids = comb_ids t it consts cls count in
      clear next;
      let fresh = ref 0 in
      let cls' = Array.make n (-1) in
      Array.iter
        (fun i ->
          cls'.(i) <- intern next fresh ((cls.(i) lsl 30) lor ids.(fanin0.(i))))
        dffs;
      if !fresh = count then ids else refine cls' !fresh
    in
    let ids = refine cls !count in
    (* group mergeable components by id, consing only ids shared by two
       or more: [members.(id)] collects them ascending (filled from the
       top down), and a class is listed at its first member, so classes
       come out sorted by first member *)
    let mergeable i =
      gate_or_dff kind.(i) && (not t.cyclic.(i)) && not (known consts.(i))
    in
    let size = Array.make n 0 in
    for i = 0 to n - 1 do
      if mergeable i then size.(ids.(i)) <- size.(ids.(i)) + 1
    done;
    let members = Array.make n [] in
    for i = n - 1 downto 0 do
      if mergeable i && size.(ids.(i)) > 1 then
        members.(ids.(i)) <- i :: members.(ids.(i))
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if mergeable i then
        match members.(ids.(i)) with
        | first :: _ when first = i -> out := members.(ids.(i)) :: !out
        | _ -> ()
    done;
    let out = !out in
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

(* The first eight elements of [l], mapped by [f] (labels are built for
   the witnesses shown, not for every component). *)
let take8 f l = List.map f (List.filteri (fun k _ -> k < 8) l)

let diagnostics t =
  let ds = ref [] in
  (match stuck_registers t with
  | [] -> ()
  | stuck ->
    let witness =
      take8
        (fun (i, b) ->
          Printf.sprintf "%s=%c" (label t i) (if b then '1' else '0'))
        stuck
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
        witness = take8 (label t) m;
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
        (fun c ->
          match c with
          | rep :: next :: _ ->
            Printf.sprintf "%s = %s" (label t next) (label t rep)
          | _ -> assert false)
        cls
    in
    ds :=
      {
        Diagnostic.rule = "redundant-logic";
        severity = Diagnostic.Warning;
        components = List.sort Int.compare dup;
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
        (fun acc k -> if Sim.is_dff k then acc + 1 else acc)
        0 t.flat.Sim.kind
    in
    let sync =
      Sim.ternary_codes ~inputs:T.F ~respect_init:false ~cycles:(ndffs + 1)
        t.flat
    in
    let reaching = fst (reaching_full t) in
    for i = 0 to n - 1 do
      if reaching.(i) <> sync.(i) then
        raise
          (Fail
             (Printf.sprintf
                "reaching-x: %s is %c under the worklist fixpoint but %c \
                 after %d synchronous cycles"
                (label t i)
                (T.to_char (Sim.t_of_code reaching.(i)))
                (T.to_char (Sim.t_of_code sync.(i)))
                (ndffs + 1)))
    done;
    (* constants and equivalence classes against the packed reference
       simulator: a claimed constant must never toggle, claimed equals
       must carry equal words, on every lane of every cycle *)
    if (levelization t).Levelize.cyclic = [] then begin
      let consts = constant_codes t in
      let cls = classes t in
      let s = Sim.packed_create t.flat in
      for pass = 0 to passes - 1 do
        let st = Random.State.make [| seed; pass; cycles |] in
        Sim.packed_reset s;
        for c = 0 to cycles - 1 do
          List.iter
            (fun (nm, _) -> Sim.packed_set_input s nm (P.random_word st))
            nl.Netlist.inputs;
          Sim.packed_settle s;
          for i = 0 to n - 1 do
            if known consts.(i) then begin
              let expect = if consts.(i) = 1 then P.lane_mask else 0 in
              if Sim.packed_value s i <> expect then
                raise
                  (Fail
                     (Printf.sprintf
                        "constants: %s claimed stuck at %d but toggles at \
                         cycle %d of pass %d"
                        (label t i) consts.(i) c pass))
            end
          done;
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
