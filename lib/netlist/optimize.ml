(* Netlist optimization: constant folding, structural deduplication and
   dead-component elimination.

   A light logic-synthesis pass over the extracted netlist.  The paper's
   specifications deliberately describe structure ("it is poor design
   style to force the wrong component to do a job"), but generic patterns
   instantiated at concrete sizes often leave constants (e.g. a ripple
   adder's zero carry-in) and duplicated subterms; this pass cleans them
   up while provably preserving behaviour (the test suite checks
   optimized-vs-original equivalence on random circuits).

   Passes, iterated to a fixed point:
   - constant folding: a gate with constant inputs becomes a constant;
     and2(x,1) = x and friends become aliases,
   - structural dedup: two gates of the same kind with the same drivers
     are merged,
   - inverter pairs: inv(inv(x)) becomes x,
   - dead elimination: components that reach no output and no dff that
     itself reaches an output are dropped. *)

type alias = Self | To of int | Const of bool

let fold_and_dedup (nl : Netlist.t) =
  let n = Netlist.size nl in
  (* alias.(i): what component i's output is equivalent to *)
  let alias = Array.make n Self in
  let rec resolve i =
    match alias.(i) with
    | Self -> (
        match nl.Netlist.components.(i) with
        | Netlist.Constant b -> `Const b
        | _ -> `Comp i)
    | Const b -> `Const b
    | To j -> (
        match resolve j with
        | `Comp k as r ->
          if k <> j then alias.(i) <- To k;
          r
        | `Const _ as r -> r)
  in
  (* dedup keys: (operator tag, driver, driver), commutative operands in
     ascending order; a constant keys on its value *)
  let dedup : (int * int * int, int) Hashtbl.t = Hashtbl.create n in
  let changed = ref false in
  (* process in topological-ish order: index order works because the
     extraction emits children first except across feedback, where dffs
     stop folding anyway *)
  for i = 0 to n - 1 do
    let comp = nl.Netlist.components.(i) in
    let driver k =
      resolve nl.Netlist.fanin.(i).(k)
    in
    let set a =
      alias.(i) <- a;
      changed := true
    in
    (match comp with
    | Netlist.Constant b ->
      (* canonicalize multiple constants *)
      let key = (0, Bool.to_int b, 0) in
      (match Hashtbl.find_opt dedup key with
      | Some j when j <> i -> set (To j)
      | _ -> Hashtbl.replace dedup key i)
    | Netlist.Invc -> (
        match driver 0 with
        | `Const b -> set (Const (not b))
        | `Comp d -> (
            (* inv (inv x) = x *)
            match nl.Netlist.components.(d) with
            | Netlist.Invc when (match resolve nl.Netlist.fanin.(d).(0) with
                                 | `Comp _ -> true
                                 | `Const _ -> false) -> (
                match resolve nl.Netlist.fanin.(d).(0) with
                | `Comp x -> set (To x)
                | `Const b -> set (Const b))
            | _ ->
              let key = (1, d, 0) in
              (match Hashtbl.find_opt dedup key with
              | Some j when j <> i -> set (To j)
              | _ -> Hashtbl.replace dedup key i)))
    | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c -> (
        match (comp, driver 0, driver 1) with
        (* and *)
        | Netlist.And2c, `Const false, _ | Netlist.And2c, _, `Const false ->
          set (Const false)
        | Netlist.And2c, `Const true, `Const true -> set (Const true)
        | Netlist.And2c, `Const true, `Comp x
        | Netlist.And2c, `Comp x, `Const true ->
          set (To x)
        | Netlist.And2c, `Comp x, `Comp y when x = y -> set (To x)
        (* or *)
        | Netlist.Or2c, `Const true, _ | Netlist.Or2c, _, `Const true ->
          set (Const true)
        | Netlist.Or2c, `Const false, `Const false -> set (Const false)
        | Netlist.Or2c, `Const false, `Comp x
        | Netlist.Or2c, `Comp x, `Const false ->
          set (To x)
        | Netlist.Or2c, `Comp x, `Comp y when x = y -> set (To x)
        (* xor *)
        | Netlist.Xor2c, `Const a, `Const b -> set (Const (a <> b))
        | Netlist.Xor2c, `Const false, `Comp x
        | Netlist.Xor2c, `Comp x, `Const false ->
          set (To x)
        | Netlist.Xor2c, `Comp x, `Comp y when x = y -> set (Const false)
        (* dedup on normalized drivers *)
        | (Netlist.And2c | Netlist.Or2c | Netlist.Xor2c), `Comp x, `Comp y ->
          let tag =
            match comp with
            | Netlist.And2c -> 2
            | Netlist.Or2c -> 3
            | _ -> 4
          in
          let key = (tag, min x y, max x y) in
          (match Hashtbl.find_opt dedup key with
          | Some j when j <> i -> alias.(i) <- To j
          | _ -> Hashtbl.replace dedup key i)
        | _ -> ())
    | Netlist.Inport _ | Netlist.Outport _ | Netlist.Dffc _ -> ());
    ()
  done;
  (alias, resolve, !changed)

(* Rebuild a netlist applying an alias map and dropping dead components. *)
let rebuild (nl : Netlist.t) resolve =
  let n = Netlist.size nl in
  (* We may need fresh constant components for Const aliases. *)
  let const_idx = [| None; None |] in
  let live = Array.make n false in
  let need_const = [| false; false |] in
  let canonical i =
    match resolve i with
    | `Comp j -> `Comp j
    | `Const b ->
      need_const.(Bool.to_int b) <- true;
      `Const b
  in
  (* mark live from outputs, walking canonical drivers *)
  let rec mark i =
    match canonical i with
    | `Const _ -> ()
    | `Comp j ->
      if not live.(j) then begin
        live.(j) <- true;
        Array.iter mark nl.Netlist.fanin.(j)
      end
  in
  List.iter (fun (_, i) -> live.(i) <- true) nl.Netlist.outputs;
  List.iter
    (fun (_, i) -> Array.iter mark nl.Netlist.fanin.(i))
    nl.Netlist.outputs;
  (* keep declared inputs *)
  List.iter (fun (_, i) -> live.(i) <- true) nl.Netlist.inputs;
  (* assign new indices *)
  let remap = Array.make n (-1) in
  let count = ref 0 in
  for b = 0 to 1 do
    if need_const.(b) then begin
      const_idx.(b) <- Some !count;
      incr count
    end
  done;
  for i = 0 to n - 1 do
    if live.(i) then begin
      remap.(i) <- !count;
      incr count
    end
  done;
  let total = !count in
  let components = Array.make total (Netlist.Constant false) in
  let fanin = Array.make total [||] in
  let names = Array.make total [] in
  for b = 0 to 1 do
    match const_idx.(b) with
    | Some idx -> components.(idx) <- Netlist.Constant (b = 1)
    | None -> ()
  done;
  let tr i =
    match canonical i with
    | `Comp j -> remap.(j)
    | `Const b -> Option.get const_idx.(Bool.to_int b)
  in
  for i = 0 to n - 1 do
    if live.(i) then begin
      let idx = remap.(i) in
      components.(idx) <- nl.Netlist.components.(i);
      names.(idx) <- nl.Netlist.names.(i);
      fanin.(idx) <- Array.map tr nl.Netlist.fanin.(i)
    end
  done;
  {
    Netlist.components;
    fanin;
    names;
    inputs = List.map (fun (s, i) -> (s, remap.(i))) nl.Netlist.inputs;
    outputs = List.map (fun (s, i) -> (s, remap.(i))) nl.Netlist.outputs;
  }

(* Public alias application: the rebuild machinery above, driven by a
   caller-supplied alias map instead of fold_and_dedup's.  This is the
   netlist-layer half of Hydra_analyze.Sweep: the analysis computes which
   components are constant / duplicated / invisible, this function does
   the (behaviour-affecting, therefore Certify-checked) surgery.  Alias
   chains are followed with path compression; a [To] loop in a
   hand-built map is a caller bug and raises rather than spinning. *)
let apply_aliases (nl : Netlist.t) (alias : alias array) =
  let n = Netlist.size nl in
  if Array.length alias <> n then
    invalid_arg
      (Printf.sprintf
         "Optimize.apply_aliases: %d aliases for %d components"
         (Array.length alias) n);
  let alias = Array.copy alias in
  let rec resolve ?(fuel = n) i =
    if fuel < 0 then
      invalid_arg "Optimize.apply_aliases: alias cycle"
    else
      match alias.(i) with
      | Self -> (
          match nl.Netlist.components.(i) with
          | Netlist.Constant b -> `Const b
          | _ -> `Comp i)
      | Const b -> `Const b
      | To j -> (
          match resolve ~fuel:(fuel - 1) j with
          | `Comp k as r ->
            if k <> j then alias.(i) <- To k;
            r
          | `Const _ as r -> r)
  in
  (match
     List.find_opt
       (fun (_, i) -> alias.(i) <> Self)
       (nl.Netlist.inputs @ nl.Netlist.outputs)
   with
  | Some (name, _) ->
    invalid_arg
      ("Optimize.apply_aliases: port component " ^ name ^ " is aliased")
  | None -> ());
  rebuild nl (fun i -> resolve i)

let once nl =
  let _alias, resolve, changed = fold_and_dedup nl in
  (rebuild nl resolve, changed)

(* Iterate to a fixed point (size strictly decreases or aliasing stops). *)
let optimize ?(max_rounds = 20) nl =
  let rec go nl rounds =
    if rounds = 0 then nl
    else
      let nl', changed = once nl in
      if (not changed) && Netlist.size nl' >= Netlist.size nl then nl'
      else go nl' (rounds - 1)
  in
  go nl max_rounds
