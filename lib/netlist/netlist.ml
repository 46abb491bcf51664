(* Flat netlists extracted from the graph semantics (paper section 4.4,
   second step).

   A netlist lists the components of a circuit and the connections between
   their ports; it is the fabrication interface.  Extraction traverses the
   (possibly circular) graph with an id-based visited set, so feedback
   loops — which make the graph circular, isomorphic to the schematic —
   are handled exactly once. *)

module Graph = Hydra_core.Graph

type component =
  | Inport of string
  | Outport of string
  | Constant of bool
  | Invc
  | And2c
  | Or2c
  | Xor2c
  | Dffc of bool  (* power-up value *)

type t = {
  components : component array;
  fanin : int array array;
      (* [fanin.(c)] lists the components driving each input port of [c],
         in port order *)
  names : string list array;  (* labels attached via [Graph.label] *)
  inputs : (string * int) list;   (* port name, component index *)
  outputs : (string * int) list;
}

let component_name = function
  | Inport s -> "inport:" ^ s
  | Outport s -> "outport:" ^ s
  | Constant b -> if b then "const1" else "const0"
  | Invc -> "inv"
  | And2c -> "and2"
  | Or2c -> "or2"
  | Xor2c -> "xor2"
  | Dffc _ -> "dff"

let input_arity = function
  | Inport _ | Constant _ -> 0
  | Outport _ | Invc | Dffc _ -> 1
  | And2c | Or2c | Xor2c -> 2

(* Extraction ----------------------------------------------------------- *)

let extract ~inputs ~outputs =
  (* Post-order emission — children before parents, which reproduces the
     paper's component numbering — with an on-stack marker so that the
     circular graphs produced by feedback terminate: a back edge simply
     records the target's graph id, and every fanin is translated to a
     component index once all nodes have been emitted. *)
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let on_stack : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let comps = ref [] and fanins = ref [] and names = ref [] in
  let count = ref 0 in
  let add comp fanin_ids nms =
    let idx = !count in
    incr count;
    comps := comp :: !comps;
    fanins := fanin_ids :: !fanins;
    names := nms :: !names;
    idx
  in
  let rec visit node =
    let node = Graph.resolve node in
    if
      not
        (Hashtbl.mem index node.Graph.id
        || Hashtbl.mem on_stack node.Graph.id)
    then begin
      Hashtbl.add on_stack node.Graph.id ();
      let children = Graph.children node in
      List.iter visit children;
      let comp =
        match node.Graph.def with
        | Graph.Input s -> Inport s
        | Graph.Const b -> Constant b
        | Graph.Inv _ -> Invc
        | Graph.And2 _ -> And2c
        | Graph.Or2 _ -> Or2c
        | Graph.Xor2 _ -> Xor2c
        | Graph.Dff (init, _) -> Dffc init
        | Graph.Forward _ -> assert false
      in
      let child_ids = List.map Graph.id children in
      let idx = add comp child_ids (List.rev node.Graph.names) in
      Hashtbl.remove on_stack node.Graph.id;
      Hashtbl.add index node.Graph.id idx
    end
  in
  (* Declared inputs come first (even when no gate reads them), so that a
     circuit's port list does not depend on which inputs happen to be
     used. *)
  List.iter visit inputs;
  let out_entries =
    List.map
      (fun (name, node) ->
        visit node;
        let idx = add (Outport name) [ Graph.id node ] [] in
        (name, idx))
      outputs
  in
  let n = !count in
  let components = Array.make n (Constant false) in
  let fanin = Array.make n [||] in
  let names_arr = Array.make n [] in
  List.iteri (fun i comp -> components.(n - 1 - i) <- comp) !comps;
  List.iteri
    (fun i ids ->
      fanin.(n - 1 - i) <-
        Array.of_list (List.map (fun gid -> Hashtbl.find index gid) ids))
    !fanins;
  List.iteri (fun i nm -> names_arr.(n - 1 - i) <- nm) !names;
  let inputs = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with Inport s -> inputs := (s, i) :: !inputs | _ -> ())
    components;
  {
    components;
    fanin;
    names = names_arr;
    inputs = List.rev !inputs;
    outputs = out_entries;
  }

(* Validation ----------------------------------------------------------- *)

(* Structural well-formedness: every fanin table matches its component's
   arity, every index is in bounds, nothing is driven by an outport, and
   the port lists point at the right components.  The engines index
   arrays with these numbers unchecked, so a corrupt netlist (a
   hand-edited file, a buggy transform) must be caught here, with a
   message, rather than later as an array bound violation. *)
let validate t =
  let n = Array.length t.components in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  try
    if Array.length t.fanin <> n then
      bad "fanin table has %d entries for %d components"
        (Array.length t.fanin) n;
    if Array.length t.names <> n then
      bad "names table has %d entries for %d components"
        (Array.length t.names) n;
    Array.iteri
      (fun i comp ->
        let fi = t.fanin.(i) in
        let arity = input_arity comp in
        if Array.length fi <> arity then
          bad "component %d (%s): %d fanin entries but arity %d" i
            (component_name comp) (Array.length fi) arity;
        Array.iteri
          (fun port d ->
            if d < 0 || d >= n then
              bad "component %d (%s) port %d: dangling fanin index %d \
                   (valid range 0..%d)"
                i (component_name comp) port d (n - 1)
            else
              match t.components.(d) with
              | Outport s ->
                bad "component %d (%s) port %d is driven by outport:%s" i
                  (component_name comp) port s
              | _ -> ())
          fi)
      t.components;
    List.iter
      (fun (s, i) ->
        if i < 0 || i >= n then
          bad "input port %S: component index %d out of bounds" s i
        else
          match t.components.(i) with
          | Inport s' when s' = s -> ()
          | c ->
            bad "input port %S: component %d is %s, not inport:%s" s i
              (component_name c) s)
      t.inputs;
    List.iter
      (fun (s, i) ->
        if i < 0 || i >= n then
          bad "output port %S: component index %d out of bounds" s i
        else
          match t.components.(i) with
          | Outport s' when s' = s -> ()
          | c ->
            bad "output port %S: component %d is %s, not outport:%s" s i
              (component_name c) s)
      t.outputs;
    Ok ()
  with Bad m -> Error m

(* A human label for diagnostics: kind, index, and the first attached
   [Graph.label] names when present. *)
let describe t i =
  let base =
    Printf.sprintf "%s#%d" (component_name t.components.(i)) i
  in
  match t.names.(i) with
  | [] -> base
  | nms -> Printf.sprintf "%s(%s)" base (String.concat "," nms)

(* Statistics ----------------------------------------------------------- *)

type stats = {
  gates : int;
  dffs : int;
  inports : int;
  outports : int;
  constants : int;
  total : int;
}

let stats t =
  let gates = ref 0
  and dffs = ref 0
  and ins = ref 0
  and outs = ref 0
  and consts = ref 0 in
  Array.iter
    (function
      | Invc | And2c | Or2c | Xor2c -> incr gates
      | Dffc _ -> incr dffs
      | Inport _ -> incr ins
      | Outport _ -> incr outs
      | Constant _ -> incr consts)
    t.components;
  {
    gates = !gates;
    dffs = !dffs;
    inports = !ins;
    outports = !outs;
    constants = !consts;
    total = Array.length t.components;
  }

let size t = Array.length t.components

(* Fanout: for each component, the list of (sink component, sink input
   port) pairs it drives, ascending by sink then port.  Consing from the
   last sink and port down builds each list in that order in one pass. *)
let fanout t =
  let out = Array.make (size t) [] in
  for sink = size t - 1 downto 0 do
    let drivers = t.fanin.(sink) in
    for port = Array.length drivers - 1 downto 0 do
      let driver = drivers.(port) in
      out.(driver) <- (sink, port) :: out.(driver)
    done
  done;
  out

(* Content digest ------------------------------------------------------- *)

(* [Buffer.add_string buf (string_of_int k)] without the string. *)
let add_int buf k =
  if k < 0 then Buffer.add_char buf '-';
  let k = abs k in
  let rec digits k =
    if k >= 10 then digits (k / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (k mod 10)))
  in
  digits k

(* A stable content hash: equal for netlists that differ only in
   component numbering or port-list order, different (modulo hash
   collisions) when the observable circuit differs.

   Components are renumbered canonically by an iterative post-order DFS
   over fanin edges, rooted at the output ports in name order and then
   the input ports in name order.  The traversal is determined solely by
   port names, per-component port order, and graph structure — all
   invariant under index permutations such as [Layout.rank_major] and
   under [Serial] round-trips (which may re-sort the port lists by
   component index).  Back edges through feedback loops are skipped
   exactly as in [extract], so the walk terminates on circular fanin.

   Components unreachable from any port (dead logic) contribute only
   per-kind counts: they cannot affect observable behaviour, but their
   presence still distinguishes the netlist.  Labels ([names]) travel
   with their component and are hashed too. *)
let compute_digest t =
  let n = size t in
  let canon = Array.make n (-1) in
  let on_stack = Bytes.make n '\000' in
  (* the DFS stack as two int arrays (component, next port); each
     component is pushed at most once, so [n] slots suffice *)
  let stack_node = Array.make n 0 and stack_port = Array.make n 0 in
  let sp = ref 0 in
  let order = Array.make n 0 and next = ref 0 in
  let push c =
    Bytes.set on_stack c '\001';
    stack_node.(!sp) <- c;
    stack_port.(!sp) <- 0;
    incr sp
  in
  let visit root =
    if canon.(root) < 0 && Bytes.get on_stack root = '\000' then begin
      push root;
      while !sp > 0 do
        let top = !sp - 1 in
        let i = stack_node.(top) and port = stack_port.(top) in
        let fi = t.fanin.(i) in
        if port < Array.length fi then begin
          stack_port.(top) <- port + 1;
          let c = fi.(port) in
          if canon.(c) < 0 && Bytes.get on_stack c = '\000' then push c
        end
        else begin
          Bytes.set on_stack i '\000';
          canon.(i) <- !next;
          order.(!next) <- i;
          incr next;
          decr sp
        end
      done
    end
  in
  let by_name l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
  List.iter (fun (_, i) -> visit i) (by_name t.outputs);
  List.iter (fun (_, i) -> visit i) (by_name t.inputs);
  let token = function
    | Dffc b -> if b then "dff1" else "dff0"
    | c -> component_name c
  in
  (* about one 16-byte line per component: grown at most once or twice *)
  let buf = Buffer.create (16 * (n + 64)) in
  Buffer.add_string buf "hydra-digest 1\n";
  for k = 0 to !next - 1 do
    let i = order.(k) in
    Buffer.add_string buf (token t.components.(i));
    Array.iter
      (fun c ->
        Buffer.add_char buf ' ';
        add_int buf canon.(c))
      t.fanin.(i);
    List.iter
      (fun nm ->
        Buffer.add_string buf " !";
        Buffer.add_string buf nm)
      t.names.(i);
    Buffer.add_char buf '\n'
  done;
  let port label l =
    List.iter
      (fun (s, i) ->
        Buffer.add_string buf label;
        Buffer.add_char buf ' ';
        Buffer.add_string buf s;
        Buffer.add_char buf ' ';
        add_int buf canon.(i);
        Buffer.add_char buf '\n')
      (by_name l)
  in
  port "input" t.inputs;
  port "output" t.outputs;
  let orphans = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      if canon.(i) < 0 then begin
        let tok = token c in
        Hashtbl.replace orphans tok
          (1 + Option.value ~default:0 (Hashtbl.find_opt orphans tok))
      end)
    t.components;
  List.iter
    (fun (tok, count) ->
      Buffer.add_string buf "orphan ";
      Buffer.add_string buf tok;
      Buffer.add_char buf ' ';
      add_int buf count;
      Buffer.add_char buf '\n')
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) orphans []));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The canonical traversal + MD5 above costs milliseconds on the big
   netlists — enough to dominate a warm compiled-circuit cache lookup —
   so memoize per physical netlist value.  Netlist values are only ever
   mutated while being constructed (builders patch fresh arrays before
   publishing the record), so physical identity implies content
   identity; the ephemeron keeps the memo from outliving its netlist,
   and the lock makes it safe from concurrent scheduler task bodies. *)
module Digest_memo = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let digest_memo : string Digest_memo.t = Digest_memo.create 32
let digest_memo_lock = Mutex.create ()

let digest t =
  Mutex.lock digest_memo_lock;
  let cached = Digest_memo.find_opt digest_memo t in
  Mutex.unlock digest_memo_lock;
  match cached with
  | Some d -> d
  | None ->
    let d = compute_digest t in
    Mutex.lock digest_memo_lock;
    Digest_memo.replace digest_memo t d;
    Mutex.unlock digest_memo_lock;
    d

(* [of_graph ~outputs] extracts the netlist reachable from [outputs];
   [extract ~inputs ~outputs] additionally declares input ports explicitly,
   so that unused inputs still appear in the port list. *)
let of_graph ~outputs = extract ~inputs:[] ~outputs
