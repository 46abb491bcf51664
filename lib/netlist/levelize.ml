(* Levelization: assign each component the number of gate delays after the
   start of a clock cycle at which its output is valid.

   Inports, constants and dff outputs are level 0; a combinational gate is
   one more than its deepest driver; an outport takes its driver's level.
   A dff's input edge does not constrain the dff (the synchronous model
   breaks cycles at flip flops, paper section 3), so this is a Kahn
   topological sort over combinational edges only.  Components left
   unleveled form combinational cycles, which the synchronous model
   forbids — they are reported rather than silently accepted. *)

type t = {
  levels : int array;            (* per component; -1 inside a cycle *)
  order : int array;             (* combinational evaluation order *)
  by_level : int array array;    (* combinational components per level *)
  critical_path : int;
  cyclic : int list;             (* components on combinational cycles *)
}

exception Combinational_cycle of int list

let is_source (c : Netlist.component) =
  match c with
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> true
  | Netlist.Outport _ | Netlist.Invc | Netlist.And2c | Netlist.Or2c
  | Netlist.Xor2c -> false

(* Flat arrays throughout: the combinational sinks of each driver as one
   CSR table ([sinks.(off.(d)) .. sinks.(off.(d+1)-1)], one entry per
   edge, so a gate reading one driver on both ports appears twice), and
   [order] doubling as the FIFO.  Each driver's sinks are in ascending
   index order, as {!Netlist.fanout} lists them: the visit order, and
   with it [order] and [by_level], depends on it (test_levelize checks
   all fields against a list-based reference). *)
let compute (nl : Netlist.t) =
  let comps = nl.Netlist.components and fanin = nl.Netlist.fanin in
  let n = Array.length comps in
  let levels = Array.make n (-1) in
  let remaining = Array.make n 0 in
  (* edges into a dff do not constrain the dff's level: leave them out.
     [off.(d)] first counts [d]'s sinks, then (prefix sums) marks the end
     of its segment, and filling from the last sink down leaves it at the
     start, with each segment ascending. *)
  let off = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    match comps.(s) with
    | Netlist.Dffc _ -> ()
    | _ -> Array.iter (fun d -> off.(d) <- off.(d) + 1) fanin.(s)
  done;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  let sinks = Array.make off.(n) 0 in
  for s = n - 1 downto 0 do
    match comps.(s) with
    | Netlist.Dffc _ -> ()
    | _ ->
      Array.iter
        (fun d ->
          off.(d) <- off.(d) - 1;
          sinks.(off.(d)) <- s)
        fanin.(s)
  done;
  let sources = ref 0 in
  for i = 0 to n - 1 do
    if is_source comps.(i) then begin
      levels.(i) <- 0;
      incr sources
    end
    else remaining.(i) <- Array.length fanin.(i)
  done;
  (* Kahn's FIFO without the sources in it: they are visited first, in
     index order, then [order] itself is the queue — every non-source
     enters it once, when its last driver has been visited.  Every
     non-source occupies its own rank, one past its deepest driver —
     including outports, so that per-level parallel execution never
     schedules a port in the same rank as its driver.  (This does not
     affect the critical path, which is computed from the *drivers* of
     outports and dffs below.) *)
  let order = Array.make (n - !sources) 0 in
  let tail = ref 0 in
  let visit i =
    let lvl = levels.(i) + 1 in
    for e = off.(i) to off.(i + 1) - 1 do
      let s = sinks.(e) in
      remaining.(s) <- remaining.(s) - 1;
      if lvl > levels.(s) then levels.(s) <- lvl;
      if remaining.(s) = 0 then begin
        order.(!tail) <- s;
        incr tail
      end
    done
  in
  for i = 0 to n - 1 do
    if is_source comps.(i) then visit i
  done;
  let head = ref 0 in
  while !head < !tail do
    visit order.(!head);
    incr head
  done;
  (* Unleveled = never fully scheduled (a cycle member, or downstream of
     one).  Cannot be read off [levels] alone: the eager max-update above
     gives a cycle member with one acyclic driver a tentative level even
     though it never entered the queue — reset those to -1.  Ascending,
     so cycle reports are stable across runs and engines. *)
  let cyclic = ref [] in
  for i = n - 1 downto 0 do
    if (not (is_source comps.(i))) && remaining.(i) > 0 then begin
      levels.(i) <- -1;
      cyclic := i :: !cyclic
    end
  done;
  (* Critical path: deepest signal that must settle before the next tick —
     at an output port or at a dff input. *)
  let critical = ref 0 in
  for i = 0 to n - 1 do
    match comps.(i) with
    | Netlist.Outport _ | Netlist.Dffc _ ->
      Array.iter
        (fun drv -> if levels.(drv) > !critical then critical := levels.(drv))
        fanin.(i)
    | _ -> ()
  done;
  let order =
    if !tail = Array.length order then order else Array.sub order 0 !tail
  in
  (* ranks by counting sort, each in [order]'s order *)
  let max_level = Array.fold_left max 0 levels in
  let size = Array.make (max_level + 1) 0 in
  Array.iter (fun i -> size.(levels.(i)) <- size.(levels.(i)) + 1) order;
  let by_level = Array.map (fun k -> Array.make k 0) size in
  Array.fill size 0 (max_level + 1) 0;
  Array.iter
    (fun i ->
      let l = levels.(i) in
      by_level.(l).(size.(l)) <- i;
      size.(l) <- size.(l) + 1)
    order;
  { levels; order; by_level; critical_path = !critical; cyclic = !cyclic }

(* An ordered witness for the cycle report: walk driver edges inside the
   unleveled set (every unleveled component has at least one unleveled
   driver, or it would have been leveled) until a component repeats; the
   slice between the two visits is a concrete directed combinational
   cycle.  Choosing the smallest unleveled index at every step makes the
   witness deterministic; the result is rotated to start at its smallest
   member and listed in driver -> sink order, so each element drives the
   next and the last drives the first. *)
let cycle_witness (nl : Netlist.t) t =
  match t.cyclic with
  | [] -> None
  | start :: _ ->
    let pos : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let path = ref [] in
    let rec walk i k =
      match Hashtbl.find_opt pos i with
      | Some p ->
        List.filter (fun j -> Hashtbl.find pos j >= p) (List.rev !path)
      | None ->
        Hashtbl.add pos i k;
        path := i :: !path;
        let next = ref (-1) in
        Array.iter
          (fun d ->
            if t.levels.(d) < 0 && (!next = -1 || d < !next) then next := d)
          nl.Netlist.fanin.(i);
        assert (!next >= 0);
        walk !next (k + 1)
    in
    (* the walk follows fanin (sink -> driver); reverse for driver -> sink *)
    let cyc = List.rev (walk start 0) in
    (* rotate to start at the smallest member *)
    let m = List.fold_left min max_int cyc in
    let rec rotate skipped = function
      | x :: rest when x <> m -> rotate (x :: skipped) rest
      | from_m -> from_m @ List.rev skipped
    in
    Some (rotate [] cyc)

let describe_cycle (nl : Netlist.t) cyc =
  match cyc with
  | [] -> "(no cycle)"
  | first :: _ ->
    String.concat " -> "
      (List.map (Netlist.describe nl) cyc @ [ Netlist.describe nl first ])

let check nl =
  let t = compute nl in
  if t.cyclic <> [] then raise (Combinational_cycle t.cyclic);
  t

let critical_path nl = (compute nl).critical_path
