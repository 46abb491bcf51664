(* The flat-array levelizer against a reference, one-pass fanout, and the
   linear-time cycle witness.

   [reference] is the list-based Kahn sort [Levelize.compute] used to be
   (a fanout of sink lists, a [Queue], an order list), kept here as the
   oracle: the flat version must agree on all five fields of
   [Levelize.t], on random netlists built to hit the awkward cases
   (combinational cycles, dff-only loops, a gate reading one driver on
   both ports) and on the CLI catalogue. *)

open Util
module N = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module D = Hydra_analyze.Diagnostic
module Lint = Hydra_analyze.Lint

(* Netlist.fanout as it was built before: cons in sink order, then
   reverse every list. *)
let reference_fanout (nl : N.t) =
  let out = Array.make (N.size nl) [] in
  Array.iteri
    (fun sink drivers ->
      Array.iteri
        (fun port driver -> out.(driver) <- (sink, port) :: out.(driver))
        drivers)
    nl.N.fanin;
  Array.map List.rev out

let reference (nl : N.t) : Levelize.t =
  let n = N.size nl in
  let levels = Array.make n (-1) in
  let remaining = Array.make n 0 in
  let fanout = reference_fanout nl in
  let is_source i =
    match nl.N.components.(i) with
    | N.Inport _ | N.Constant _ | N.Dffc _ -> true
    | N.Outport _ | N.Invc | N.And2c | N.Or2c | N.Xor2c -> false
  in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if is_source i then begin
      levels.(i) <- 0;
      Queue.add i queue
    end
    else remaining.(i) <- Array.length nl.N.fanin.(i)
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if not (is_source i) then order := i :: !order;
    List.iter
      (fun (sink, _port) ->
        match nl.N.components.(sink) with
        | N.Dffc _ -> ()
        | _ ->
          remaining.(sink) <- remaining.(sink) - 1;
          let lvl = levels.(i) + 1 in
          if lvl > levels.(sink) then levels.(sink) <- lvl;
          if remaining.(sink) = 0 then Queue.add sink queue)
      fanout.(i)
  done;
  let cyclic = ref [] in
  for i = n - 1 downto 0 do
    if (not (is_source i)) && remaining.(i) > 0 then begin
      levels.(i) <- -1;
      cyclic := i :: !cyclic
    end
  done;
  let critical = ref 0 in
  for i = 0 to n - 1 do
    match nl.N.components.(i) with
    | N.Outport _ | N.Dffc _ ->
      Array.iter
        (fun drv -> if levels.(drv) > !critical then critical := levels.(drv))
        nl.N.fanin.(i)
    | _ -> ()
  done;
  let order = Array.of_list (List.rev !order) in
  let max_level = Array.fold_left max 0 levels in
  let buckets = Array.make (max_level + 1) [] in
  Array.iter (fun i -> buckets.(levels.(i)) <- i :: buckets.(levels.(i))) order;
  {
    Levelize.levels;
    order;
    by_level = Array.map (fun l -> Array.of_list (List.rev l)) buckets;
    critical_path = !critical;
    cyclic = List.sort_uniq compare !cyclic;
  }

let same (a : Levelize.t) (b : Levelize.t) =
  a.Levelize.levels = b.Levelize.levels
  && a.Levelize.order = b.Levelize.order
  && a.Levelize.by_level = b.Levelize.by_level
  && a.Levelize.critical_path = b.Levelize.critical_path
  && a.Levelize.cyclic = b.Levelize.cyclic

(* Random raw netlists.  Component 0 is an inport; every other kind is
   drawn from the gene's first field.  Drivers are any non-outport.  In
   [`Dag] mode a gate only reads lower indices (acyclic, but dffs still
   read anything, so dff-only loops and dff self-loops appear); in [`Any]
   mode gates read anything too, so combinational cycles appear.  A set
   [share] flag makes a two-input gate read one driver on both ports. *)
let build_raw (mode, genes) =
  let genes = Array.of_list genes in
  let n = Array.length genes in
  let components =
    Array.mapi
      (fun i (kind, _, _, _) ->
        if i = 0 then N.Inport "i0"
        else
          match kind with
          | 0 -> N.Inport (Printf.sprintf "i%d" i)
          | 1 -> N.Constant (i land 1 = 0)
          | 2 -> N.Dffc (i land 2 = 0)
          | 3 -> N.Invc
          | 4 -> N.And2c
          | 5 -> N.Or2c
          | 6 -> N.Xor2c
          | _ -> N.Outport (Printf.sprintf "o%d" i))
      genes
  in
  let drivable below =
    let acc = ref [] in
    for j = below - 1 downto 0 do
      match components.(j) with N.Outport _ -> () | _ -> acc := j :: !acc
    done;
    Array.of_list !acc
  in
  let all = drivable n in
  let fanin =
    Array.mapi
      (fun i (_, a, b, share) ->
        let pool =
          match (mode, components.(i)) with
          | _, N.Dffc _ | `Any, _ -> all
          | `Dag, _ -> drivable i
        in
        let pick x = pool.(x mod Array.length pool) in
        match components.(i) with
        | N.Inport _ | N.Constant _ -> [||]
        | N.Dffc _ | N.Invc | N.Outport _ -> [| pick a |]
        | N.And2c | N.Or2c | N.Xor2c ->
          let d = pick a in
          [| d; (if share then d else pick b) |])
      genes
  in
  let ports f = List.filter_map (fun i -> f i components.(i)) (List.init n Fun.id) in
  {
    N.components;
    fanin;
    names = Array.make n [];
    inputs = ports (fun i -> function N.Inport s -> Some (s, i) | _ -> None);
    outputs = ports (fun i -> function N.Outport s -> Some (s, i) | _ -> None);
  }

let gen_raw =
  QCheck2.Gen.(
    pair
      (oneofl [ `Dag; `Any ])
      (list_size (int_range 1 60)
         (quad (int_bound 7) (int_bound 1000) (int_bound 1000) bool)))

(* a ring of [len] inverters closed through an and2 whose other leg is an
   input port: inport#0, and2#1, inv#2 .. inv#(len+1) (each reading the
   one before, inv#2 reading the and2), outport#(len+2).  The witness
   walk starts at the ring's smallest member, and2#1, so before rotation
   the driver -> sink witness ends with it: the worst case for
   rotating to the smallest member. *)
let ring len =
  let n = len + 3 in
  let components =
    Array.init n (fun i ->
        if i = 0 then N.Inport "a"
        else if i = 1 then N.And2c
        else if i = n - 1 then N.Outport "y"
        else N.Invc)
  in
  let fanin =
    Array.init n (fun i ->
        if i = 0 then [||]
        else if i = 1 then [| 0; len + 1 |]
        else if i = n - 1 then [| len + 1 |]
        else [| i - 1 |])
  in
  {
    N.components;
    fanin;
    names = Array.make n [];
    inputs = [ ("a", 0) ];
    outputs = [ ("y", n - 1) ];
  }

let suite =
  [
    qc ~count:500 "flat levelizer = list-based reference on random netlists"
      gen_raw (fun g ->
        let nl = build_raw g in
        same (Levelize.compute nl) (reference nl));
    qc ~count:300 "fanout: one pass = cons then reverse" gen_raw (fun g ->
        let nl = build_raw g in
        N.fanout nl = reference_fanout nl);
    tc "random netlists reach every awkward case" (fun () ->
        (* the generator must actually produce what the properties are
           about, or they pass vacuously *)
        let st = Random.State.make [| 13 |] in
        let seen_cycle = ref false
        and seen_dff_loop = ref false
        and seen_shared = ref false in
        for _ = 1 to 400 do
          let nl = build_raw (QCheck2.Gen.generate1 ~rand:st gen_raw) in
          let lv = Levelize.compute nl in
          if lv.Levelize.cyclic <> [] then seen_cycle := true;
          Array.iteri
            (fun i c ->
              let fi = nl.N.fanin.(i) in
              match c with
              | N.Dffc _ -> if fi.(0) = i then seen_dff_loop := true
              | N.And2c | N.Or2c | N.Xor2c ->
                if fi.(0) = fi.(1) then seen_shared := true
              | _ -> ())
            nl.N.components
        done;
        check_bool "combinational cycles" true !seen_cycle;
        check_bool "dff-only loops" true !seen_dff_loop;
        check_bool "shared-driver gates" true !seen_shared);
    tc "flat levelizer = reference on the catalogue" (fun () ->
        List.iter
          (fun (name, nl) ->
            if not (same (Levelize.compute nl) (reference nl)) then
              Alcotest.failf "%s: levelizations differ" name)
          (Lazy.force Catalogue.all));
    tc "comb-cycle witness on a 200k-gate ring is linear" (fun () ->
        let len = 200_000 in
        let nl = ring len in
        let t0 = Sys.time () in
        let ds = Lint.run nl in
        let dt = Sys.time () -. t0 in
        let d = List.find (fun d -> d.D.rule = "comb-cycle") ds in
        check_int "cyclic: and2, ring, outport" (len + 2)
          (List.length d.D.components);
        let expect =
          List.map (N.describe nl) (List.init (len + 1) (fun k -> k + 1) @ [ 1 ])
        in
        check_bool "full closed witness, from the smallest member" true
          (d.D.witness = expect);
        if dt > 10.0 then
          Alcotest.failf "Lint.run took %.1f s of CPU on a %d-gate ring" dt len);
  ]
