(* Tests for the unified job-graph scheduler, the compiled-circuit
   cache, the netlist content digest and incremental recompilation
   (Kernel.patch) — plus the soak check that every client rewired onto
   the scheduler stays bit-identical to its sequential baseline. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Serial = Hydra_netlist.Serial
module Layout = Hydra_netlist.Layout
module Kernel = Hydra_engine.Kernel
module Wide = Hydra_engine.Compiled_wide
module Scheduler = Hydra_engine.Scheduler
module Cache = Hydra_engine.Cache
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Campaign = Hydra_verify.Campaign
module Equiv = Hydra_verify.Equiv
module Certify = Hydra_analyze.Certify

(* Small fixture netlists ---------------------------------------------- *)

let ripple_netlist n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.extract ~inputs:(xs @ ys)
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let wallace_netlist n =
  let module W = Hydra_circuits.Wallace.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let prod = W.multw xs ys in
  let regd = List.map G.dff prod in
  N.of_graph ~outputs:(List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) regd)

(* Flip one mid-netlist And2c to Or2c (same fanin): the canonical
   single-gate edit.  Returns the edited netlist and the site. *)
let flip_one_gate nl =
  let n = N.size nl in
  let site = ref (-1) in
  (* pick the middle And2c so the edit sits deep in the circuit *)
  let ands = ref [] in
  Array.iteri
    (fun i c -> if c = N.And2c then ands := i :: !ands)
    nl.N.components;
  let ands = Array.of_list (List.rev !ands) in
  if Array.length ands = 0 then Alcotest.fail "fixture has no And2c";
  site := ands.(Array.length ands / 2);
  let components = Array.copy nl.N.components in
  components.(!site) <- N.Or2c;
  ({ nl with N.components }, !site, n)

(* Scheduler ----------------------------------------------------------- *)

let scheduler_tests =
  [
    tc "deps and priorities order claims" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let order = ref [] in
        let mark tag ~member:_ _ = order := tag :: !order in
        let a = Scheduler.submit ~name:"a" sch ~tasks:1 (mark "a") in
        let b =
          Scheduler.submit ~name:"b" ~deps:[ a ] sch ~tasks:1 (mark "b")
        in
        (* c is ready and higher priority than a, so it claims first even
           though it was submitted last *)
        let c =
          Scheduler.submit ~name:"c" ~priority:5 sch ~tasks:1 (mark "c")
        in
        Scheduler.run sch;
        List.iter
          (fun j ->
            check_bool (Scheduler.job_name j) true
              (Scheduler.status sch j = Scheduler.Done))
          [ a; b; c ];
        check_bool "c before a before b" true
          (List.rev !order = [ "c"; "a"; "b" ]);
        Scheduler.shutdown sch);
    tc "zero-task job is a join point" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let hits = Atomic.make 0 in
        let a =
          Scheduler.submit ~name:"a" sch ~tasks:3 (fun ~member:_ _ ->
              Atomic.incr hits)
        in
        let join = Scheduler.submit ~name:"join" ~deps:[ a ] sch ~tasks:0
            (fun ~member:_ _ -> assert false)
        in
        Scheduler.run sch;
        check_int "tasks ran" 3 (Atomic.get hits);
        check_bool "join done" true
          (Scheduler.status sch join = Scheduler.Done);
        Scheduler.shutdown sch);
    tc "dependency cycle rejected with witness" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let a = Scheduler.submit ~name:"a" sch ~tasks:1 (fun ~member:_ _ -> ()) in
        let b =
          Scheduler.submit ~name:"b" ~deps:[ a ] sch ~tasks:1
            (fun ~member:_ _ -> ())
        in
        Scheduler.depend sch ~job:a ~on:[ b ];
        (match Scheduler.run sch with
        | () -> Alcotest.fail "cycle not detected"
        | exception Scheduler.Dependency_cycle w ->
          check_bool "witness names both jobs" true
            (List.sort compare w = [ "a"; "b" ]));
        (* the pool must remain usable after the rejected run *)
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 5 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "pool reusable after cycle" 5 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "cancellation mid-run leaves pool reusable" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let late_ran = Atomic.make 0 in
        let late = ref None in
        let _early =
          Scheduler.submit ~name:"early" sch ~tasks:4 (fun ~member:_ i ->
              if i = 0 then Scheduler.cancel sch (Option.get !late))
        in
        late :=
          Some
            (Scheduler.submit ~name:"late" ~priority:(-1) sch ~tasks:100
               (fun ~member:_ _ -> Atomic.incr late_ran));
        Scheduler.run sch;
        check_bool "late cancelled" true
          (Scheduler.status sch (Option.get !late) = Scheduler.Cancelled);
        check_bool "late did not run to completion" true
          (Atomic.get late_ran < 100);
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 7 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "pool reusable after cancel" 7 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "exception fails its job, siblings and pool survive" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let sibling_hits = Atomic.make 0 in
        let bad =
          Scheduler.submit ~name:"bad" sch ~tasks:3 (fun ~member:_ i ->
              if i = 1 then failwith "boom")
        in
        let dependent =
          Scheduler.submit ~name:"dependent" ~deps:[ bad ] sch ~tasks:2
            (fun ~member:_ _ -> assert false)
        in
        let sibling =
          Scheduler.submit ~name:"sibling" sch ~tasks:20 (fun ~member:_ _ ->
              Atomic.incr sibling_hits)
        in
        Scheduler.run sch;
        (match Scheduler.status sch bad with
        | Scheduler.Failed (Failure m) -> check_string "payload" "boom" m
        | _ -> Alcotest.fail "bad not Failed");
        check_bool "dependent cancelled" true
          (Scheduler.status sch dependent = Scheduler.Cancelled);
        check_bool "sibling done" true
          (Scheduler.status sch sibling = Scheduler.Done);
        check_int "sibling ran fully" 20 (Atomic.get sibling_hits);
        (* and run_tasks re-raises in the caller *)
        (match Scheduler.run_tasks sch 1 (fun ~member:_ _ -> failwith "again") with
        | () -> Alcotest.fail "run_tasks swallowed the failure"
        | exception Failure m -> check_string "re-raised" "again" m);
        Scheduler.shutdown sch);
    tc "progress callback counts to total" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let seen = ref [] in
        let j =
          Scheduler.submit ~name:"p"
            ~progress:(fun ~done_ ~total ->
              check_int "total" 4 total;
              seen := done_ :: !seen)
            sch ~tasks:4
            (fun ~member:_ _ -> ())
        in
        Scheduler.run sch;
        check_bool "done" true (Scheduler.status sch j = Scheduler.Done);
        check_int_list "monotone on one domain" [ 1; 2; 3; 4 ]
          (List.rev !seen);
        Scheduler.shutdown sch);
    qc ~count:30 "every task of every job runs exactly once"
      QCheck2.Gen.(
        pair (int_range 1 4)
          (list_size (int_range 1 8) (pair (int_range 0 9) (int_range 0 5))))
      (fun (domains, specs) ->
        let sch = Scheduler.create ~domains () in
        let nmembers = Scheduler.domains sch in
        let counters =
          List.map
            (fun (tasks, priority) ->
              let hits = Array.make (max tasks 1) 0 in
              let bad = Atomic.make false in
              let j =
                Scheduler.submit ~priority sch ~tasks (fun ~member i ->
                    if member < 0 || member >= nmembers then
                      Atomic.set bad true;
                    (* tasks of one job are claimed disjointly *)
                    hits.(i) <- hits.(i) + 1)
              in
              (j, tasks, hits, bad))
            specs
        in
        Scheduler.run sch;
        let ok =
          List.for_all
            (fun (j, tasks, hits, bad) ->
              Scheduler.status sch j = Scheduler.Done
              && (not (Atomic.get bad))
              && Array.for_all (fun h -> h = 1) (Array.sub hits 0 tasks))
            counters
        in
        Scheduler.shutdown sch;
        ok);
    qc ~count:200 "chunking partitions [0, total)"
      QCheck2.Gen.(
        triple (int_range 0 500) (int_range 1 130) (int_range 0 4))
      (fun (total, lanes, reserved) ->
        if reserved >= lanes then
          match Scheduler.chunking ~reserved ~lanes total with
          | exception Invalid_argument _ -> true
          | _ -> false
        else begin
          let ch = Scheduler.chunking ~reserved ~lanes total in
          let covered = Array.make (max total 1) 0 in
          for c = 0 to ch.Scheduler.count - 1 do
            let lo, hi = ch.Scheduler.bounds c in
            if hi - lo > ch.Scheduler.per_chunk || lo >= hi then
              Alcotest.fail "bad chunk bounds";
            for i = lo to hi - 1 do
              covered.(i) <- covered.(i) + 1
            done
          done;
          ch.Scheduler.per_chunk = lanes - reserved
          && (total = 0 || Array.for_all (fun c -> c = 1) covered)
          && (total > 0 || ch.Scheduler.count = 0)
        end);
  ]

(* Digest -------------------------------------------------------------- *)

(* The canonical text [Netlist.digest] hashed before its int-array DFS
   and digit writer: a list stack, a reversed order list, [string_of_int]
   and [Printf] — kept as the oracle that the bytes did not change. *)
let reference_digest (t : N.t) =
  let n = N.size t in
  let canon = Array.make n (-1) in
  let on_stack = Array.make n false in
  let next = ref 0 in
  let rev_order = ref [] in
  let visit root =
    if canon.(root) < 0 && not on_stack.(root) then begin
      on_stack.(root) <- true;
      let stack = ref [ (root, 0) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (i, port) :: rest ->
          let fi = t.N.fanin.(i) in
          if port < Array.length fi then begin
            stack := (i, port + 1) :: rest;
            let c = fi.(port) in
            if canon.(c) < 0 && not on_stack.(c) then begin
              on_stack.(c) <- true;
              stack := (c, 0) :: !stack
            end
          end
          else begin
            on_stack.(i) <- false;
            canon.(i) <- !next;
            incr next;
            rev_order := i :: !rev_order;
            stack := rest
          end
      done
    end
  in
  let by_name l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
  List.iter (fun (_, i) -> visit i) (by_name t.N.outputs);
  List.iter (fun (_, i) -> visit i) (by_name t.N.inputs);
  let token = function
    | N.Dffc b -> if b then "dff1" else "dff0"
    | c -> N.component_name c
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "hydra-digest 1\n";
  List.iter
    (fun i ->
      Buffer.add_string buf (token t.N.components.(i));
      Array.iter
        (fun c ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int canon.(c)))
        t.N.fanin.(i);
      List.iter
        (fun nm ->
          Buffer.add_string buf " !";
          Buffer.add_string buf nm)
        t.N.names.(i);
      Buffer.add_char buf '\n')
    (List.rev !rev_order);
  let port label l =
    List.iter
      (fun (s, i) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %s %d\n" label s canon.(i)))
      (by_name l)
  in
  port "input" t.N.inputs;
  port "output" t.N.outputs;
  let orphans = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      if canon.(i) < 0 then begin
        let tok = token c in
        Hashtbl.replace orphans tok
          (1 + Option.value ~default:0 (Hashtbl.find_opt orphans tok))
      end)
    t.N.components;
  List.iter
    (fun (tok, count) ->
      Buffer.add_string buf (Printf.sprintf "orphan %s %d\n" tok count))
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) orphans []));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Raw netlists for the digest oracle: the levelizer's random netlists
   (combinational cycles, dff loops, unreachable components), with labels
   on some components and, when [drop] is set, the last input port left
   out of the port list, so an undeclared inport is an orphan too. *)
let gen_digest_raw =
  QCheck2.Gen.(triple Test_levelize.gen_raw (int_bound 1000) bool)

let build_digest_raw (g, label_seed, drop) =
  let nl = Test_levelize.build_raw g in
  let names =
    Array.init (N.size nl) (fun i ->
        match (i * 7919 + label_seed) mod 5 with
        | 0 -> [ Printf.sprintf "n%d" i ]
        | 1 -> [ "q"; Printf.sprintf "m%d" (i + label_seed) ]
        | _ -> [])
  in
  let inputs =
    match List.rev nl.N.inputs with
    | _ :: rest when drop -> List.rev rest
    | _ -> nl.N.inputs
  in
  { nl with N.names; inputs }

let digest_tests =
  [
    tc "digest is stable across Serial round-trips" (fun () ->
        List.iter
          (fun nl ->
            let d = N.digest nl in
            let rt = Serial.of_string (Serial.to_string nl) in
            check_string "round-trip digest" d (N.digest rt);
            let rt2 = Serial.of_string (Serial.to_string rt) in
            check_string "twice round-tripped" d (N.digest rt2))
          [ ripple_netlist 6; wallace_netlist 8 ]);
    tc "digest is insensitive to rank-major renumbering" (fun () ->
        List.iter
          (fun nl ->
            let rm = Layout.rank_major nl in
            check_bool "renumbering really happened" true (rm <> nl);
            check_string "rank-major digest" (N.digest nl) (N.digest rm);
            (* and the round-trip of the renumbered netlist too *)
            check_string "rank-major round-trip" (N.digest nl)
              (N.digest (Serial.of_string (Serial.to_string rm))))
          [ ripple_netlist 6; wallace_netlist 8 ]);
    tc "distinct circuits get distinct digests" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let d1 = N.digest (N.of_graph ~outputs:[ ("y", G.and2 a b) ]) in
        let d2 = N.digest (N.of_graph ~outputs:[ ("y", G.or2 a b) ]) in
        let d3 = N.digest (N.of_graph ~outputs:[ ("z", G.and2 a b) ]) in
        check_bool "and <> or" true (d1 <> d2);
        check_bool "output name matters" true (d1 <> d3);
        check_bool "ripple <> wallace" true
          (N.digest (ripple_netlist 4) <> N.digest (wallace_netlist 4)));
    qc ~count:500 "digest hashes the same bytes as the list-based builder"
      gen_digest_raw (fun g ->
        let nl = build_digest_raw g in
        N.digest nl = reference_digest nl);
    tc "digest oracle: random netlists hit names, orphans and cycles"
      (fun () ->
        let st = Random.State.make [| 23 |] in
        let named = ref false and orphan = ref false and cycle = ref false in
        for _ = 1 to 300 do
          let nl =
            build_digest_raw (QCheck2.Gen.generate1 ~rand:st gen_digest_raw)
          in
          if Array.exists (fun l -> l <> []) nl.N.names then named := true;
          (* an orphan: a component no port reaches through fanin edges *)
          let reached = Array.make (N.size nl) false in
          let rec mark i =
            if not reached.(i) then begin
              reached.(i) <- true;
              Array.iter mark nl.N.fanin.(i)
            end
          in
          List.iter (fun (_, i) -> mark i) (nl.N.outputs @ nl.N.inputs);
          if Array.exists not reached then orphan := true;
          let lv = Hydra_netlist.Levelize.compute nl in
          if lv.Hydra_netlist.Levelize.cyclic <> [] then cycle := true
        done;
        check_bool "labels" true !named;
        check_bool "orphans" true !orphan;
        check_bool "combinational cycles" true !cycle);
    tc "digest = the list-based builder on the catalogue" (fun () ->
        List.iter
          (fun (name, nl) ->
            check_string name (reference_digest nl) (N.digest nl))
          (Lazy.force Catalogue.all));
  ]

(* Cache --------------------------------------------------------------- *)

let cache_tests =
  [
    tc "hit/miss/eviction counters and warm replicas" (fun () ->
        let cache = Cache.create ~capacity:4 () in
        let nl = ripple_netlist 4 in
        (* cold wide build = program miss + wide miss *)
        let w1 = Cache.wide cache nl in
        let s = Cache.stats cache in
        check_int "cold misses" 2 s.Cache.misses;
        check_int "cold hits" 0 s.Cache.hits;
        check_int "entries" 2 s.Cache.entries;
        (* warm build = one wide hit, no compilation *)
        let w2 = Cache.wide cache nl in
        let s = Cache.stats cache in
        check_int "warm misses" 2 s.Cache.misses;
        check_int "warm hits" 1 s.Cache.hits;
        (* a program request under the same flags also hits *)
        let _p = Cache.compile cache nl in
        check_int "program hit" 2 (Cache.stats cache).Cache.hits;
        (* replicas are behaviorally the fresh engine *)
        let fresh = Wide.create nl in
        let inputs =
          List.map
            (fun (name, _) -> (name, [ 0x2a; 0x15; 0x3f ]))
            nl.N.inputs
        in
        let expect = Wide.run_packed fresh ~inputs ~cycles:3 in
        check_bool "replica 1 identical" true
          (Wide.run_packed w1 ~inputs ~cycles:3 = expect);
        check_bool "replica 2 identical" true
          (Wide.run_packed w2 ~inputs ~cycles:3 = expect));
    tc "distinct flags and flavors get distinct entries" (fun () ->
        let cache = Cache.create () in
        let nl = ripple_netlist 4 in
        let _ = Cache.compile cache nl in
        let _ = Cache.compile cache ~fuse:false nl in
        let _ = Cache.compile cache ~k:4 nl in
        let _ = Cache.slab cache ~k:4 nl in
        let s = Cache.stats cache in
        (* program(fuse), program(nofuse), program(k=4), slab(k=4): the
           slab reuses the k=4 program (hit) and adds its own entry *)
        check_int "entries" 4 s.Cache.entries;
        check_int "slab program reuse" 1 s.Cache.hits);
    tc "LRU eviction evicts the stalest entry" (fun () ->
        let cache = Cache.create ~capacity:2 () in
        let a = ripple_netlist 3 and b = ripple_netlist 4 and c = ripple_netlist 5 in
        let _ = Cache.compile cache a in
        let _ = Cache.compile cache b in
        let _ = Cache.compile cache a in  (* refresh a: b is now LRU *)
        let _ = Cache.compile cache c in  (* evicts b *)
        let s = Cache.stats cache in
        check_int "evictions" 1 s.Cache.evictions;
        check_int "entries at capacity" 2 s.Cache.entries;
        let _ = Cache.compile cache a in
        check_int "a survived (hit)" 2 (Cache.stats cache).Cache.hits;
        let _ = Cache.compile cache b in
        check_int "b was evicted (miss)" 4 (Cache.stats cache).Cache.misses);
    tc "index-permuted twin shares a digest but not an entry" (fun () ->
        let cache = Cache.create () in
        let nl = ripple_netlist 5 in
        let rm = Layout.rank_major nl in
        check_string "same digest" (N.digest nl) (N.digest rm);
        let p1 = Cache.compile cache nl in
        let p2 = Cache.compile cache rm in
        let s = Cache.stats cache in
        check_int "two entries" 2 s.Cache.entries;
        check_int "no false hit" 2 s.Cache.misses;
        (* structurally different presentations got distinct programs *)
        check_bool "distinct programs" true (p1 != p2));
  ]

(* Kernel.patch -------------------------------------------------------- *)

let patch_tests =
  [
    tc "single-gate edit of wallace:64 recompiles <10%, certified" (fun () ->
        let nl = wallace_netlist 64 in
        let prog = Kernel.compile nl in
        (* edits are expressed against the program's (post-relayout)
           netlist index space *)
        let nl', site, _ = flip_one_gate prog.Kernel.netlist in
        let prog', st = Kernel.patch prog nl' ~edited:[ site ] in
        check_int "one edit" 1 st.Kernel.p_edited;
        check_bool
          (Printf.sprintf "recompiled %d of %d components"
             st.Kernel.p_comps_recompiled st.Kernel.p_comps_total)
          true
          (st.Kernel.p_comps_recompiled * 10 < st.Kernel.p_comps_total);
        check_bool "patched netlist installed" true (prog'.Kernel.netlist = nl');
        (* translation-validate the patched program against a fresh full
           compile of the edited netlist *)
        Certify.ensure (Equiv.certify_patch prog'));
    tc "patch = full recompile behavior on small edits" (fun () ->
        let nl = ripple_netlist 8 in
        List.iter
          (fun fuse ->
            let prog = Kernel.compile ~fuse nl in
            let nl', site, _ = flip_one_gate prog.Kernel.netlist in
            let prog', _ = Kernel.patch prog nl' ~edited:[ site ] in
            Certify.ensure (Equiv.certify_patch prog'))
          [ true; false ]);
    tc "patch rejects undeclared edits and non-gate sites" (fun () ->
        let nl = ripple_netlist 4 in
        let prog = Kernel.compile nl in
        let nl', site, _ = flip_one_gate prog.Kernel.netlist in
        (* the edit exists but is not declared *)
        (match Kernel.patch prog nl' ~edited:[] with
        | _ -> Alcotest.fail "undeclared edit accepted"
        | exception Invalid_argument _ -> ());
        (* declaring a port site is rejected *)
        let inport =
          let r = ref (-1) in
          Array.iteri
            (fun i c -> match c with N.Inport _ when !r < 0 -> r := i | _ -> ())
            prog.Kernel.netlist.N.components;
          !r
        in
        (match Kernel.patch prog nl' ~edited:[ site; inport ] with
        | _ -> Alcotest.fail "port edit accepted"
        | exception Invalid_argument _ -> ()));
  ]

(* Soak: rewired clients vs their sequential baselines ------------------ *)

let soak_tests =
  [
    tc "mixed campaign/equiv/testbench on one team, bit-identical" (fun () ->
        let nl = ripple_netlist 6 in
        let cache = Cache.create () in
        let sch = Scheduler.create ~domains:2 () in
        (* campaign: all stuck-at faults, random stimulus *)
        let faults = Campaign.all_stuck_at nl in
        let stimulus = Campaign.random_stimulus ~seed:7 ~cycles:12 nl in
        let seq_report = Campaign.run nl ~faults ~stimulus ~cycles:12 in
        let sched_report =
          Campaign.run ~scheduler:sch ~cache nl ~faults ~stimulus ~cycles:12
        in
        check_bool "campaign verdicts identical" true
          (seq_report.Campaign.verdicts = sched_report.Campaign.verdicts);
        (* equivalence: netlist vs its rank-major re-layout *)
        let rm = Layout.rank_major nl in
        let seq_eq = Equiv.wide_random_netlists ~passes:6 nl rm in
        let sched_eq =
          Equiv.wide_random_netlists ~scheduler:sch ~cache ~passes:6 nl rm
        in
        check_bool "equiv verdict identical" true (seq_eq = sched_eq);
        check_bool "equivalent" true (Equiv.seq_equivalent sched_eq);
        (* testbench: 150 random cases chunk over 3 passes *)
        let in_names = List.map fst nl.N.inputs in
        let cases =
          (* stimulus is materialized up front: the two runs must see
             identical streams, not a shared RNG drained in run order *)
          Array.init 150 (fun k ->
              let st = Random.State.make [| 0x7ab; k |] in
              ( List.map
                  (fun name ->
                    Testbench.Bit_values
                      (name, List.init 4 (fun _ -> Random.State.bool st)))
                  in_names,
                [] ))
        in
        let seq_tb = Testbench.run_batched ~cycles:4 ~cases nl in
        let sched_tb =
          Testbench.run_batched ~scheduler:sch ~cycles:4 ~cases nl
        in
        check_bool "testbench reports identical" true (seq_tb = sched_tb);
        (* the cache served every engine of the two scheduler runs *)
        check_bool "cache was exercised" true
          ((Cache.stats cache).Cache.misses > 0);
        Scheduler.shutdown sch);
    tc "many small jobs drain on one run" (fun () ->
        let sch = Scheduler.create ~domains:3 () in
        let total = Atomic.make 0 in
        let jobs =
          List.init 40 (fun k ->
              Scheduler.submit ~name:(Printf.sprintf "j%d" k) ~priority:(k mod 3)
                sch
                ~tasks:(1 + (k mod 5))
                (fun ~member:_ _ -> Atomic.incr total))
        in
        Scheduler.run sch;
        check_bool "all done" true
          (List.for_all (fun j -> Scheduler.status sch j = Scheduler.Done) jobs);
        let expect = List.init 40 (fun k -> 1 + (k mod 5)) in
        check_int "every task ran" (List.fold_left ( + ) 0 expect)
          (Atomic.get total);
        Scheduler.shutdown sch);
  ]

let suite =
  scheduler_tests @ digest_tests @ cache_tests @ patch_tests @ soak_tests
