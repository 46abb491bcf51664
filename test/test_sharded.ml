(* Tests for the domain-sharded wide engine (Sharded) and the code that
   was rewired onto it: every sharded result must be bit-identical to the
   sequential wide engine (and hence, via Test_wide, to the scalar and
   stream semantics), regardless of the domain count; and the rank-major
   re-layout / kernel-fusion passes the engine runs by default must be
   pure re-encodings. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Layout = Hydra_netlist.Layout
module Packed = Hydra_core.Packed
module Compiled = Hydra_engine.Compiled
module Wide = Hydra_engine.Compiled_wide
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Equiv = Hydra_verify.Equiv
module Driver = Hydra_cpu.Driver

(* Random packed lane-batches for a Test_wide.netlist_of circuit (inputs
   a/b/c): [batch b] is a [(name, word list)] stimulus of [cycles]
   packed words per input. *)
let gen_batches ~batches ~cycles st =
  Array.init batches (fun _ ->
      List.map
        (fun name ->
          ( name,
            List.init cycles (fun _ ->
                Random.State.bits st
                lor (Random.State.bits st lsl 30)
                lor (Random.State.bits st lsl 60)
                land Wide.lane_mask) ))
        [ "a"; "b"; "c" ])

let suite =
  [
    (* the heart of the PR: sharded batches = sequential wide runs *)
    qc ~count:20 "run_batches = sequential run_packed, any domain count"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let st = Random.State.make [| 0x5aded; List.length nodes |] in
        let batches = gen_batches ~batches:7 ~cycles:9 st in
        let wide = Wide.create nl in
        let expect =
          Array.map
            (fun inputs ->
              Wide.reset wide;
              Wide.run_packed wide ~inputs ~cycles:9)
            batches
        in
        List.for_all
          (fun domains ->
            let sh = Sharded.create ~domains nl in
            let got = Sharded.run_batches sh ~batches ~cycles:9 in
            Sharded.shutdown sh;
            got = expect)
          [ 1; 3 ]);
    tc "run_vectors = scalar settle across domains" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 6 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 6 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
        let nl =
          N.extract ~inputs:(xs @ ys)
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let st = Random.State.make [| 77 |] in
        (* 200 vectors: more than 3 wide passes, so jobs really shard *)
        let vectors =
          Array.init 200 (fun _ -> Array.init 12 (fun _ -> Random.State.bool st))
        in
        let sh = Sharded.create ~domains:3 nl in
        let got = Sharded.run_vectors sh vectors in
        Sharded.shutdown sh;
        let scalar = Compiled.create nl in
        let in_names = List.map fst nl.N.inputs in
        Array.iteri
          (fun k v ->
            Compiled.reset scalar;
            List.iteri
              (fun j name -> Compiled.set_input scalar name v.(j))
              in_names;
            Compiled.settle scalar;
            let expect =
              Array.of_list (List.map snd (Compiled.outputs scalar))
            in
            if got.(k) <> expect then Alcotest.failf "vector %d diverges" k)
          vectors);
    tc "run_tasks covers every job once, members in range" (fun () ->
        List.iter
          (fun domains ->
            let a = G.input "a" in
            let nl = N.of_graph ~outputs:[ ("y", G.inv a) ] in
            let sh = Sharded.create ~domains nl in
            let n = 500 in
            let hits = Array.make n 0 in
            let bad_member = Atomic.make false in
            Sharded.run_tasks sh n (fun ~member job ->
                if member < 0 || member >= Sharded.domains sh then
                  Atomic.set bad_member true;
                (* jobs are distributed disjointly, so no lock is needed *)
                hits.(job) <- hits.(job) + 1);
            Sharded.shutdown sh;
            check_bool "members in range" false (Atomic.get bad_member);
            check_bool
              (Printf.sprintf "all jobs once (%d domains)" domains)
              true
              (Array.for_all (fun h -> h = 1) hits))
          [ 1; 2; 4 ]);
    tc "step_batches checksum is domain-count independent" (fun () ->
        let nl =
          Test_wide.netlist_of
            [ (Test_wide.Rand, 0, 1); (Test_wide.Rdff, 3, 3);
              (Test_wide.Rxor, 2, 4); (Test_wide.Rdff, 5, 5);
              (Test_wide.Ror, 4, 6) ]
        in
        let run domains =
          let sh = Sharded.create ~domains nl in
          let sum = Sharded.step_batches sh ~batches:12 ~cycles:20 in
          Sharded.shutdown sh;
          sum
        in
        let reference = run 1 in
        check_int "2 domains" reference (run 2);
        check_int "4 domains" reference (run 4));
    tc "testbench run_batched ~sharded = sequential" (fun () ->
        let x = G.input "x" and en = G.input "en" in
        let q = G.dff (G.xor2 x (G.and2 en (G.input "y"))) in
        let nl =
          N.extract ~inputs:[ x; en; G.input "y" ] ~outputs:[ ("q", q) ]
        in
        let case k =
          let stimuli =
            [
              Testbench.Bit_fun ("x", fun t -> (t + k) mod 3 = 0);
              Testbench.Bit_values ("en", [ k mod 2 = 0; true ]);
              Testbench.Bit_fun ("y", fun t -> t mod 2 = k mod 2);
            ]
          in
          let expectations =
            if k = 5 then
              [ Testbench.Expect_bit { cycle = 0; port = "q"; value = true } ]
            else []
          in
          (stimuli, expectations)
        in
        let cases = Array.init 300 case in
        let sequential = Testbench.run_batched ~cycles:8 ~cases nl in
        let sh = Sharded.create ~domains:3 nl in
        let sharded = Testbench.run_batched ~sharded:sh ~cycles:8 ~cases nl in
        Sharded.shutdown sh;
        Array.iteri
          (fun k r ->
            if r <> sequential.(k) then Alcotest.failf "case %d differs" k)
          sharded;
        check_bool "case 5 failed" false (Testbench.passed sharded.(5)));
    (* parallel falsification must stay deterministic: same verdict and
       same counterexample as the 1-domain run, on both an equivalent and
       an inequivalent pair *)
    tc "wide_random_netlists ~domains is deterministic" (fun () ->
        let mk invert =
          let a = G.input "a" and b = G.input "b" in
          let q = G.dff (G.xor2 a (G.and2 b (G.dff a))) in
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("q", (if invert then G.inv q else q)) ]
        in
        let equivalent =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:3 (mk false)
            (mk false)
        in
        check_bool "equivalent pair" true (Equiv.seq_equivalent equivalent);
        let r1 =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:1 (mk false)
            (mk true)
        and r3 =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:3 (mk false)
            (mk true)
        in
        (match r1 with
        | Equiv.Seq_equivalent -> Alcotest.fail "expected a mismatch"
        | Equiv.Seq_mismatch _ -> ());
        check_bool "same counterexample at 1 and 3 domains" true (r1 = r3));
    tc "run_many matches run_structural per program" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let program = Asm.assemble Test_wide.sum_loop_src in
        let n_addr = List.length program - 2 in
        let programs =
          Array.init 5 (fun k ->
              List.mapi
                (fun i w -> if i = n_addr then 2 + (3 * k) else w)
                program)
        in
        let results = Driver.run_many ~max_cycles:1000 ~domains:2 programs in
        Array.iteri
          (fun k r ->
            let scalar =
              Driver.run_structural ~max_cycles:1000 programs.(k)
            in
            check_bool (Printf.sprintf "program %d halted" k) scalar.Driver.halted
              r.Driver.halted;
            check_int
              (Printf.sprintf "program %d cycles" k)
              scalar.Driver.cycles r.Driver.cycles)
          results);
    tc "run_many reports non-halting programs" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let spin = Asm.assemble "loop: jump loop[R0]\n" in
        let results = Driver.run_many ~max_cycles:40 [| spin |] in
        check_bool "not halted" false results.(0).Driver.halted);
    (* a program's budget is its own [len + max_cycles], not the
       longest program's in the same wide pass *)
    tc "run_many: a short non-halting program's cycles ignore its neighbours"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let spin = Asm.assemble "loop: jump loop[R0]\n" in
        let long = Asm.assemble (Test_wide.sum_loop_src ^ "  data 0\n  data 0\n  data 0\n") in
        check_int "the neighbour is 21 words" 21 (List.length long);
        let results = Driver.run_many ~max_cycles:40 [| spin; long |] in
        let scalar = Driver.run_structural ~max_cycles:40 spin in
        check_bool "spin not halted" false results.(0).Driver.halted;
        check_int "run_structural's count" 39 scalar.Driver.cycles;
        check_int "spin cycles = run_structural's" scalar.Driver.cycles
          results.(0).Driver.cycles);
    tc "run_many: mixed programs = Golden / run_structural, any domains or order"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let module Golden = Hydra_cpu.Golden in
        (* budgets end exactly at the edges: a sum loop takes 24 + 20n
           cycles, so n = 5 halts on the last cycle of its budget and
           n >= 6 exceeds it; a straight-line run of [adds] additions
           takes 16 + 3 adds cycles, one more when its second operand is
           loaded from memory, so 36 additions halt on the last cycle
           (ldval) or one cycle too late (load) *)
        let max_cycles = 125 in
        let sum_loop n =
          Asm.assemble
            (Printf.sprintf
               "  ldval R1,0[R0]\n  load R2,n[R0]\nloop: cmpeq R3,R2,R0\n\
               \  jumpt R3,done[R0]\n  add R1,R1,R2\n  ldval R4,1[R0]\n\
               \  sub R2,R2,R4\n  jump loop[R0]\ndone: store R1,result[R0]\n\
               \  halt\nn: data %d\nresult: data 0\n" n)
        and straight ~load adds a =
          Asm.assemble
            (Printf.sprintf "  ldval R1,%d[R0]\n%s%s  store R1,result[R0]\n\
                             \  halt\nthree: data 3\nresult: data 0\n"
               a
               (if load then "  load R2,three[R0]\n" else "  ldval R2,3[R0]\n")
               (String.concat "" (List.init adds (fun _ -> "  add R1,R1,R2\n"))))
        and spin prefix =
          Asm.assemble
            (String.concat "" (List.init prefix (fun _ -> "  inc R1,R1\n"))
            ^ "loop: jump loop[R0]\n")
        in
        let programs =
          Array.concat
            [ Array.init 64 (fun k -> sum_loop (k mod 8));
              Array.init 64 (fun k -> straight ~load:(k mod 2 = 1) (k mod 30) k);
              [| straight ~load:false 36 7; straight ~load:true 36 7 |];
              Array.init 6 (fun k -> spin (3 * (k mod 3))) ]
        in
        let golden p =
          let g = Golden.create ~mem_words:64 () in
          Golden.load_program g p;
          ignore (Golden.run ~max_instructions:10_000 g);
          g
        in
        (* expected results: Golden's for programs that halt within the
           budget, run_structural's for the rest (computed once per
           distinct program) *)
        let structural = Hashtbl.create 16 in
        let expected =
          Array.map
            (fun p ->
              let g = golden p in
              if g.Golden.halted && g.Golden.cycles < max_cycles then
                { Driver.halted = true; cycles = g.Golden.cycles; pc = g.Golden.pc }
              else begin
                let r =
                  match Hashtbl.find_opt structural p with
                  | Some r -> r
                  | None ->
                    let r = Driver.run_structural ~max_cycles ~collect_trace:false p in
                    Hashtbl.replace structural p r;
                    r
                in
                { Driver.halted = r.Driver.halted; cycles = r.Driver.cycles; pc = 0 }
              end)
            programs
        in
        let count f = Array.fold_left (fun a r -> if f r then a + 1 else a) 0 expected in
        check_bool "some programs halt" true (count (fun r -> r.Driver.halted) > 100);
        check_bool "some exceed their budget" true
          (count (fun r -> not r.Driver.halted) > 6);
        let r1 = Driver.run_many ~max_cycles ~domains:1 programs in
        Array.iteri
          (fun k e ->
            let r = r1.(k) in
            check_bool (Printf.sprintf "program %d halted" k) e.Driver.halted r.Driver.halted;
            check_int (Printf.sprintf "program %d cycles" k) e.Driver.cycles r.Driver.cycles;
            check_int (Printf.sprintf "program %d pc" k) e.Driver.pc r.Driver.pc)
          expected;
        let r2 = Driver.run_many ~max_cycles ~domains:2 programs in
        check_bool "1 and 2 domains agree" true (r1 = r2);
        let n = Array.length programs in
        let perm = Array.init n Fun.id in
        let st = Random.State.make [| 12 |] in
        for j = n - 1 downto 1 do
          let r = Random.State.int st (j + 1) in
          let t = perm.(j) in
          perm.(j) <- perm.(r);
          perm.(r) <- t
        done;
        let rp =
          Driver.run_many ~max_cycles ~domains:2 (Array.map (fun j -> programs.(j)) perm)
        in
        check_bool "each result moves with its program" true
          (Array.for_all Fun.id (Array.mapi (fun i j -> rp.(i) = r1.(j)) perm)));
    tc "reset_lanes: masked lanes back to power-up, the rest untouched"
      (fun () ->
        let module Kernel = Hydra_engine.Kernel in
        (* two toggle registers powering up at 1 and at 0, and the CPU *)
        let toggles =
          {
            N.components =
              [| N.Inport "a"; N.Dffc true; N.Dffc false; N.Xor2c; N.Xor2c;
                 N.Outport "q1"; N.Outport "q0" |];
            fanin = [| [||]; [| 3 |]; [| 4 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1 |]; [| 2 |] |];
            names = Array.make 7 [];
            inputs = [ ("a", 0) ];
            outputs = [ ("q1", 5); ("q0", 6) ];
          }
        in
        List.iter
          (fun nl ->
            let a = Wide.create nl in
            let b = Wide.replicate a and fresh = Wide.replicate a in
            let st = Random.State.make [| 5 |] in
            for _ = 1 to 12 do
              List.iter
                (fun (name, _) ->
                  let w = Random.State.bits st lor (Random.State.bits st lsl 30)
                          lor (Random.State.bits st lsl 60) in
                  Wide.set_input a name w;
                  Wide.set_input b name w)
                (Wide.netlist a).N.inputs;
              Wide.step a;
              Wide.step b
            done;
            let m = 0x2aaa_aaaa_aaaa_aaaa land Wide.lane_mask in
            let dffs = (Wide.program a).Kernel.dffs in
            check_bool "the masked lanes left power-up" true
              (Array.exists (fun i -> Wide.peek a i land m <> Wide.peek fresh i land m) dffs);
            Driver.reset_lanes a m;
            for i = 0 to N.size (Wide.netlist a) - 1 do
              check_int (Printf.sprintf "component %d outside the mask" i)
                (Wide.peek b i land lnot m) (Wide.peek a i land lnot m)
            done;
            Array.iter
              (fun i ->
                check_int (Printf.sprintf "dff %d inside the mask" i)
                  (Wide.peek fresh i land m) (Wide.peek a i land m))
              dffs)
          [ toggles; Driver.system_netlist () ]);
    (* the re-layout is a pure index permutation *)
    qc ~count:30 "rank_major_permutation is a valid permutation"
      (Test_wide.gen_nodes Test_wide.all_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let nl', new_of_old = Layout.rank_major_permutation nl in
        let n = Array.length nl.N.components in
        let seen = Array.make n false in
        Array.iter (fun i -> seen.(i) <- true) new_of_old;
        Array.length nl'.N.components = n
        && Array.length new_of_old = n
        && Array.for_all Fun.id seen
        (* every component keeps its identity under the permutation *)
        && Array.for_all2
             (fun c i -> nl'.N.components.(i) = c)
             nl.N.components
             (Array.map Fun.id new_of_old));
    (* the default engine (relayout + fusion) = the plain one *)
    qc ~count:25 "fuse/relayout ablation: all variants agree"
      (Test_wide.gen_case Test_wide.dff_heavy_ops)
      (fun (nodes, lane_rows) ->
        let nl = Test_wide.netlist_of nodes in
        let cycles = List.length (List.hd lane_rows) in
        let packed_inputs =
          List.mapi
            (fun j name ->
              ( name,
                List.init cycles (fun t ->
                    Packed.pack
                      (List.map
                         (fun rows -> List.nth (List.nth rows t) j)
                         lane_rows)) ))
            [ "a"; "b"; "c" ]
        in
        let run sim = Wide.run_packed sim ~inputs:packed_inputs ~cycles in
        let plain = run (Wide.create ~relayout:false ~fuse:false nl) in
        run (Wide.create nl) = plain
        && run (Wide.create ~relayout:true ~fuse:false nl) = plain
        && run (Wide.create ~relayout:false ~fuse:true nl) = plain);
  ]
