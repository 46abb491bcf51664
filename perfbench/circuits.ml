(* Benchmark inputs: the CLI's named-circuit families and seeded
   machine-language programs.  Everything here is generated from a seed;
   the library only ever sees the resulting netlists and programs. *)

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist

let inputs prefix n = List.init n (fun i -> G.input (Printf.sprintf "%s%d" prefix i))
let named prefix = List.mapi (fun i s -> (Printf.sprintf "%s%d" prefix i, s))

let wallace n =
  let module W = Hydra_circuits.Wallace.Make (G) in
  let prod = W.multw (inputs "x" n) (inputs "y" n) in
  N.of_graph ~outputs:(named "p" (List.map G.dff prod))

let adder (cout, sums) = ("cout", cout) :: named "s" sums

(* The circuit families of the [hydra] CLI catalogue, by the same names. *)
let build name =
  let module A = Hydra_circuits.Arith.Make (G) in
  let module M = Hydra_circuits.Mux.Make (G) in
  let module R = Hydra_circuits.Regs.Make (G) in
  let module Alu = Hydra_circuits.Alu.Make (G) in
  let module Sorter = Hydra_circuits.Sorter.Make (G) in
  let family, param =
    match String.index_opt name ':' with
    | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
    | None -> (name, "")
  in
  let n () = int_of_string param in
  let pairs n = List.combine (inputs "x" n) (inputs "y" n) in
  match family with
  | "fig1" ->
    let a = G.input "a" and b = G.input "b" in
    N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ]
  | "mux1" ->
    N.of_graph ~outputs:[ ("out", M.mux1 (G.input "c") (G.input "x") (G.input "y")) ]
  | "ripple" -> N.of_graph ~outputs:(adder (A.ripple_add G.zero (pairs (n ()))))
  | "cla-sklansky" | "cla-brent-kung" | "cla-kogge-stone" ->
    let network =
      match family with
      | "cla-sklansky" -> Hydra_core.Patterns.Sklansky
      | "cla-brent-kung" -> Hydra_core.Patterns.Brent_kung
      | _ -> Hydra_core.Patterns.Kogge_stone
    in
    N.of_graph ~outputs:(adder (A.cla_add ~network G.zero (pairs (n ()))))
  | "alu" ->
    let ovfl, r = Alu.alu (inputs "op" 4) (inputs "x" (n ())) (inputs "y" (n ())) in
    N.of_graph ~outputs:(("ovfl", ovfl) :: named "r" r)
  | "regfile1" ->
    let k = n () in
    let a, b =
      R.regfile1 k (G.input "ld") (inputs "d" k) (inputs "sa" k) (inputs "sb" k)
        (G.input "x")
    in
    N.of_graph ~outputs:[ ("a", a); ("b", b) ]
  | "sorter" ->
    let words = List.init 4 (fun i -> inputs (Printf.sprintf "w%d_" i) 4) in
    N.of_graph
      ~outputs:
        (List.concat
           (List.mapi (fun i w -> named (Printf.sprintf "o%d_" i) w) (Sorter.sort words)))
  | "secded" ->
    let module E = Hydra_circuits.Ecc.Protected (G) in
    let data = inputs "d" 4 in
    let dec, single, double = E.secded_reg data in
    N.of_graph
      ~outputs:
        (named "p" dec
        @ [ ("single", single); ("double", double) ]
        @ named "u" (E.plain_pipeline data))
  | "wallace" -> wallace (n ())
  | "cpu" ->
    let module S = Hydra_cpu.System.Make (G) in
    let o =
      S.system ~mem_bits:(n ())
        { S.start = G.input "start"; dma = G.input "dma"; dma_a = inputs "da" 16;
          dma_d = inputs "dd" 16 }
    in
    N.of_graph
      ~outputs:(("halted", o.S.halted) :: named "pc" o.S.dp.S.D.pc @ named "r" o.S.dp.S.D.r)
  | _ -> invalid_arg ("unknown circuit " ^ name)

(* One sweep of catalogue-mixed: every family, 15 circuits.  With 15
   equally weighted circuits the median and the 90th percentile of op
   times each fall in the middle of one circuit's checks (the 8th and
   the 14th by cost), not on the boundary between two circuits, where
   the order of two circuits' times would decide them. *)
let catalogue =
  [ "fig1"; "mux1"; "ripple:8"; "cla-sklansky:8"; "cla-brent-kung:8";
    "cla-kogge-stone:8"; "alu:16"; "regfile1:4"; "sorter:4x4"; "secded";
    "wallace:8"; "wallace:16"; "wallace:32"; "cpu:6"; "cpu:8" ]

(* ---- programs for the section-6 system ---- *)

(* Three loops from the repo's own sources, with seeded loop bounds and
   data words: the sum loop of the wide-engine tests (bound in memory),
   the examples' sum-to-n (bound as an immediate) and the cpu_demo
   array maximum (length and elements in memory).  Every template halts
   for every parameter drawn here, and fits the 64-word memory. *)
let program_source st =
  match Random.State.int st 3 with
  | 0 ->
    Printf.sprintf
      "  ldval R1,0[R0]\n  load R2,n[R0]\nloop: cmpeq R3,R2,R0\n  jumpt R3,done[R0]\n\
      \  add R1,R1,R2\n  ldval R4,1[R0]\n  sub R2,R2,R4\n  jump loop[R0]\n\
       done: store R1,result[R0]\n  halt\nn: data %d\nresult: data 0\n"
      (Random.State.int st 40)
  | 1 ->
    Printf.sprintf
      "  ldval R1,0[R0]\n  ldval R2,%d[R0]\nloop: cmpeq R3,R2,R0\n  jumpt R3,done[R0]\n\
      \  add R1,R1,R2\n  ldval R4,1[R0]\n  sub R2,R2,R4\n  jump loop[R0]\n\
       done: store R1,result[R0]\n  halt\nresult: data 0\n"
      (Random.State.int st 40)
  | _ ->
    let len = 1 + Random.State.int st 24 in
    let elems =
      String.concat ""
        (List.init len (fun _ -> Printf.sprintf "  data %d\n" (Random.State.int st 30000)))
    in
    Printf.sprintf
      "  load R4,len[R0]\n  load R2,arr[R0]\n  ldval R1,1[R0]\nloop: cmplt R3,R1,R4\n\
      \  jumpf R3,done[R0]\n  load R3,arr[R1]\n  cmpgt R5,R3,R2\n  jumpf R5,skip[R0]\n\
      \  add R2,R3,R0\nskip: inc R1,R1\n  jump loop[R0]\ndone: store R2,result[R0]\n\
      \  halt\nlen: data %d\narr:\n%sresult: data 0\n"
      len elems
