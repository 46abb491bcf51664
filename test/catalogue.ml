(* The [hydra] CLI's named-circuit catalogue, rebuilt for the tests (the
   CLI is an executable, not a library): the same families, sizes, port
   names and output order as [bin/main.ml]'s [circuit_of_name], so the
   netlists here are the ones `hydra lint --all` sees. *)

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module P = Hydra_core.Patterns

let inputs prefix n =
  List.init n (fun i -> G.input (Printf.sprintf "%s%d" prefix i))

let named prefix = List.mapi (fun i s -> (Printf.sprintf "%s%d" prefix i, s))
let adder (cout, sums) = ("cout", cout) :: named "s" sums

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
    let c = G.input "c" and x = G.input "x" and y = G.input "y" in
    N.of_graph ~outputs:[ ("out", M.mux1 c x y) ]
  | "ripple" -> N.of_graph ~outputs:(adder (A.ripple_add G.zero (pairs (n ()))))
  | "cla-sklansky" | "cla-brent-kung" | "cla-kogge-stone" ->
    let network =
      match family with
      | "cla-sklansky" -> P.Sklansky
      | "cla-brent-kung" -> P.Brent_kung
      | _ -> P.Kogge_stone
    in
    N.of_graph ~outputs:(adder (A.cla_add ~network G.zero (pairs (n ()))))
  | "alu" ->
    let n = n () in
    let ovfl, r = Alu.alu (inputs "op" 4) (inputs "x" n) (inputs "y" n) in
    N.of_graph ~outputs:(("ovfl", ovfl) :: named "r" r)
  | "regfile1" ->
    let k = n () in
    let a, b =
      R.regfile1 k (G.input "ld") (inputs "d" k) (inputs "sa" k)
        (inputs "sb" k) (G.input "x")
    in
    N.of_graph ~outputs:[ ("a", a); ("b", b) ]
  | "sorter" ->
    let n, w =
      match String.split_on_char 'x' param with
      | [ a; b ] -> (int_of_string a, int_of_string b)
      | _ -> invalid_arg "sorter:<n>x<w>"
    in
    let words = List.init n (fun i -> inputs (Printf.sprintf "w%d_" i) w) in
    N.of_graph
      ~outputs:
        (List.concat
           (List.mapi
              (fun i word ->
                List.mapi (fun j b -> (Printf.sprintf "o%d_%d" i j, b)) word)
              (Sorter.sort words)))
  | "secded" ->
    let module E = Hydra_circuits.Ecc.Protected (G) in
    let data = inputs "d" 4 in
    let dec, single, double = E.secded_reg data in
    let plain = E.plain_pipeline data in
    N.of_graph
      ~outputs:
        (named "p" dec
        @ [ ("single", single); ("double", double) ]
        @ named "u" plain)
  | "wallace" ->
    let module W = Hydra_circuits.Wallace.Make (G) in
    let n = n () in
    let prod = W.multw (inputs "x" n) (inputs "y" n) in
    N.of_graph ~outputs:(named "p" (List.map G.dff prod))
  | "cpu" ->
    let module Sys_g = Hydra_cpu.System.Make (G) in
    let word n = inputs n 16 in
    let outs =
      Sys_g.system ~mem_bits:(n ())
        {
          Sys_g.start = G.input "start";
          dma = G.input "dma";
          dma_a = word "da";
          dma_d = word "dd";
        }
    in
    N.of_graph
      ~outputs:
        (("halted", outs.Sys_g.halted)
        :: named "pc" outs.Sys_g.dp.Sys_g.D.pc
        @ named "r" outs.Sys_g.dp.Sys_g.D.r)
  | _ -> invalid_arg ("Catalogue.build: unknown circuit " ^ name)

(* `hydra lint --all`'s list, plus the wallace sizes the CLI examples and
   CI sweeps use. *)
let names =
  [
    "fig1"; "mux1"; "ripple:8"; "ripple:12"; "cla-sklansky:8";
    "cla-sklansky:12"; "cla-brent-kung:8"; "cla-kogge-stone:8"; "alu:16";
    "regfile1:4"; "sorter:4x4"; "secded"; "cpu:6"; "cpu:8"; "wallace:16";
    "wallace:32";
  ]

(* Built once and shared: cpu:8 alone is 54k components. *)
let all = lazy (List.map (fun name -> (name, build name)) names)
