(* Pinned output of the analysis pipeline on the CLI catalogue
   ({!Catalogue}): every [Lint.run] diagnostic as (rule, severity,
   components), the [Dataflow.stats] worklist visits and updates of each
   fixpoint, and the size and [Netlist.digest] of [Optimize.optimize].
   The expected values were computed before the levelizer, Lint/Dataflow
   context sharing and Optimize dedup keys were reworked for speed, so
   "the rework changed no result" is checked, not assumed.  Component
   lists longer than eight are pinned by length and an MD5 prefix of
   their decimal rendering. *)

open Util
module N = Hydra_netlist.Netlist
module D = Hydra_analyze.Diagnostic
module Lint = Hydra_analyze.Lint
module Dataflow = Hydra_analyze.Dataflow
module Optimize = Hydra_netlist.Optimize

let severity = function
  | D.Error -> "error"
  | D.Warning -> "warning"
  | D.Info -> "info"

let components cs =
  let s = String.concat "," (List.map string_of_int cs) in
  if List.length cs <= 8 then "[" ^ s ^ "]"
  else
    Printf.sprintf "%d@%s" (List.length cs)
      (String.sub (Digest.to_hex (Digest.string s)) 0 12)

let lint nl =
  List.map
    (fun d ->
      Printf.sprintf "%s/%s/%s" d.D.rule (severity d.D.severity)
        (components d.D.components))
    (Lint.run nl)

let dataflow nl =
  List.map
    (fun (name, s) ->
      Printf.sprintf "%s/%d/%d" name s.Dataflow.visits s.Dataflow.updates)
    (Dataflow.stats (Dataflow.create nl))

let optimized nl =
  let o = Optimize.optimize nl in
  Printf.sprintf "%d/%s" (N.size o) (N.digest o)

(* (circuit, lint, dataflow rule/visits/updates, optimized size/digest) *)
let expected =
  [
    ( "fig1",
      [],
      [ "constants/5/0"; "observable/8/4"; "reaching-x/5/3" ],
      "5/561f25866352cd1d008c4d5843b3c79a" );
    ( "mux1",
      [],
      [ "constants/8/0"; "observable/14/7"; "reaching-x/8/5" ],
      "8/8919f91e34fd9b03a172e0cfaaf73548" );
    ( "ripple:8",
      [ "const-gate/warning/[26]" ],
      [ "constants/66/0"; "observable/128/57"; "reaching-x/66/49" ],
      "62/f60585f9d7f70dbeecff0f462cca81a4" );
    ( "ripple:12",
      [ "const-gate/warning/[38]" ],
      [ "constants/98/0"; "observable/192/85"; "reaching-x/98/73" ],
      "94/5a432a2a06411ccc8541b72ff690f7d8" );
    ( "cla-sklansky:8",
      [ "const-gate/warning/[45]" ],
      [ "constants/81/0"; "observable/168/72"; "reaching-x/81/64" ],
      "77/84a833213715a98ce20da0e410b63f19" );
    ( "cla-sklansky:12",
      [ "const-gate/warning/[73]" ],
      [ "constants/128/0"; "observable/270/115"; "reaching-x/128/103" ],
      "124/f0f0277b579a26f7aae563701f16115b" );
    ( "cla-brent-kung:8",
      [ "const-gate/warning/[45]" ],
      [ "constants/78/0"; "observable/160/69"; "reaching-x/78/61" ],
      "74/266a78287b02b20731f5c6d27617e2c1" );
    ( "cla-kogge-stone:8",
      [ "const-gate/warning/[54,69,80,93]"; "unobservable-logic/warning/[50,51,52]" ],
      [ "constants/105/0"; "observable/222/93"; "reaching-x/105/88" ],
      "92/c37e82441f2fcde97cd976ec61f1b473" );
    ( "alu:16",
      [ "const-gate/warning/32@5369fb38381b"; "fanout-hotspot/warning/[6]"; "redundant-logic/warning/113@c280ef834650"; "unobservable-logic/warning/[593]" ],
      [ "constants/743/0"; "observable/1642/724"; "reaching-x/743/705" ],
      "564/28671223695734acf71ac7dcb5318a39" );
    ( "regfile1:4",
      [ "redundant-logic/warning/33@e094e0a81bbf"; "uninit-state/warning/[195,260]" ],
      [ "constants/293/124"; "observable/543/259"; "reaching-x/261/137" ],
      "228/87a9245e42f9f2a21ec8e911fdde745e" );
    ( "sorter:4x4",
      [ "redundant-logic/warning/42@34efe0424810" ],
      [ "constants/351/0"; "observable/779/335"; "reaching-x/351/334" ],
      "297/05a184508237a16c2a2e11c7072f2630" );
    ( "secded",
      [ "redundant-logic/warning/[20,24,67,70,73,76]" ],
      [ "constants/79/62"; "observable/158/69"; "reaching-x/79/74" ],
      "74/2a015163ddedc9790ec6af827aa7479c" );
    ( "cpu:6",
      [ "const-gate/warning/32@6e15e37fb3e5"; "fanout-hotspot/warning/14@48b2cd5c9d30"; "redundant-logic/warning/6552@7c02de1b78b0"; "uninit-state/warning/33@16e8be8066a7"; "unobservable-logic/warning/[4541]" ],
      [ "constants/28105/10419"; "observable/37154/17621"; "reaching-x/17655/78" ],
      "11033/a71ee83652bcfd5b2f982528caebaafc" );
    ( "cpu:8",
      [ "const-gate/warning/32@d1a2044707f5"; "fanout-hotspot/warning/32@f850a29e277b"; "redundant-logic/warning/21340@912b8a3e2f85"; "uninit-state/warning/33@1c46dc42c638"; "unobservable-logic/warning/[6857]" ],
      [ "constants/71143/25789"; "observable/114031/54503"; "reaching-x/54537/82" ],
      "33127/17ac06dcfe7b15a31900d3be118e6222" );
    ( "wallace:16",
      [ "const-gate/warning/30@142a9e2ef0b7"; "unobservable-logic/warning/[1532,1543,1544,1553,1745]" ],
      [ "constants/1778/64"; "observable/3870/1721"; "reaching-x/1778/1745" ],
      "1724/d618981939515a347398011b7504f129" );
    ( "wallace:32",
      [ "const-gate/warning/45@e0282c0f2dfb"; "unobservable-logic/warning/12@0ecee6dcef9c" ],
      [ "constants/6833/128"; "observable/14959/6729"; "reaching-x/6833/6768" ],
      "6748/a5982e3d533dea9e47f4ab4e2527fd7b" );
  ]

let check_strings = Alcotest.(check (list string))

let suite =
  List.map
    (fun (name, want_lint, want_df, want_opt) ->
      tc ("pinned lint, dataflow and optimize on " ^ name) (fun () ->
          let nl = List.assoc name (Lazy.force Catalogue.all) in
          check_strings "lint" want_lint (lint nl);
          check_strings "dataflow stats" want_df (dataflow nl);
          check_string "optimized size/digest" want_opt (optimized nl)))
    expected
