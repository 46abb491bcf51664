(* Translation validation for netlist transforms.

   The engines run transformed netlists (Optimize's folding/dedup,
   Layout.rank_major's permutation, Transform's state-element rewrites)
   and trust that the transform preserved circuit meaning.  Following
   the translation-validation tradition (Fe-Si, Hardcaml's
   post-transform checks), this module checks each *run* of a transform
   instead of trusting the pass:

   - structural invariants: the post netlist is well-formed
     ({!Netlist.validate}) and presents the same input/output ports;
   - for pure index permutations (rank_major), a complete proof: the
     claimed permutation is a bijection that maps components, fanin
     edges, names and ports exactly — nothing behavioural left to test;
   - for rewriting transforms (Optimize), packed-random I/O equivalence
     against the pre-transform netlist on an independent reference
     simulator ({!Sim}): both circuits see the same 62 random stimulus
     streams per pass, every output word is compared every cycle, and a
     disagreement is reported as a concrete per-lane counterexample
     (input streams up to the failing cycle).

   A successful check returns a certificate naming what was verified; a
   failure says precisely how the transform lied. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module P = Hydra_core.Packed

type counterexample = {
  output : string;  (* first disagreeing output port *)
  cycle : int;  (* 0-based cycle of the disagreement *)
  inputs : (string * bool list) list;
      (* per input port: the driving stream up to and including the
         failing cycle — replaying it reproduces the mismatch *)
}

type failure =
  | Invalid of { which : string; reason : string }
      (* pre/post netlist fails Netlist.validate *)
  | Ports_differ of string
  | Not_permutation of string
  | Behaviour_differs of counterexample

type certificate = {
  transform : string;
  checks : string list;  (* what was verified, e.g. "io-equiv:2x16" *)
}

type outcome =
  | Certified of certificate
  | Refuted of { transform : string; failure : failure }

exception Certification_failed of string

let certified = function Certified _ -> true | Refuted _ -> false

let describe_failure = function
  | Invalid { which; reason } ->
    Printf.sprintf "%s netlist is malformed: %s" which reason
  | Ports_differ m -> "ports differ: " ^ m
  | Not_permutation m -> "claimed permutation is wrong: " ^ m
  | Behaviour_differs { output; cycle; inputs } ->
    Printf.sprintf
      "behaviour differs at output %S, cycle %d (counterexample inputs: %s)"
      output cycle
      (String.concat "; "
         (List.map
            (fun (name, bits) ->
              Printf.sprintf "%s=%s" name
                (String.concat ""
                   (List.map (fun b -> if b then "1" else "0") bits)))
            inputs))

let describe = function
  | Certified { transform; checks } ->
    Printf.sprintf "%s: certified (%s)" transform (String.concat ", " checks)
  | Refuted { transform; failure } ->
    Printf.sprintf "%s: REFUTED — %s" transform (describe_failure failure)

let ensure outcome =
  match outcome with
  | Certified _ -> ()
  | Refuted _ -> raise (Certification_failed (describe outcome))

let validate = Netlist.validate

(* Same port names on both sides (order-insensitive: Optimize preserves
   order today, but the contract is the name set). *)
let ports_preserved pre post =
  let sorted l = List.sort compare (List.map fst l) in
  if sorted pre.Netlist.inputs <> sorted post.Netlist.inputs then
    Error
      (Printf.sprintf "inputs {%s} vs {%s}"
         (String.concat "," (sorted pre.Netlist.inputs))
         (String.concat "," (sorted post.Netlist.inputs)))
  else if sorted pre.Netlist.outputs <> sorted post.Netlist.outputs then
    Error
      (Printf.sprintf "outputs {%s} vs {%s}"
         (String.concat "," (sorted pre.Netlist.outputs))
         (String.concat "," (sorted post.Netlist.outputs)))
  else Ok ()

(* Packed-random sequential I/O equivalence on the reference simulator:
   [passes] passes of 62 random stimulus streams, [cycles] cycles each,
   deterministic in [seed]. *)
let io_equiv ?(passes = 2) ?(cycles = 16) ?(seed = 0x5eed) pre post =
  let packed nl = Sim.packed_create (Sim.flatten nl (Levelize.compute nl)) in
  let s1 = packed pre and s2 = packed post in
  let in_names = List.map fst pre.Netlist.inputs in
  let out_names = List.map fst pre.Netlist.outputs in
  let result = ref (Ok ()) in
  (try
     for pass = 0 to passes - 1 do
       let st = Random.State.make [| seed; pass; cycles |] in
       Sim.packed_reset s1;
       Sim.packed_reset s2;
       let history = ref [] in
       for c = 0 to cycles - 1 do
         let row = List.map (fun n -> (n, P.random_word st)) in_names in
         history := row :: !history;
         List.iter
           (fun (n, w) ->
             Sim.packed_set_input s1 n w;
             Sim.packed_set_input s2 n w)
           row;
         Sim.packed_settle s1;
         Sim.packed_settle s2;
         List.iter
           (fun n ->
             let w1 = Sim.packed_output s1 n
             and w2 = Sim.packed_output s2 n in
             if w1 <> w2 then begin
               let diff = w1 lxor w2 in
               let rec first_lane l =
                 if P.lane diff l then l else first_lane (l + 1)
               in
               let lane = first_lane 0 in
               let streams =
                 List.map
                   (fun iname ->
                     ( iname,
                       List.rev_map
                         (fun row -> P.lane (List.assoc iname row) lane)
                         !history ))
                   in_names
               in
               result :=
                 Error
                   (Behaviour_differs
                      { output = n; cycle = c; inputs = streams });
               raise Exit
             end)
           out_names;
         Sim.packed_tick s1;
         Sim.packed_tick s2
       done
     done
   with Exit -> ());
  !result

(* Generic rewriting-transform check: validate both sides, ports, then
   packed-random I/O equivalence. *)
let check ?passes ?cycles ?seed ~transform ~pre ~post () =
  let refute failure = Refuted { transform; failure } in
  match validate pre with
  | Error reason -> refute (Invalid { which = "pre"; reason })
  | Ok () -> (
    match validate post with
    | Error reason -> refute (Invalid { which = "post"; reason })
    | Ok () -> (
      match ports_preserved pre post with
      | Error m -> refute (Ports_differ m)
      | Ok () -> (
        match io_equiv ?passes ?cycles ?seed pre post with
        | Error failure -> refute failure
        | Ok () ->
          let p = Option.value passes ~default:2
          and c = Option.value cycles ~default:16 in
          Certified
            {
              transform;
              checks =
                [
                  "validate"; "ports";
                  Printf.sprintf "io-equiv:%dx%dx%d" p c P.lanes;
                ];
            })))

(* Permutation check: a complete structural proof for index-permutation
   transforms.  [perm.(i)] is the post index of pre component [i]. *)
let check_permutation ~transform ~pre ~post ~perm =
  let refute m = Refuted { transform; failure = Not_permutation m } in
  let n = Netlist.size pre in
  if Netlist.size post <> n then
    refute
      (Printf.sprintf "sizes differ: %d pre vs %d post" n (Netlist.size post))
  else if Array.length perm <> n then
    refute
      (Printf.sprintf "permutation length %d for %d components"
         (Array.length perm) n)
  else begin
    let seen = Array.make n false in
    let exception Bad of string in
    try
      Array.iteri
        (fun i j ->
          if j < 0 || j >= n then
            raise (Bad (Printf.sprintf "perm.(%d) = %d out of range" i j));
          if seen.(j) then
            raise (Bad (Printf.sprintf "post index %d hit twice" j));
          seen.(j) <- true)
        perm;
      Array.iteri
        (fun i comp ->
          let j = perm.(i) in
          if post.Netlist.components.(j) <> comp then
            raise
              (Bad
                 (Printf.sprintf "component %d (%s) maps to %d (%s)" i
                    (Netlist.component_name comp)
                    j
                    (Netlist.component_name post.Netlist.components.(j))));
          if post.Netlist.names.(j) <> pre.Netlist.names.(i) then
            raise (Bad (Printf.sprintf "names of component %d not carried" i));
          let fi = Array.map (fun d -> perm.(d)) pre.Netlist.fanin.(i) in
          if post.Netlist.fanin.(j) <> fi then
            raise
              (Bad (Printf.sprintf "fanin of component %d not permuted" i)))
        pre.Netlist.components;
      let map_ports ports = List.map (fun (s, i) -> (s, perm.(i))) ports in
      if post.Netlist.inputs <> map_ports pre.Netlist.inputs then
        raise (Bad "input port list not permuted");
      if post.Netlist.outputs <> map_ports pre.Netlist.outputs then
        raise (Bad "output port list not permuted");
      Certified
        {
          transform;
          checks = [ "bijection"; "components"; "fanin"; "names"; "ports" ];
        }
    with Bad m -> refute m
  end

(* Certified wrappers for the standard transforms. *)
let optimize ?passes ?cycles ?seed nl =
  let post = Hydra_netlist.Optimize.optimize nl in
  (post, check ?passes ?cycles ?seed ~transform:"Optimize.optimize" ~pre:nl ~post ())

let rank_major nl =
  let post, perm = Hydra_netlist.Layout.rank_major_permutation nl in
  (post, check_permutation ~transform:"Layout.rank_major" ~pre:nl ~post ~perm)

let sweep ?passes ?cycles ?seed nl =
  let post, report = Sweep.run nl in
  ( post,
    report,
    check ?passes ?cycles ?seed ~transform:"Sweep.run" ~pre:nl ~post () )
