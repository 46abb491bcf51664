(** Flat netlists extracted from the graph semantics (paper section 4.4):
    the fabrication interface — components plus the connections between
    their ports. *)

type component =
  | Inport of string
  | Outport of string
  | Constant of bool
  | Invc
  | And2c
  | Or2c
  | Xor2c
  | Dffc of bool  (** carries the power-up value *)

type t = {
  components : component array;
  fanin : int array array;
      (** [fanin.(c)] lists the component driving each input port of [c],
          in port order *)
  names : string list array;
      (** labels attached via {!Hydra_core.Graph.label} *)
  inputs : (string * int) list;  (** port name, component index *)
  outputs : (string * int) list;
}

val component_name : component -> string

val input_arity : component -> int
(** Number of input ports (the output port's index, in the paper's
    numbering). *)

val extract : inputs:Hydra_core.Graph.t list -> outputs:(string * Hydra_core.Graph.t) list -> t
(** Extract the netlist reachable from [outputs], declaring [inputs]
    explicitly so that unused input ports still appear.  Components are
    numbered children-first (the paper's order); circular graphs from
    feedback are handled. *)

val of_graph : outputs:(string * Hydra_core.Graph.t) list -> t
(** [extract ~inputs:[]]. *)

val validate : t -> (unit, string) result
(** Structural well-formedness: fanin arity matches {!input_arity}, every
    fanin index is in bounds and not an outport, and the input/output
    port lists refer to [Inport]/[Outport] components with the same name.
    The engines index arrays with these numbers unchecked, so corrupt
    netlists must fail here with a message, not later out of bounds. *)

val describe : t -> int -> string
(** Human label for diagnostics: ["and2#5(carry)"] — kind, index, and
    attached labels when present. *)

type stats = {
  gates : int;
  dffs : int;
  inports : int;
  outports : int;
  constants : int;
  total : int;
}

val stats : t -> stats
val size : t -> int

val fanout : t -> (int * int) list array
(** Per component: the (sink component, sink input port) pairs it
    drives, ascending by sink, then by port. *)

val digest : t -> string
(** Stable content hash (hex) of the observable circuit: components are
    renumbered canonically by a fanin-order traversal rooted at the
    name-sorted output then input ports, so the digest is invariant
    under component renumberings ({!Layout.rank_major}) and under
    {!Serial} round-trips, while distinct circuits get distinct digests
    (modulo hash collisions).  Components unreachable from any port
    contribute per-kind counts only.  Used as the {!Hydra_engine.Cache}
    key, which additionally verifies structural equality on hits — so a
    collision can cost a duplicate cache entry, never a wrong program. *)
