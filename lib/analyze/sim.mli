(** Reference netlist evaluators for the analyses: a ternary (0/1/X)
    abstract evaluator for the lint rules, and a deliberately simple
    packed 62-lane concrete simulator that {!Certify} uses as the
    independent oracle when validating transforms — it shares no code
    with the compiled engines, so a bug in their optimizer or re-layout
    passes cannot hide in the checker. *)

val ternary_gate :
  Hydra_netlist.Netlist.component ->
  (int -> Hydra_core.Ternary.t) ->
  Hydra_core.Ternary.t option
(** The one ternary abstract transfer function, shared by
    {!ternary_values} and every forward {!Dataflow} domain.  Evaluates a
    combinational component (gate or outport) over Kleene logic, reading
    fanin slot [k]'s value through the callback; [None] for components
    that are not combinational functions of their fanin (inports,
    constants, flip flops) — their values are boundary conditions of the
    calling analysis. *)

val ternary_values :
  ?inputs:Hydra_core.Ternary.t ->
  ?respect_init:bool ->
  ?cycles:int ->
  Hydra_netlist.Netlist.t ->
  Hydra_netlist.Levelize.t ->
  Hydra_core.Ternary.t array
(** [ternary_values nl lv]: settled per-component values after [cycles]
    clock ticks (default 0: the first settle), every input port held at
    [inputs] (default X) and flip flops powered up at X unless
    [respect_init] (default false).  Components on combinational cycles
    read X.  [lv] must be the levelization of the same [nl]
    ({!Hydra_netlist.Levelize.compute}); it is taken from the caller so
    that an analysis run levelizes its netlist once. *)

type packed

val packed_create :
  Hydra_netlist.Netlist.t -> Hydra_netlist.Levelize.t -> packed
(** [packed_create nl lv], where [lv] must be the levelization of the
    same [nl].  Raises {!Hydra_netlist.Levelize.Combinational_cycle} when
    [lv] reports one (an invalid circuit). *)

val packed_reset : packed -> unit
val packed_set_input : packed -> string -> int -> unit
val packed_settle : packed -> unit
val packed_tick : packed -> unit
val packed_output : packed -> string -> int
val packed_outputs : packed -> (string * int) list

val packed_value : packed -> int -> int
(** Settled word of component [i] (any component, not just a port) —
    {!Dataflow.crosscheck} compares per-component analysis verdicts
    against simulated lane words. *)
