(** Reference netlist evaluators for the analyses: a ternary (0/1/X)
    abstract evaluator for the lint rules, and a deliberately simple
    packed 62-lane concrete simulator that {!Certify} uses as the
    independent oracle when validating transforms — it shares no code
    with the compiled engines, so a bug in their optimizer or re-layout
    passes cannot hide in the checker.  Both evaluate a {!flat} view of
    the netlist without a closure or an allocation per component. *)

(** {2 Flat netlist view} *)

type flat = private {
  netlist : Hydra_netlist.Netlist.t;
  levels : Hydra_netlist.Levelize.t;  (** the netlist's levelization *)
  kind : int array;  (** per component: one of the [k_*] codes below *)
  fanin0 : int array;
      (** per component: the component feeding input port 0; a source
          (inport, constant) holds its own index *)
  fanin1 : int array;
      (** per component: the component feeding input port 1; a
          one-input component repeats {!fanin0} *)
  steps : int array;
      (** the levelized order as one stream, four ints per component:
          kind, fanin 0, fanin 1, component index *)
  sources : int array;  (** inports and constants, ascending *)
  dffs : int array;  (** flip flops, ascending *)
}

val flatten : Hydra_netlist.Netlist.t -> Hydra_netlist.Levelize.t -> flat
(** [flatten nl lv], where [lv] must be the levelization of the same
    [nl] ({!Hydra_netlist.Levelize.compute}); it is taken from the caller
    so that an analysis run levelizes its netlist once.  The netlist must
    be {!Hydra_netlist.Netlist.validate}d. *)

(** Kind codes.  The combinational kinds (outport and the gates) are
    [0 .. 4]; {!is_gate} tests for them. *)

val k_outport : int
val k_inv : int
val k_and : int
val k_or : int
val k_xor : int
val k_inport : int
val k_const0 : int
val k_const1 : int
val k_dff0 : int  (** flip flop powering up at 0 *)

val k_dff1 : int  (** flip flop powering up at 1 *)

val is_gate : int -> bool
(** A combinational kind: outport, inverter or two-input gate. *)

val is_dff : int -> bool

(** {2 Ternary evaluation} *)

val t_code : Hydra_core.Ternary.t -> int
(** Ternary values as ints: [F] 0, [T] 1, [X] 2. *)

val t_of_code : int -> Hydra_core.Ternary.t

val ternary_gate : flat -> int array -> int -> int
(** [ternary_gate f v i]: the one ternary abstract transfer function,
    shared by {!ternary_codes} and every forward {!Dataflow} domain.
    Evaluates combinational component [i] ({!is_gate} of its kind) over
    Kleene logic on the coded values [v] of its fanin.  A table lookup
    filled from {!Hydra_core.Ternary}'s gate functions, which stay the
    single definition of the logic.  Inports, constants and flip flops
    are not functions of their fanin: their values are boundary
    conditions of the calling analysis. *)

val ternary_codes :
  ?inputs:Hydra_core.Ternary.t ->
  ?respect_init:bool ->
  ?cycles:int ->
  flat ->
  int array
(** Settled per-component coded values (see {!t_code}) after [cycles]
    clock ticks (default 0: the first settle), every input port held at
    [inputs] (default X) and flip flops powered up at X unless
    [respect_init] (default false).  Components on combinational cycles
    read X. *)

val ternary_values :
  ?inputs:Hydra_core.Ternary.t ->
  ?respect_init:bool ->
  ?cycles:int ->
  flat ->
  Hydra_core.Ternary.t array
(** {!ternary_codes}, decoded. *)

(** {2 Packed reference simulator} *)

type packed

val packed_create : flat -> packed
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} when the
    levelization reports one (an invalid circuit). *)

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
