(** Fixpoint dataflow analyses over netlists: one worklist solver over
    int-coded lattice values, plus four clients — sequential
    constant propagation through flip flops from the reset state,
    definitive reaching-X (power-up unknowns), backward observability,
    and equivalence-class detection by partition refinement.  Feeds the
    [stuck-register] / [unobservable-logic] / [redundant-logic] lint
    rules, the certified {!Sweep} optimizer, and
    {!Hydra_verify.Bmc}-style state-space pruning.  Every positive
    verdict is falsifiable by simulation and {!crosscheck} does so
    against the packed 62-lane reference simulator. *)

type solve_stats = {
  visits : int;  (** worklist pops (transfer evaluations) *)
  updates : int;  (** pops whose recomputed value changed *)
}

type succs = { off : int array; dst : int array }
(** Successors in compressed sparse rows: node [i]'s successors are
    [dst.(off.(i)) .. dst.(off.(i + 1) - 1)], in the order they are
    queued. *)

val solve :
  ?frozen:bool array ->
  succs:succs ->
  transfer:(int array -> int -> int) ->
  int array ->
  int array * solve_stats
(** [solve ~succs ~transfer init]: chaotic iteration over nodes
    [0 .. n-1] of int-coded lattice values, starting from (and updating
    in place) [init]: seed every non-frozen node in index order, pop
    first-in first-out, recompute [transfer values i] (reading
    neighbours from [values]), and queue [succs] of [i] on change.  When
    [init] is a pre-fixpoint ([init.(i) ⊑ transfer init i]) and every
    transfer is monotone over a finite-height lattice, this terminates
    at the least fixpoint above [init] regardless of visit order.
    [frozen] nodes (an array as long as [init]) keep their [init] value
    and are never recomputed (used to pin components on combinational
    cycles at X).  A visit allocates nothing. *)

type t
(** Memoized analysis state for one netlist: each analysis runs at most
    once, later queries are free. *)

val create : Hydra_netlist.Netlist.t -> t
(** Validates, levelizes, flattens ({!Sim.flatten}) and computes the
    fanout, once: every analysis over [t] (and every {!Sim} call it
    makes) reuses that one levelization, which by construction is the
    same netlist's.  Raises [Invalid_argument] on a malformed netlist —
    the analyses index arrays with fanin numbers unchecked. *)

val netlist : t -> Hydra_netlist.Netlist.t

val levelization : t -> Hydra_netlist.Levelize.t
(** The netlist's levelization, computed once by {!create} and shared by
    every analysis over [t] (and by {!Lint.run}'s structural rules). *)

val flat : t -> Sim.flat
(** The netlist's {!Sim.flat} view over {!levelization}, built once by
    {!create} and shared by every evaluation over [t]. *)

val fanout_count : t -> int -> int
(** Number of sink ports component [i] drives (the length of its
    {!Hydra_netlist.Netlist.fanout} list). *)

val constants : t -> Hydra_core.Ternary.t array
(** Sequential constant propagation.  A known value means the component
    provably holds it at {e every} cycle from reset, for every input
    sequence; [X] means "not a constant".  Strictly stronger than the
    lint [const-gate]/[const-dff] structural checks: the fixpoint flows
    through flip flops across clock cycles.  Components on combinational
    cycles read X. *)

val stuck_registers : t -> (int * bool) list
(** Flip flops whose {!constants} value is known, with that value —
    necessarily their power-up value.  Dead state: they never leave
    reset. *)

val constant_components : t -> (int * bool) list
(** Gates and flip flops (not ports, not [Constant] components) whose
    {!constants} value is known. *)

val reaching_x : t -> Hydra_core.Ternary.t array
(** Definitive power-up X-propagation: inputs held at 0, flip flops
    starting unknown, least fixpoint in the information order.  [X]
    here means the power-up unknowns survive {e forever} — equal to the
    limit of running {!Sim.ternary_values} for ever more cycles, but
    computed directly ({!crosscheck} verifies the agreement). *)

val reaching_x_outputs : t -> string list
(** Output ports whose {!reaching_x} value is X: they can observe
    uninitialized power-up state at arbitrarily late cycles. *)

val observable : t -> bool array
(** Backward observability: a component is observable when it is an
    output port or some sink of it transmits, where a sink whose own
    value is a known sequential constant transmits nothing. *)

val live : t -> bool array
(** Structural liveness: components from which some output port is
    reachable through fanin edges (outputs included).  Computed once;
    shared, do not mutate. *)

val masked : t -> int list
(** Gates and flip flops that structurally reach an output but are not
    {!observable} and not themselves known constants: every path to an
    output is masked by a constant, so they are removable.  Sorted
    ascending.  Disjoint from plain dead logic (unreachable components),
    which the [dead-logic] lint rule already reports. *)

val classes : t -> int list list
(** Provable equivalence classes among gates and flip flops that are
    not known constants: members of one class carry equal values at
    every cycle from reset, for every input sequence (stable partition
    refinement = bisimulation; seeded by random-simulation signatures,
    confirmed by structural induction).  Each class is sorted ascending
    and has at least two members; classes are sorted by first member. *)

val diagnostics : t -> Diagnostic.t list
(** The three dataflow lint findings — [stuck-register],
    [unobservable-logic], [redundant-logic] — as structured
    diagnostics, in that order, each aggregated like the {!Lint}
    rules. *)

val stats : t -> (string * solve_stats) list
(** Worklist statistics per fixpoint analysis (forces all three). *)

val crosscheck :
  ?passes:int -> ?cycles:int -> ?seed:int -> t -> (unit, string) result
(** Falsification run: check {!reaching_x} against synchronous ternary
    iteration (exact equality at the limit), then simulate [passes]
    (default 2) × [cycles] (default 16) random packed cycles and verify
    every claimed constant never toggles and every claimed equivalence
    class carries equal words on all 62 lanes.  Any disagreement is an
    analysis soundness bug, reported with the offending component and
    cycle.  The packed part is skipped on combinationally cyclic
    netlists (they cannot be simulated). *)
