(* In-memory span recorder for the traced run.

   Two kinds of timeline are recorded:

   - the main timeline: nested [span]s on the driving domain.  A span's
     self time (its duration minus its children's) is charged to its
     layer; a root span's duration is added to the traced wall time.
     Spans without a layer charge their self time to [Unattributed].

   - team regions: one [region] per [Scheduler.run] / [Sharded.dispatch]
     call.  Task bodies on every member record their own [body] with
     per-layer accumulators.  When the region closes, each member's
     timeline from region start to region end is partitioned into queue
     wait (start to its first body), claim gaps (between bodies), idle
     tail (last body to the end, the straggler wait) and body time (split
     by layer, the remainder unattributed).  Summed over members that is
     exactly [members * wall]; dividing by [members] charges the region's
     wall exactly once, so layer self times plus [Unattributed] always add
     up to the traced wall time.

   Spans are kept at op, job and chunk granularity (per-cycle engine
   calls only feed a chunk's accumulators) and written out as Chrome
   trace-event JSON at the end. *)

type layer =
  | Netlist_build
  | Netlist_digest
  | Netlist_optimize
  | Kernel_compile
  | Cache_lookup
  | Sched_queue_wait
  | Sched_claim_gap
  | Sched_idle
  | Engine_setup
  | Engine_settle
  | Engine_tick
  | Engine_io
  | Stimulus
  | Validate
  | Asm_assemble
  | Verdict
  | Analyze_lint
  | Equiv_check
  | Unattributed

let layers =
  [| Netlist_build; Netlist_digest; Netlist_optimize; Kernel_compile;
     Cache_lookup; Sched_queue_wait; Sched_claim_gap; Sched_idle;
     Engine_setup; Engine_settle; Engine_tick; Engine_io; Stimulus;
     Validate; Asm_assemble; Verdict; Analyze_lint; Equiv_check; Unattributed |]

let n_layers = Array.length layers

let index l =
  let rec find i = if layers.(i) = l then i else find (i + 1) in
  find 0

let name = function
  | Netlist_build -> "netlist.build"
  | Netlist_digest -> "netlist.digest"
  | Netlist_optimize -> "netlist.optimize"
  | Kernel_compile -> "kernel.compile"
  | Cache_lookup -> "cache.lookup"
  | Sched_queue_wait -> "scheduler.queue_wait"
  | Sched_claim_gap -> "scheduler.claim_gap"
  | Sched_idle -> "scheduler.idle"
  | Engine_setup -> "engine.setup"
  | Engine_settle -> "engine.settle"
  | Engine_tick -> "engine.tick"
  | Engine_io -> "engine.io"
  | Stimulus -> "stimulus.build"
  | Validate -> "campaign.validate"
  | Asm_assemble -> "asm.assemble"
  | Verdict -> "verdict.classify"
  | Analyze_lint -> "analyze.lint"
  | Equiv_check -> "equiv.check"
  | Unattributed -> "unattributed"

let now = Unix.gettimeofday

(* Tracing is off in untraced runs: [span] and [body] then cost one
   branch. *)
let enabled = ref false

let totals = Array.make n_layers 0.0
let counts = Array.make n_layers 0  (* main-timeline spans per layer *)
let wall = ref 0.0
let current_op = ref (-1)

type event = {
  ev_name : string;
  ev_start : float;
  ev_stop : float;
  ev_id : int;
  ev_parent : int;
  ev_op : int;
  ev_tid : int;
  ev_args : (string * float) list;
}

let events = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* main-timeline stack: (span id, accumulated child duration) *)
let stack : (int * float ref) list ref = ref []

let parent_id () = match !stack with (id, _) :: _ -> id | [] -> -1

let charge l dt = totals.(index l) <- totals.(index l) +. dt

let span ?layer ?layer_of label f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = parent_id () in
    let children = ref 0.0 in
    stack := (id, children) :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      let dur = t1 -. t0 in
      let l =
        match layer_of with
        | Some g -> g ()
        | None -> Option.value layer ~default:Unattributed
      in
      charge l (dur -. !children);
      counts.(index l) <- counts.(index l) + 1;
      (match !stack with
      | (_, c) :: _ -> c := !c +. dur
      | [] -> wall := !wall +. dur);
      events :=
        { ev_name = label; ev_start = t0; ev_stop = t1; ev_id = id;
          ev_parent = parent; ev_op = !current_op; ev_tid = 0; ev_args = [] }
        :: !events
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* ---- team regions ---- *)

type body_rec = { b_start : float; b_stop : float; b_acc : float array; b_task : int }

type region = {
  r_name : string;
  r_id : int;
  r_members : int;
  r_start : float;
  r_bodies : body_rec list array;  (* one slot per member, member-owned *)
}

let region_begin name ~members =
  {
    r_name = name;
    r_id = (if !enabled then fresh_id () else -1);
    r_members = members;
    r_start = now ();
    r_bodies = Array.make members [];
  }

(* A per-body accumulator: [time acc l f] runs [f] and charges its
   duration to layer [l] of this body. *)
type acc = float array

let dummy_acc : acc = Array.make n_layers 0.0

let time (acc : acc) l f =
  if acc == dummy_acc then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let i = index l in
    acc.(i) <- acc.(i) +. (now () -. t0);
    r
  end

let body region ~member ~task f =
  if not !enabled then f dummy_acc
  else begin
    let acc = Array.make n_layers 0.0 in
    let t0 = now () in
    let finish () =
      let b = { b_start = t0; b_stop = now (); b_acc = acc; b_task = task } in
      region.r_bodies.(member) <- b :: region.r_bodies.(member)
    in
    match f acc with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* Busy body time and member-seconds of every closed region, for
   [scheduler.busy_ratio]. *)
let busy = ref 0.0
let member_seconds = ref 0.0

let region_end region =
  if !enabled then begin
    let r_stop = now () in
    let w = r_stop -. region.r_start in
    let m = float_of_int region.r_members in
    let part = Array.make n_layers 0.0 in
    let add l dt = part.(index l) <- part.(index l) +. dt in
    Array.iteri
      (fun member bodies ->
        let bodies = List.sort (fun a b -> compare a.b_start b.b_start) bodies in
        match bodies with
        | [] -> add Sched_idle w
        | first :: _ ->
          add Sched_queue_wait (first.b_start -. region.r_start);
          let last =
            List.fold_left
              (fun prev b ->
                (match prev with
                | Some p -> add Sched_claim_gap (b.b_start -. p.b_stop)
                | None -> ());
                let dur = b.b_stop -. b.b_start in
                busy := !busy +. dur;
                let covered = Array.fold_left ( +. ) 0.0 b.b_acc in
                Array.iteri (fun i dt -> part.(i) <- part.(i) +. dt) b.b_acc;
                add Unattributed (dur -. covered);
                events :=
                  { ev_name = region.r_name ^ ".task";
                    ev_start = b.b_start; ev_stop = b.b_stop;
                    ev_id = fresh_id (); ev_parent = region.r_id;
                    ev_op = !current_op; ev_tid = member;
                    ev_args =
                      ("task", float_of_int b.b_task)
                      :: List.filter_map
                           (fun l ->
                             let v = b.b_acc.(index l) in
                             if v > 0.0 then Some (name l, v) else None)
                           (Array.to_list layers) }
                  :: !events;
                Some b)
              None bodies
          in
          Option.iter (fun b -> add Sched_idle (r_stop -. b.b_stop)) last)
      region.r_bodies;
    member_seconds := !member_seconds +. (w *. m);
    Array.iteri (fun i dt -> totals.(i) <- totals.(i) +. (dt /. m)) part;
    (* the region's wall is accounted above: it counts as a child of the
       enclosing main-timeline span, or as a root if there is none *)
    (match !stack with
    | (_, c) :: _ -> c := !c +. w
    | [] -> wall := !wall +. w);
    events :=
      { ev_name = region.r_name; ev_start = region.r_start; ev_stop = r_stop;
        ev_id = region.r_id; ev_parent = parent_id (); ev_op = !current_op;
        ev_tid = 0; ev_args = [ ("members", m) ] }
      :: !events
  end

let region name ~members f =
  let r = region_begin name ~members in
  match f r with
  | v -> region_end r; v
  | exception e -> region_end r; raise e

(* ---- output ---- *)

let spans () = List.length !events

(* Chrome trace-event JSON (opens in Perfetto or about:tracing). *)
let write path =
  let oc = open_out path in
  let t_origin =
    List.fold_left (fun a e -> Float.min a e.ev_start) infinity !events
  in
  let us t = (t -. t_origin) *. 1e6 in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d"
        e.ev_name e.ev_tid (us e.ev_start) ((e.ev_stop -. e.ev_start) *. 1e6)
        e.ev_id e.ev_parent e.ev_op;
      List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%.9g" k v) e.ev_args;
      output_string oc "}}")
    (List.rev !events);
  output_string oc "\n]}\n";
  close_out oc
