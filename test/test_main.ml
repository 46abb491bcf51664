(* Test runner: one Alcotest suite per subsystem. *)

let () =
  Alcotest.run "hydra"
    [
      ("patterns", Test_patterns.suite);
      ("bitvec", Test_bitvec.suite);
      ("semantics", Test_semantics.suite);
      ("circuits", Test_circuits.suite);
      ("arith", Test_arith.suite);
      ("regs", Test_regs.suite);
      ("netlist", Test_netlist.suite);
      ("levelize", Test_levelize.suite);
      ("parallel", Test_parallel.suite);
      ("engine", Test_engine.suite);
      ("wide", Test_wide.suite);
      ("slab", Test_slab.suite);
      ("engine_laws", Test_engine_laws.suite);
      ("sharded", Test_sharded.suite);
      ("isa", Test_isa.suite);
      ("cpu", Test_cpu.suite);
      ("verify", Test_verify.suite);
      ("sorter", Test_sorter.suite);
      ("extras", Test_extras.suite);
      ("synth", Test_synth.suite);
      ("uart", Test_uart.suite);
      ("stack", Test_stack.suite);
      ("bench_tools", Test_bench_tools.suite);
      ("interconnect", Test_interconnect.suite);
      ("more", Test_more.suite);
      ("gaps", Test_gaps.suite);
      ("transform", Test_transform.suite);
      ("analyze", Test_analyze.suite);
      ("pipeline", Test_pipeline.suite);
      ("dataflow", Test_dataflow.suite);
      ("campaign", Test_campaign.suite);
      ("cache", Test_cache.suite);
      ("scheduler", Test_scheduler.suite);
      ("resilience", Test_resilience.suite);
    ]
