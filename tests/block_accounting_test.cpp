// Determinism oracle for block-batched accounting (DESIGN.md §11).
//
// The interpreter charges resource accounting per basic block, with a serial
// (per-instruction) fallback around checkpoints and the instruction limit.
// These tests pin the contract: the batched charge produces ExecStats
// bit-identical to the oracle mode (per-instruction accounting over unfused
// lowering) — including at traps, checkpoints, and in the instrumented
// counter global that feeds signed resource logs.
#include <gtest/gtest.h>

#include <vector>

#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "instrument/passes.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sgx/platform.hpp"
#include "test_util.hpp"
#include "wasm/binary.hpp"
#include "workloads/polybench.hpp"

namespace acctee::interp {
namespace {

struct Combo {
  const char* name;
  bool fuse;             // superinstruction fusion at lowering time
  bool per_instruction;  // serial accounting in every block
};

// The oracle ("serial", unfused) goes first, so the batched row is compared
// against it.
std::vector<Combo> combos() {
  return {
      {"serial", false, true},
      {"batched", true, false},
  };
}

CompiledModulePtr compile_for(const wasm::Module& module, const Combo& combo) {
  CompiledModule::CompileOptions copts;
  copts.lower.fuse = combo.fuse;
  return compile(module, copts);
}

Instance::Options combo_options(const Combo& combo) {
  Instance::Options opts;
  opts.cache_model = false;
  opts.per_instruction_accounting = combo.per_instruction;
  return opts;
}

void expect_stats_equal(const ExecStats& got, const ExecStats& want,
                        const char* label) {
  EXPECT_EQ(got.instructions, want.instructions) << label;
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.mem_loads, want.mem_loads) << label;
  EXPECT_EQ(got.mem_stores, want.mem_stores) << label;
  EXPECT_EQ(got.host_calls, want.host_calls) << label;
  EXPECT_EQ(got.peak_memory_bytes, want.peak_memory_bytes) << label;
  EXPECT_EQ(got.memory_integral, want.memory_integral) << label;
  EXPECT_EQ(got.per_op, want.per_op) << label;
}

// ---------------------------------------------------------------------------
// Full-run equality on real workloads
// ---------------------------------------------------------------------------

TEST(BlockAccounting, PolybenchStatsBitIdenticalAcrossCombos) {
  for (const char* kernel : {"gemm", "atax", "bicg"}) {
    wasm::Module module = workloads::build_polybench(kernel, 12);
    ExecStats reference;
    bool have_reference = false;
    for (const Combo& combo : combos()) {
      Instance inst(compile_for(module, combo), {}, combo_options(combo));
      inst.invoke("run");
      EXPECT_TRUE(inst.stats().per_op_conserved())
          << kernel << " " << combo.name;
      if (!have_reference) {
        reference = inst.stats();
        have_reference = true;
      } else {
        expect_stats_equal(inst.stats(), reference, combo.name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation + monotonicity observed from inside checkpoints
// ---------------------------------------------------------------------------

TEST(BlockAccounting, CheckpointObservesConservedMonotoneStats) {
  wasm::Module module = workloads::build_polybench("mvt", 24);
  for (const Combo& combo : combos()) {
    Instance inst(compile_for(module, combo), {}, combo_options(combo));
    uint64_t last_instructions = 0;
    uint64_t last_integral = 0;
    uint64_t fired = 0;
    inst.set_checkpoint(1000, [&](Instance& self) {
      ++fired;
      EXPECT_TRUE(self.stats().per_op_conserved()) << combo.name;
      EXPECT_GE(self.stats().instructions, last_instructions) << combo.name;
      EXPECT_GE(self.stats().memory_integral, last_integral) << combo.name;
      last_instructions = self.stats().instructions;
      last_integral = self.stats().memory_integral;
    });
    inst.invoke("run");
    EXPECT_GT(fired, 0u) << combo.name;
  }
}

// Checkpoints must fire at the exact same instruction counts in every
// combination — batching splits blocks at checkpoint crossings so the
// handler still observes the serial counter values.
TEST(BlockAccounting, CheckpointSnapshotsIdenticalAcrossCombos) {
  wasm::Module module = workloads::build_polybench("atax", 16);
  std::vector<std::pair<uint64_t, uint64_t>> reference;  // (instr, cycles)
  bool have_reference = false;
  for (const Combo& combo : combos()) {
    Instance inst(compile_for(module, combo), {}, combo_options(combo));
    std::vector<std::pair<uint64_t, uint64_t>> snapshots;
    // A deliberately awkward interval so crossings land mid-block.
    inst.set_checkpoint(997, [&](Instance& self) {
      snapshots.emplace_back(self.stats().instructions, self.stats().cycles);
    });
    inst.invoke("run");
    ASSERT_FALSE(snapshots.empty()) << combo.name;
    if (!have_reference) {
      reference = snapshots;
      have_reference = true;
    } else {
      EXPECT_EQ(snapshots, reference) << combo.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Trap points
// ---------------------------------------------------------------------------

// The instruction limit must fire at the exact same instruction index as
// per-instruction accounting: blocks that would cross the limit run serial.
TEST(BlockAccounting, InstructionLimitFiresAtSameIndex) {
  // Loop body is a straight-line block of several ops, so most limit values
  // land mid-block.
  const char* wat = R"((module (func (export "f") (local i32)
    loop $l
      local.get 0
      i32.const 1
      i32.add
      local.set 0
      br $l
    end
  )))";
  for (uint64_t limit : {9997u, 10000u, 10003u}) {
    uint64_t reference = 0;
    bool have_reference = false;
    for (const Combo& combo : combos()) {
      Instance::Options opts = combo_options(combo);
      opts.max_instructions = limit;
      wasm::Module module = wasm::parse_wat(wat);
      wasm::validate(module);
      Instance inst(compile_for(module, combo), {}, opts);
      EXPECT_THROW(inst.invoke("f"), TrapError) << combo.name;
      EXPECT_TRUE(inst.stats().per_op_conserved()) << combo.name;
      // Serial semantics: the (limit+1)-th instruction is accounted, then
      // the limit check traps.
      EXPECT_EQ(inst.stats().instructions, limit + 1) << combo.name;
      if (!have_reference) {
        reference = inst.stats().cycles;
        have_reference = true;
      } else {
        EXPECT_EQ(inst.stats().cycles, reference) << combo.name;
      }
    }
  }
}

// A trap in the middle of a pre-charged block must leave exactly the serial
// stats behind: the never-executed suffix is un-charged, the trapping
// instruction itself stays accounted.
TEST(BlockAccounting, MidBlockTrapLeavesSerialStats) {
  // nop padding puts the div_s deep inside a straight-line block with more
  // accounted ops after it.
  const char* wat = R"((module (func (export "f") (result i32)
    nop nop nop
    i32.const 7
    i32.const 0
    i32.div_s
    i32.const 1
    i32.add
  )))";
  ExecStats reference;
  bool have_reference = false;
  for (const Combo& combo : combos()) {
    wasm::Module module = wasm::parse_wat(wat);
    wasm::validate(module);
    Instance inst(compile_for(module, combo), {}, combo_options(combo));
    EXPECT_THROW(inst.invoke("f"), TrapError) << combo.name;
    EXPECT_TRUE(inst.stats().per_op_conserved()) << combo.name;
    if (!have_reference) {
      reference = inst.stats();
      have_reference = true;
    } else {
      expect_stats_equal(inst.stats(), reference, combo.name);
    }
  }
  // The i32.add after the div must not be in the histogram.
  EXPECT_EQ(reference.per_op[static_cast<size_t>(wasm::Op::I32Add)], 0u);
  EXPECT_EQ(reference.per_op[static_cast<size_t>(wasm::Op::I32DivS)], 1u);
}

// Out-of-bounds memory access: the trap comes from inside the op body
// (after the block was charged), exercising uncharge_block_suffix through
// the memory path.
TEST(BlockAccounting, OutOfBoundsTrapLeavesSerialStats) {
  const char* wat = R"((module (memory 1) (func (export "f") (result i32)
    i32.const 70000
    i32.load offset=65536
    i32.const 2
    i32.mul
  )))";
  ExecStats reference;
  bool have_reference = false;
  for (const Combo& combo : combos()) {
    wasm::Module module = wasm::parse_wat(wat);
    wasm::validate(module);
    Instance inst(compile_for(module, combo), {}, combo_options(combo));
    EXPECT_THROW(inst.invoke("f"), TrapError) << combo.name;
    EXPECT_TRUE(inst.stats().per_op_conserved()) << combo.name;
    if (!have_reference) {
      reference = inst.stats();
      have_reference = true;
    } else {
      expect_stats_equal(inst.stats(), reference, combo.name);
    }
  }
}

// ---------------------------------------------------------------------------
// Instrumented counter (signed-log equivalence)
// ---------------------------------------------------------------------------

// The instrumented counter global is what the accounting enclave signs;
// its final value must not depend on accounting granularity or fusion.
TEST(BlockAccounting, InstrumentedCounterIdenticalAcrossCombos) {
  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  wasm::Module instrumented =
      instrument::instrument(workloads::build_polybench("gemm", 12), opts)
          .module;
  int64_t reference = 0;
  bool have_reference = false;
  for (const Combo& combo : combos()) {
    Instance inst(compile_for(instrumented, combo), {}, combo_options(combo));
    inst.invoke("run");
    int64_t counter = inst.read_global(instrument::kCounterExport).i64();
    EXPECT_GT(counter, 0) << combo.name;
    if (!have_reference) {
      reference = counter;
      have_reference = true;
    } else {
      EXPECT_EQ(counter, reference) << combo.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Observability neutrality (DESIGN.md §12)
// ---------------------------------------------------------------------------

// Attaching a profiler and enabling the tracer must leave ExecStats, the
// checkpoint snapshots, and the instrumented counter bit-identical in every
// combination: the profiled run loop only *reads* block costs, and spans
// never open inside the interpreter loop.
TEST(BlockAccounting, ProfilingAndTracingLeaveStatsIdentical) {
  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  wasm::Module instrumented =
      instrument::instrument(workloads::build_polybench("atax", 16), opts)
          .module;
  obs::Tracer::global().enable(true);
  for (const Combo& combo : combos()) {
    auto run_once = [&](obs::FuncProfiler* profiler, ExecStats* stats,
                        int64_t* counter,
                        std::vector<std::pair<uint64_t, uint64_t>>* snaps) {
      Instance::Options options = combo_options(combo);
      options.profiler = profiler;
      Instance inst(compile_for(instrumented, combo), {}, options);
      inst.set_checkpoint(997, [&](Instance& self) {
        snaps->emplace_back(self.stats().instructions, self.stats().cycles);
      });
      inst.invoke("run");
      *stats = inst.stats();
      *counter = inst.read_global(instrument::kCounterExport).i64();
    };

    ExecStats plain_stats, profiled_stats;
    int64_t plain_counter = 0, profiled_counter = 0;
    std::vector<std::pair<uint64_t, uint64_t>> plain_snaps, profiled_snaps;
    run_once(nullptr, &plain_stats, &plain_counter, &plain_snaps);
    obs::FuncProfiler profiler;
    run_once(&profiler, &profiled_stats, &profiled_counter, &profiled_snaps);

    expect_stats_equal(profiled_stats, plain_stats, combo.name);
    EXPECT_EQ(profiled_counter, plain_counter) << combo.name;
    EXPECT_EQ(profiled_snaps, plain_snaps) << combo.name;
    ASSERT_FALSE(plain_snaps.empty()) << combo.name;
    // The profiler did attribute the run (interval 1 sees every block).
    EXPECT_EQ(profiler.total_sampled_instructions(), plain_stats.instructions)
        << combo.name;
  }
  obs::Tracer::global().enable(false);
}

// The signed resource logs the AE emits — interim checkpoints and the final
// log, including signatures — must be byte-identical whether or not
// profiling and tracing are active during execution.
TEST(BlockAccounting, SignedLogsByteIdenticalWithObservability) {
  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  wasm::Module module = workloads::build_polybench("bicg", 16);
  Bytes binary = wasm::encode(module);

  auto run_world = [&](bool observe) {
    sgx::Platform ie_host{"ie-host", to_bytes("ie-seed")};
    sgx::Platform cloud{"cloud", to_bytes("cloud-seed")};
    core::InstrumentationEnclave ie(ie_host, opts);
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = opts;
    config.checkpoint_interval = 5000;
    obs::FuncProfiler profiler;
    if (observe) {
      config.profiler = &profiler;
      obs::Tracer::global().enable(true);
    }
    core::AccountingEnclave ae(cloud, config);
    auto out = ie.instrument_binary(binary);
    auto outcome =
        ae.execute(out.instrumented_binary, out.evidence, "run", {});
    obs::Tracer::global().enable(false);
    if (observe) {
      EXPECT_GT(profiler.total_sampled_instructions(), 0u);
    }
    return outcome;
  };

  core::AccountingEnclave::Outcome plain = run_world(false);
  core::AccountingEnclave::Outcome observed = run_world(true);

  EXPECT_EQ(observed.signed_log.log.serialize(),
            plain.signed_log.log.serialize());
  EXPECT_EQ(observed.signed_log.signature.serialize(),
            plain.signed_log.signature.serialize());
  ASSERT_EQ(observed.interim_logs.size(), plain.interim_logs.size());
  ASSERT_FALSE(plain.interim_logs.empty());
  for (size_t i = 0; i < plain.interim_logs.size(); ++i) {
    EXPECT_EQ(observed.interim_logs[i].log.serialize(),
              plain.interim_logs[i].log.serialize())
        << "interim " << i;
    EXPECT_EQ(observed.interim_logs[i].signature.serialize(),
              plain.interim_logs[i].signature.serialize())
        << "interim " << i;
  }
}

// Default options (DispatchMode::Auto, the only value) run the one loop.
TEST(BlockAccounting, AutoDispatchRuns) {
  Instance inst = testutil::make_instance(R"((module
    (func (export "f") (result i32) i32.const 41 i32.const 1 i32.add)))");
  EXPECT_EQ(inst.invoke("f").at(0).i32(), 42);
  EXPECT_TRUE(inst.stats().per_op_conserved());
}

}  // namespace
}  // namespace acctee::interp
