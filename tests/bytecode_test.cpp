// The three-stage execution pipeline (DESIGN.md §15): lowered internal
// bytecode with fused accounting superinstructions.
//
// Contract under test: the batched, fused execution that ships produces
// ExecStats, checkpoint snapshots and instrumented counter values
// bit-identical to the oracle mode (per-instruction accounting over unfused
// lowering), over real workloads and on every trap path (mid-block traps
// inside fused regions, instruction-limit exhaustion), and the signed log of
// a trapped run does not depend on profiling. Plus the structural invariants
// of the lowered form, the determinism of the binding digest, the frame
// reservation, and every point where the run loop writes its state back.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "instrument/passes.hpp"
#include "obs/profile.hpp"
#include "sgx/platform.hpp"
#include "test_util.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

namespace acctee::interp {
namespace {

struct Backend {
  const char* name;
  bool fuse;              // superinstruction fusion at lowering time
  bool per_instruction;   // serial accounting in every block
};

// The oracle row goes first, so every later row is compared against it:
// without fusion each bytecode op is one flat op, charged by serial_account
// before its handler runs, so neither fusion nor the batched EnterBlock
// charge is on the reference path.
std::vector<Backend> backends() {
  return {
      {"oracle", false, true},
      {"bc", true, false},
      {"bc/serial", true, true},
      {"bc/nofuse", false, false},
  };
}

CompiledModulePtr compile_for(const wasm::Module& module, const Backend& b) {
  CompiledModule::CompileOptions copts;
  copts.lower.fuse = b.fuse;
  return compile(module, copts);
}

Instance::Options backend_options(const Backend& b) {
  Instance::Options opts;
  opts.cache_model = false;
  opts.per_instruction_accounting = b.per_instruction;
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

size_t count_superops(const std::vector<BcFunc>& lowered,
                      bool include_enter_block = false) {
  size_t n = 0;
  for (const BcFunc& bf : lowered) {
    for (const BcInstr& bi : bf.code) {
      if (!bc_is_super(bi.op)) continue;
      if (bi.op == BcOp::EnterBlock && !include_enter_block) continue;
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Lowered-form structure
// ---------------------------------------------------------------------------

TEST(Lowering, SuperinstructionsFireOnRealKernels) {
  for (const char* kernel : {"gemm", "atax", "jacobi-2d"}) {
    wasm::Module module = workloads::build_polybench(kernel, 8);
    CompiledModulePtr fused = compile(module, {});
    EXPECT_GT(count_superops(fused->lowered()), 0u)
        << kernel << ": fusion found nothing to fuse";

    CompiledModule::CompileOptions nofuse;
    nofuse.lower.fuse = false;
    CompiledModulePtr plain = compile(module, nofuse);
    EXPECT_EQ(count_superops(plain->lowered()), 0u)
        << kernel << ": fuse=false must emit only EnterBlock superops";
    // The lowered stream without fusion is the flat stream plus one
    // EnterBlock per block.
    for (size_t f = 0; f < plain->flat().size(); ++f) {
      EXPECT_EQ(plain->lowered()[f].code.size(),
                plain->flat()[f].code.size() + plain->flat()[f].blocks.size())
          << kernel << " func " << f;
    }
    // The digest commits to the fusion flag and the lowered bytes.
    EXPECT_NE(fused->lowering_digest(), plain->lowering_digest()) << kernel;
  }
}

TEST(Lowering, DeterministicAcrossCompiles) {
  wasm::Module module = workloads::build_polybench("bicg", 10);
  CompiledModulePtr a = compile(module, {});
  CompiledModulePtr b = compile(module, {});
  ASSERT_EQ(a->lowered().size(), b->lowered().size());
  for (size_t f = 0; f < a->lowered().size(); ++f) {
    EXPECT_EQ(a->lowered()[f], b->lowered()[f]) << "func " << f;
  }
  EXPECT_EQ(a->lowering_digest(), b->lowering_digest());
}

TEST(Lowering, BranchesLandOnEnterBlockAndFlatRangesTile) {
  wasm::Module module = workloads::build_polybench("gemm", 8);
  CompiledModulePtr compiled = compile(module, {});
  for (size_t f = 0; f < compiled->lowered().size(); ++f) {
    const BcFunc& bf = compiled->lowered()[f];
    const FlatFunc& ff = compiled->flat()[f];
    ASSERT_FALSE(bf.code.empty());
    EXPECT_EQ(bf.code.front().op, BcOp::EnterBlock) << "func " << f;
    uint32_t next_flat = 0;
    for (size_t pc = 0; pc < bf.code.size(); ++pc) {
      const BcInstr& bi = bf.code[pc];
      // Flat constituent ranges tile the function in order: the lowered
      // stream accounts for every flat op exactly once.
      EXPECT_EQ(bi.flat_pc, next_flat) << "func " << f << " bc pc " << pc;
      EXPECT_GE(bi.flat_end, bi.flat_pc);
      next_flat = bi.flat_end;
      if (bc_has_branch_target(bi.op)) {
        ASSERT_LT(bi.target_pc, bf.code.size());
        EXPECT_EQ(bf.code[bi.target_pc].op, BcOp::EnterBlock)
            << "func " << f << " bc pc " << pc;
      }
      if (bi.op == BcOp::EnterBlock) {
        // EnterBlock charges match the flattened BlockCost table verbatim.
        const BlockCost& blk = ff.blocks[ff.block_index[bi.flat_pc]];
        EXPECT_EQ(bi.a, blk.instructions);
        EXPECT_EQ(bi.b, blk.cycles);
        EXPECT_EQ(bi.c, blk.hist_begin);
        EXPECT_EQ(bi.unwind, blk.hist_end);
        EXPECT_EQ(bi.target_pc, blk.end_pc);
      }
    }
    EXPECT_EQ(next_flat, ff.code.size()) << "func " << f;
    for (const auto& table : bf.br_tables) {
      for (const BrTarget& t : table) {
        ASSERT_LT(t.pc, bf.code.size());
        EXPECT_EQ(bf.code[t.pc].op, BcOp::EnterBlock);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full-run stats equality on real workloads
// ---------------------------------------------------------------------------

TEST(Bytecode, PolybenchStatsBitIdenticalAcrossBackends) {
  for (const char* kernel : {"gemm", "atax", "bicg", "cholesky"}) {
    wasm::Module module = workloads::build_polybench(kernel, 10);
    ExecStats reference;
    bool have_reference = false;
    for (const Backend& b : backends()) {
      Instance inst(compile_for(module, b), {}, backend_options(b));
      inst.invoke("run");
      EXPECT_TRUE(inst.stats().per_op_conserved()) << kernel << " " << b.name;
      if (!have_reference) {
        reference = inst.stats();
        have_reference = true;
      } else {
        expect_stats_equal(inst.stats(), reference, b.name);
      }
    }
  }
}

TEST(Bytecode, UsecaseStatsBitIdenticalAcrossBackends) {
  for (const auto& usecase : workloads::usecases()) {
    wasm::Module module = usecase.build();
    ExecStats reference;
    bool have_reference = false;
    Values results_reference;
    for (const Backend& b : backends()) {
      Instance inst(compile_for(module, b), {}, backend_options(b));
      Values results = inst.invoke("run", {TypedValue::make_i32(usecase.bench_scale)});
      EXPECT_TRUE(inst.stats().per_op_conserved())
          << usecase.name << " " << b.name;
      if (!have_reference) {
        reference = inst.stats();
        results_reference = results;
        have_reference = true;
      } else {
        expect_stats_equal(inst.stats(), reference, b.name);
        ASSERT_EQ(results.size(), results_reference.size()) << b.name;
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].bits, results_reference[i].bits)
              << usecase.name << " " << b.name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(Bytecode, CheckpointSnapshotsIdenticalAcrossBackends) {
  wasm::Module module = workloads::build_polybench("atax", 16);
  std::vector<std::pair<uint64_t, uint64_t>> reference;
  bool have_reference = false;
  for (const Backend& b : backends()) {
    Instance inst(compile_for(module, b), {}, backend_options(b));
    std::vector<std::pair<uint64_t, uint64_t>> snapshots;
    // A deliberately awkward interval so crossings land mid-block and in
    // the middle of fused superinstruction patterns.
    inst.set_checkpoint(997, [&](Instance& self) {
      snapshots.emplace_back(self.stats().instructions, self.stats().cycles);
    });
    inst.invoke("run");
    ASSERT_FALSE(snapshots.empty()) << b.name;
    if (!have_reference) {
      reference = snapshots;
      have_reference = true;
    } else {
      EXPECT_EQ(snapshots, reference) << b.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Trap paths
// ---------------------------------------------------------------------------

// The loop body below is exactly the [local.get][i32.const][i32.add]
// [local.set] shape the lowerer fuses into one superinstruction, so limit
// values landing "inside" the fused pattern force the serial fallback to
// replay the flat constituents — the trap must fire at the same serial
// instruction index in every row.
TEST(Bytecode, InstructionLimitFiresAtSameIndexInsideFusedPattern) {
  const char* wat = R"((module (func (export "f") (local i32)
    loop $l
      local.get 0
      i32.const 1
      i32.add
      local.set 0
      br $l
    end
  )))";
  for (uint64_t limit : {9997u, 9998u, 9999u, 10000u}) {
    uint64_t reference = 0;
    bool have_reference = false;
    for (const Backend& b : backends()) {
      wasm::Module module = wasm::parse_wat(wat);
      wasm::validate(module);
      Instance::Options opts = backend_options(b);
      opts.max_instructions = limit;
      Instance inst(compile_for(module, b), {}, opts);
      EXPECT_THROW(inst.invoke("f"), TrapError) << b.name;
      EXPECT_TRUE(inst.stats().per_op_conserved()) << b.name;
      EXPECT_EQ(inst.stats().instructions, limit + 1) << b.name;
      if (!have_reference) {
        reference = inst.stats().cycles;
        have_reference = true;
      } else {
        EXPECT_EQ(inst.stats().cycles, reference) << b.name;
      }
    }
  }
}

// A trap right after fused superinstructions: the pre-charged never-executed
// block suffix must be un-charged exactly, even though the executed prefix
// ran as fused superinstructions whose bytecode pcs no longer match flat pcs.
TEST(Bytecode, MidBlockTrapAfterFusedPrefixLeavesSerialStats) {
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    (local i32)
    local.get 0
    i32.const 3
    i32.add
    local.set 1
    i32.const 7
    local.get 1
    i32.sub
    i32.const 0
    i32.div_s
    i32.const 1
    i32.add
  )))";
  ExecStats reference;
  bool have_reference = false;
  for (const Backend& b : backends()) {
    wasm::Module module = wasm::parse_wat(wat);
    wasm::validate(module);
    Instance inst(compile_for(module, b), {}, backend_options(b));
    EXPECT_THROW(inst.invoke("f", {TypedValue::make_i32(4)}), TrapError) << b.name;
    EXPECT_TRUE(inst.stats().per_op_conserved()) << b.name;
    if (!have_reference) {
      reference = inst.stats();
      have_reference = true;
    } else {
      expect_stats_equal(inst.stats(), reference, b.name);
    }
  }
  // The i32.add after the div must not be in the histogram; the div is.
  EXPECT_EQ(reference.per_op[static_cast<size_t>(wasm::Op::I32DivS)], 1u);
  EXPECT_EQ(reference.per_op[static_cast<size_t>(wasm::Op::I32Add)], 1u);
}

TEST(Bytecode, OutOfBoundsTrapLeavesSerialStats) {
  const char* wat = R"((module (memory 1) (func (export "f") (result i32)
    i32.const 70000
    i32.load offset=65536
    i32.const 2
    i32.mul
  )))";
  ExecStats reference;
  bool have_reference = false;
  for (const Backend& b : backends()) {
    wasm::Module module = wasm::parse_wat(wat);
    wasm::validate(module);
    Instance inst(compile_for(module, b), {}, backend_options(b));
    EXPECT_THROW(inst.invoke("f"), TrapError) << b.name;
    EXPECT_TRUE(inst.stats().per_op_conserved()) << b.name;
    if (!have_reference) {
      reference = inst.stats();
      have_reference = true;
    } else {
      expect_stats_equal(inst.stats(), reference, b.name);
    }
  }
}

// ---------------------------------------------------------------------------
// Instrumented counter and signed logs
// ---------------------------------------------------------------------------

TEST(Bytecode, InstrumentedCounterIdenticalAndIncrementFused) {
  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  wasm::Module instrumented =
      instrument::instrument(workloads::build_polybench("gemm", 10), opts)
          .module;
  // The instrumentation's counter increments lower to the fused
  // GlobalAddConstI64 superinstruction.
  CompiledModulePtr compiled = compile(instrumented, {});
  size_t fused_increments = 0;
  for (const BcFunc& bf : compiled->lowered()) {
    for (const BcInstr& bi : bf.code) {
      if (bi.op == BcOp::GlobalAddConstI64) ++fused_increments;
    }
  }
  EXPECT_GT(fused_increments, 0u);

  int64_t reference = 0;
  bool have_reference = false;
  for (const Backend& b : backends()) {
    Instance inst(compile_for(instrumented, b), {}, backend_options(b));
    inst.invoke("run");
    int64_t counter = inst.read_global(instrument::kCounterExport).i64();
    EXPECT_GT(counter, 0) << b.name;
    if (!have_reference) {
      reference = counter;
      have_reference = true;
    } else {
      EXPECT_EQ(counter, reference) << b.name;
    }
  }
}

// The signed log of a run stopped by the instruction limit (the workload
// still owes for what it ran) must not depend on whether the profiled run
// loop executed it.
TEST(Bytecode, TrappedSignedLogsByteIdenticalWithProfiler) {
  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  wasm::Module module = workloads::build_polybench("gemm", 12);
  Bytes binary = wasm::encode(module);

  auto run_world = [&](obs::FuncProfiler* profiler) {
    sgx::Platform ie_host{"ie-host", to_bytes("ie-seed")};
    sgx::Platform cloud{"cloud", to_bytes("cloud-seed")};
    core::InstrumentationEnclave ie(ie_host, opts);
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = opts;
    config.max_instructions = 20000;  // exhaust mid-run
    config.profiler = profiler;
    core::AccountingEnclave ae(cloud, config);
    auto out = ie.instrument_binary(binary);
    return ae.execute(out.instrumented_binary, out.evidence, "run", {});
  };

  core::AccountingEnclave::Outcome reference = run_world(nullptr);
  EXPECT_TRUE(reference.signed_log.log.trapped);
  obs::FuncProfiler profiler;
  core::AccountingEnclave::Outcome profiled = run_world(&profiler);
  EXPECT_GT(profiler.total_sampled_instructions(), 0u);
  EXPECT_TRUE(profiled.signed_log.log.trapped);
  EXPECT_EQ(profiled.signed_log.log.serialize(),
            reference.signed_log.log.serialize());
  EXPECT_EQ(profiled.signed_log.signature.serialize(),
            reference.signed_log.signature.serialize());
  EXPECT_EQ(profiled.trap_message, reference.trap_message);
}

// ---------------------------------------------------------------------------
// Frame reservation: BcFunc::max_height on hand-built functions with known
// answers. Every function is also run, so in a build without NDEBUG each
// push is checked against the reservation.
// ---------------------------------------------------------------------------

CompiledModulePtr compile_wat(std::string_view wat) {
  return compile(wasm::parse_wat(wat));
}

uint32_t reserved(const CompiledModule& compiled, std::string_view name) {
  const uint32_t index =
      compiled.module().find_export(name, wasm::ExternKind::Func).value();
  return compiled
      .lowered_func(index -
                    static_cast<uint32_t>(compiled.module().imports.size()))
      .max_height;
}

TEST(FrameReservation, DeepExpression) {
  CompiledModulePtr compiled = compile_wat(R"((module
    (func (export "deep") (result i32)
      i32.const 1 i32.const 2 i32.const 3 i32.const 4 i32.const 5
      i32.add i32.add i32.add i32.add)
    (func (export "flat") (result i32) i32.const 1)
    (func (export "empty"))))");
  EXPECT_EQ(reserved(*compiled, "deep"), 5u);
  EXPECT_EQ(reserved(*compiled, "flat"), 1u);
  EXPECT_EQ(reserved(*compiled, "empty"), 0u);
  Instance inst(compiled, {}, Instance::Options{.cache_model = false});
  EXPECT_EQ(inst.invoke("deep").at(0).i32(), 15);
  EXPECT_EQ(inst.invoke("flat").at(0).i32(), 1);
  EXPECT_TRUE(inst.invoke("empty").empty());
}

// A branch target's height is the branch's unwind + arity, not the height
// the branch left from: code reached only through a branch starts low.
TEST(FrameReservation, BlockAndIfResultsCarriedByBranches) {
  CompiledModulePtr compiled = compile_wat(R"((module
    (func (export "carry") (param i32) (result i32)
      (block $b (result i32)
        i32.const 1 i32.const 2 i32.const 3  ;; height 3
        local.get 0                          ;; height 4
        br_table $b $b)                      ;; carries 3 to height 1
      i32.const 10 i32.const 20 i32.const 30 ;; height 4 again, not 6
      i32.add i32.add i32.add)
    (func (export "pick") (param i32) (result i32)
      i32.const 5                            ;; height 1
      local.get 0
      (if (result i32)
        (then i32.const 1 i32.const 2 i32.add)  ;; height 3 at the peak
        (else i32.const 9 br 0))                ;; carries 9 to height 2
      i32.add)))");
  EXPECT_EQ(reserved(*compiled, "carry"), 4u);
  EXPECT_EQ(reserved(*compiled, "pick"), 3u);
  Instance inst(compiled, {}, Instance::Options{.cache_model = false});
  EXPECT_EQ(inst.invoke("carry", {TypedValue::make_i32(0)}).at(0).i32(), 63);
  EXPECT_EQ(inst.invoke("carry", {TypedValue::make_i32(5)}).at(0).i32(), 63);
  EXPECT_EQ(inst.invoke("pick", {TypedValue::make_i32(1)}).at(0).i32(), 8);
  EXPECT_EQ(inst.invoke("pick", {TypedValue::make_i32(0)}).at(0).i32(), 14);
}

// A call pops the callee's parameters and pushes its results in the
// caller's frame; the callee's own frame reserves only its own height.
TEST(FrameReservation, CallToCalleeWithParamsAndResult) {
  CompiledModulePtr compiled = compile_wat(R"((module
    (func $mix (export "mix") (param i32 i32 i32) (result i32)
      local.get 0 local.get 1 i32.mul local.get 2 i32.add)
    (func $seven (export "seven") (result i32) i32.const 7)
    (func (export "caller") (result i32)
      i32.const 100                          ;; height 1
      i32.const 3 i32.const 4 i32.const 5    ;; height 4
      call $mix                              ;; height 2
      i32.add)
    (func (export "more_results") (result i32)
      i32.const 1
      call $seven                            ;; height 2
      call $seven                            ;; height 3
      i32.add i32.add)))");
  EXPECT_EQ(reserved(*compiled, "mix"), 2u);
  EXPECT_EQ(reserved(*compiled, "seven"), 1u);
  EXPECT_EQ(reserved(*compiled, "caller"), 4u);
  EXPECT_EQ(reserved(*compiled, "more_results"), 3u);
  Instance inst(compiled, {}, Instance::Options{.cache_model = false});
  EXPECT_EQ(inst.invoke("caller").at(0).i32(), 117);
  EXPECT_EQ(inst.invoke("more_results").at(0).i32(), 15);
}

// ---------------------------------------------------------------------------
// Write-back points: the run loop keeps pc and stack pointer in locals and
// stores them only at calls, at the return that leaves the loop, and when a
// trap leaves it. Each case compares every backend against the oracle mode
// and then reuses the instance.
// ---------------------------------------------------------------------------

// Runs `steps` on one instance per backend and requires the stats after
// every step to equal the oracle's after the same step.
void expect_steps_match_oracle(
    const wasm::Module& module, const std::function<ImportMap()>& imports,
    const std::vector<std::function<void(Instance&)>>& steps) {
  std::vector<ExecStats> reference;
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    Instance inst(compile_for(module, b), imports(), backend_options(b));
    for (size_t i = 0; i < steps.size(); ++i) {
      steps[i](inst);
      EXPECT_TRUE(inst.stats().per_op_conserved());
      if (reference.size() < steps.size()) {
        reference.push_back(inst.stats());
      } else {
        expect_stats_equal(inst.stats(), reference[i],
                           ("step " + std::to_string(i)).c_str());
      }
    }
  }
}

TEST(Writeback, TrapThreeFramesDeepUnwindsEveryCallerFrame) {
  // run → top → mid → div; every caller holds live operands across its
  // call, and div traps when its divisor is 0.
  wasm::Module module = wasm::parse_wat(R"((module
    (func $div (param i32 i32) (result i32)
      i32.const 1000
      local.get 0 local.get 1 i32.div_s
      i32.add)
    (func $mid (param i32) (result i32)
      i32.const 100 i32.const 200
      i32.const 7 local.get 0 call $div
      i32.add i32.add)
    (func $top (param i32) (result i32)
      i32.const 10 i32.const 20 i32.const 30
      local.get 0 call $mid
      i32.add i32.add i32.add)
    (func (export "run") (param i32) (result i32)
      i32.const 1 i32.const 2
      local.get 0 call $top
      i32.add i32.add)))");
  wasm::validate(module);
  auto trap = [](Instance& inst) {
    EXPECT_THROW(inst.invoke("run", {TypedValue::make_i32(0)}), TrapError);
  };
  auto ok = [](Instance& inst) {
    EXPECT_EQ(inst.invoke("run", {TypedValue::make_i32(7)}).at(0).i32(),
              1364);
  };
  expect_steps_match_oracle(
      module, [] { return ImportMap{}; }, {trap, ok, trap, ok});
}

TEST(Writeback, HostTrapInsideABlockWithLiveOperands) {
  wasm::Module module = wasm::parse_wat(R"((module
    (import "env" "check" (func $check (param i32) (result i32)))
    (func $inner (param i32) (result i32)
      (block (result i32)
        i32.const 3 i32.const 4
        local.get 0 call $check
        i32.add i32.add))
    (func (export "run") (param i32) (result i32)
      i32.const 50
      local.get 0 call $inner
      i32.add)))");
  wasm::validate(module);
  auto imports = [] {
    ImportMap map;
    map.add("env", "check",
            wasm::FuncType{{wasm::ValType::I32}, {wasm::ValType::I32}},
            [](std::span<const TypedValue> args, HostContext&) -> Values {
              if (args[0].i32() == 0) throw TrapError("host refused");
              return {TypedValue::make_i32(args[0].i32() * 2)};
            });
    return map;
  };
  auto trap = [](Instance& inst) {
    EXPECT_THROW(inst.invoke("run", {TypedValue::make_i32(0)}), TrapError);
  };
  auto ok = [](Instance& inst) {
    EXPECT_EQ(inst.invoke("run", {TypedValue::make_i32(5)}).at(0).i32(), 67);
  };
  expect_steps_match_oracle(module, imports, {trap, ok, trap, ok});
}

// 1500 frames of three locals plus operands take ~9000 slots: from a fresh
// instance's empty buffer that is a dozen geometric growths, each of which
// moves every frame below. reset() keeps the grown buffer; the repeated call
// must bill exactly what the first one did.
TEST(Writeback, DeepRecursionGrowsTheBufferThenResetRepeatsIt) {
  wasm::Module module = wasm::parse_wat(R"((module
    (func $sum (param i32) (result i64)
      (local i64 i64)
      local.get 0
      i32.eqz
      if (result i64)
        i64.const 0
      else
        local.get 0 i64.extend_i32_u
        local.get 0 i32.const 1 i32.sub call $sum
        i64.add
      end)
    (func (export "run") (param i32) (result i64)
      local.get 0 call $sum)))");
  wasm::validate(module);
  const Values args = {TypedValue::make_i32(1500)};
  ExecStats oracle_stats;
  bool have_oracle = false;
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    Instance inst(compile_for(module, b), {}, backend_options(b));
    EXPECT_EQ(inst.invoke("run", args).at(0).i64(), 1500 * 1501 / 2);
    const ExecStats first = inst.stats();
    inst.reset();
    EXPECT_EQ(inst.invoke("run", args).at(0).i64(), 1500 * 1501 / 2);
    expect_stats_equal(inst.stats(), first, "after reset");
    if (!have_oracle) {
      oracle_stats = first;
      have_oracle = true;
    } else {
      expect_stats_equal(first, oracle_stats, "fresh");
    }
  }
}

}  // namespace
}  // namespace acctee::interp
