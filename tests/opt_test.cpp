// The verified optimising middle-end (DESIGN.md §19).
//
// These tests pin the three contracts the pass pipeline ships under:
//  * acceptance — every pass output re-proves the §14 counter-equivalence
//    property, and the lowered form binds to the optimised flat form;
//  * determinism — same inputs, same bytes, across independent pipeline
//    runs, re-application to already-optimised code, and independent IE
//    instances (the evidence v4 trail is reproducible bit-for-bit), with
//    the canonical digests pinned for one workload;
//  * reuse — a pass that changes nothing inherits its input's proof, and
//    the resulting trail equals one proved from scratch;
//  * observational identity — ExecStats, checkpoint firings, the counter
//    global and every signed ledger byte are bit-identical between
//    opt_level=0 and opt_level=max, in batched execution and in the oracle
//    mode.
// Plus the fail-closed side: the AE rejects level mismatches and tampered
// pass trails, and the hostile opt-mutation corpus has zero false accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/mutate.hpp"
#include "analysis/opt/internal.hpp"
#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "instrument/passes.hpp"
#include "sgx/platform.hpp"
#include "wasm/binary.hpp"
#include "wasm/wat_parser.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/microbench.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

namespace acctee {
namespace {

using interp::ExecStats;
using interp::Instance;
using V = interp::TypedValue;

struct Workload {
  const char* name;
  wasm::Module module;
  interp::Values args;
};

// Loop-heavy kernels (fold regions), a recursive/branchy use case (dead
// blocks + folds), and the call-dominated leaf-call bench (coalesce).
std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"gemm", workloads::build_polybench("gemm", 8), {}});
  out.push_back({"atax", workloads::build_polybench("atax", 12), {}});
  out.push_back(
      {"subsetsum", workloads::usecase_subsetsum(), {V::make_i32(2)}});
  out.push_back(
      {"leaf_call", workloads::leaf_call_bench(), {V::make_i32(2)}});
  return out;
}

std::vector<instrument::PassKind> pass_kinds() {
  return {instrument::PassKind::Naive, instrument::PassKind::FlowBased,
          instrument::PassKind::LoopBased};
}

struct Prepared {
  instrument::InstrumentResult instrumented;
  interp::CompiledModulePtr baseline;
};

Prepared prepare(const wasm::Module& module, instrument::PassKind kind) {
  Prepared p;
  p.instrumented =
      instrument::instrument(module, {kind, instrument::WeightTable::unit()});
  p.baseline = interp::compile(p.instrumented.module);
  return p;
}

// Every built workload at every pass kind and every opt level: the pipeline
// must accept its own output (throwing is a pass bug — fail closed), the
// full optimised-module proof must hold, and the lowered bytecode must bind
// to the optimised flat form (verify-then-bind, §15).
TEST(OptPipeline, AcceptsWorkloadsAtEveryLevel) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  for (Workload& w : workloads()) {
    for (instrument::PassKind kind : pass_kinds()) {
      Prepared p = prepare(w.module, kind);
      for (uint32_t level = 0; level <= analysis::opt::kMaxOptLevel;
           ++level) {
        SCOPED_TRACE(std::string(w.name) + " kind=" +
                     std::to_string(static_cast<int>(kind)) +
                     " L" + std::to_string(level));
        analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
            p.baseline->module(), p.baseline->flat(),
            p.instrumented.counter_global, level, weights, host_charge);
        analysis::opt::OptVerifyResult proof =
            analysis::opt::verify_optimised_module(
                p.baseline->module(), pr.flat, p.instrumented.counter_global,
                weights, host_charge);
        EXPECT_TRUE(proof.ok) << proof.error;
        interp::CompiledModulePtr optimised = analysis::opt::optimise_compiled(
            p.baseline, p.instrumented.counter_global, level, weights,
            host_charge);
        EXPECT_EQ(analysis::check_lowering(*optimised), std::nullopt);
        if (level == 0) {
          EXPECT_TRUE(pr.trail.passes.empty());
          EXPECT_TRUE(
              analysis::opt::flat_equal(pr.flat, p.baseline->flat()));
        }
      }
    }
  }
}

// The passes do transform: at max level the hot-path increment count drops
// on the loop-heavy kernels (folds) and on the call-dominated bench under
// flow-based instrumentation (coalescing), and regions exist.
TEST(OptPipeline, PassesActuallyFireOnTheCorpus) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  struct Case {
    const char* name;
    wasm::Module module;
    instrument::PassKind kind;
    // Folds move loop-body increments into regions, so the hot count drops.
    // Coalescing fuses the *call site's* charge; the callee function body —
    // and its window — survives for out-of-region callers, so the count
    // holds steady while a region still appears.
    bool expect_fewer_increments;
  };
  std::vector<Case> cases;
  cases.push_back({"gemm", workloads::build_polybench("gemm", 8),
                   instrument::PassKind::Naive, true});
  cases.push_back({"leaf_call", workloads::leaf_call_bench(),
                   instrument::PassKind::FlowBased, false});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Prepared p = prepare(c.module, c.kind);
    analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
        p.baseline->module(), p.baseline->flat(), p.instrumented.counter_global,
        analysis::opt::kMaxOptLevel, weights, host_charge);
    uint32_t regions = 0;
    for (const analysis::opt::PassReport& report : pr.trail.passes) {
      regions += report.regions_added;
    }
    EXPECT_GT(regions, 0u);
    if (c.expect_fewer_increments) {
      EXPECT_LT(
          analysis::opt::count_hot_increments(pr.flat,
                                              p.instrumented.counter_global),
          analysis::opt::count_hot_increments(p.baseline->flat(),
                                              p.instrumented.counter_global));
    }
  }
}

// Determinism: two independent pipeline runs over the same baseline produce
// byte-identical flat code, identical per-pass trails, and identical
// digests. Idempotence: re-running the pipeline over its own output changes
// nothing — every pass skips code already inside a region.
TEST(OptPipeline, DeterministicAndIdempotent) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  for (Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    Prepared p = prepare(w.module, instrument::PassKind::FlowBased);
    auto run = [&](const std::vector<interp::FlatFunc>& base) {
      return analysis::opt::run_pipeline(
          p.baseline->module(), base, p.instrumented.counter_global,
          analysis::opt::kMaxOptLevel, weights, host_charge);
    };
    analysis::opt::PipelineResult first = run(p.baseline->flat());
    analysis::opt::PipelineResult second = run(p.baseline->flat());
    EXPECT_TRUE(analysis::opt::flat_equal(first.flat, second.flat));
    EXPECT_EQ(analysis::opt::flat_digest(first.flat),
              analysis::opt::flat_digest(second.flat));
    ASSERT_EQ(first.trail.passes.size(), second.trail.passes.size());
    for (size_t i = 0; i < first.trail.passes.size(); ++i) {
      EXPECT_EQ(first.trail.passes[i].flat_digest,
                second.trail.passes[i].flat_digest);
      EXPECT_EQ(first.trail.passes[i].cost_vector_digest,
                second.trail.passes[i].cost_vector_digest);
    }
    analysis::opt::PipelineResult again = run(first.flat);
    std::string trail;
    for (const analysis::opt::PassReport& r : again.trail.passes) {
      trail += r.name + " regions=" + std::to_string(r.regions_added) +
               " elided=" + std::to_string(r.ops_elided) + "; ";
    }
    EXPECT_TRUE(analysis::opt::flat_equal(again.flat, first.flat)) << trail;
  }
}

// Every bundled workload, as `acctee verify-instr --builtin` sweeps them.
std::vector<std::pair<std::string, wasm::Module>> builtin_modules() {
  std::vector<std::pair<std::string, wasm::Module>> out;
  for (const workloads::KernelFactory& kernel : workloads::polybench()) {
    out.emplace_back(kernel.name, kernel.build(6));
  }
  for (const workloads::UseCase& usecase : workloads::usecases()) {
    out.emplace_back(usecase.name, usecase.build());
  }
  out.emplace_back("faas_echo", workloads::faas_echo());
  out.emplace_back("faas_resize", workloads::faas_resize());
  out.emplace_back("leaf_call", workloads::leaf_call_bench());
  return out;
}

uint32_t total_blocks(const std::vector<interp::FlatFunc>& flat) {
  uint32_t blocks = 0;
  for (const interp::FlatFunc& ff : flat) {
    blocks += static_cast<uint32_t>(ff.blocks.size());
  }
  return blocks;
}

// count_hot_increments' reference: every pc tested against every region's
// slow copy.
uint32_t hot_increments_by_scan(const std::vector<interp::FlatFunc>& flat,
                                uint32_t counter_global) {
  uint32_t count = 0;
  for (const interp::FlatFunc& ff : flat) {
    auto in_slow = [&](uint32_t pc) {
      return std::any_of(ff.regions.begin(), ff.regions.end(),
                         [&](const interp::OptRegion& r) {
                           return pc >= r.slow_begin && pc < r.slow_end;
                         });
    };
    for (uint32_t pc = 0; pc < ff.code.size(); ++pc) {
      if (in_slow(pc)) continue;
      if (analysis::opt::detail::increment_amount_at(ff.code, pc,
                                                     counter_global)) {
        ++count;
        pc += 3;
      }
    }
  }
  return count;
}

// The trail run_pipeline would give if it proved every pass output from
// scratch: each detail::pass_* in order, every output re-proved, digested
// and counted on its own.
std::vector<analysis::opt::PassReport> fresh_trail(
    const wasm::Module& module, std::vector<interp::FlatFunc> flat,
    uint32_t counter_global, uint32_t level,
    const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  namespace detail = analysis::opt::detail;
  std::vector<analysis::opt::PassReport> trail;
  for (const char* name : {"dead-blocks", "coalesce-calls", "fold-loops"}) {
    const std::string pass = name;
    if (level < (pass == "fold-loops" ? 2u : 1u)) continue;
    analysis::opt::PassReport r;
    r.name = pass;
    r.blocks_before = total_blocks(flat);
    r.increments_before =
        analysis::opt::count_hot_increments(flat, counter_global);
    std::vector<interp::FlatFunc> next =
        pass == "dead-blocks"
            ? detail::pass_dead_blocks(module, flat, &r.ops_elided)
        : pass == "coalesce-calls"
            ? detail::pass_coalesce_calls(module, flat, counter_global,
                                          weights, host_charge,
                                          &r.regions_added)
            : detail::pass_fold_loops(module, flat, counter_global,
                                      level >= 3, &r.regions_added);
    analysis::opt::OptVerifyResult proof =
        analysis::opt::verify_optimised_module(module, next, counter_global,
                                               weights, host_charge);
    EXPECT_TRUE(proof.ok) << pass << ": " << proof.error;
    r.cost_vector_digest = proof.cost_vector_digest;
    r.flat_digest = analysis::opt::flat_digest(next);
    r.blocks_after = total_blocks(next);
    r.increments_after =
        analysis::opt::count_hot_increments(next, counter_global);
    EXPECT_EQ(r.increments_after, hot_increments_by_scan(next, counter_global))
        << pass;
    trail.push_back(std::move(r));
    flat = std::move(next);
  }
  return trail;
}

// An inherited proof is the one a fresh proof would give: over every
// bundled workload, instrumentation pass and opt level, the pipeline's
// trail equals the trail rebuilt by proving every pass output from scratch
// (proof times aside), with and without the caller's baseline verdict.
TEST(OptPipeline, InheritedProofsEqualFreshOnes) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  size_t inherited = 0;
  for (const auto& [name, module] : builtin_modules()) {
    for (instrument::PassKind kind : pass_kinds()) {
      Prepared p = prepare(module, kind);
      const wasm::Module& m = p.baseline->module();
      const uint32_t counter = p.instrumented.counter_global;
      const analysis::opt::OptVerifyResult baseline_proof =
          analysis::opt::verify_optimised_module(m, p.baseline->flat(),
                                                 counter, weights,
                                                 host_charge);
      ASSERT_TRUE(baseline_proof.ok) << name << ": " << baseline_proof.error;
      for (uint32_t level = 1; level <= analysis::opt::kMaxOptLevel;
           ++level) {
        SCOPED_TRACE(name + " kind=" +
                     std::to_string(static_cast<int>(kind)) + " L" +
                     std::to_string(level));
        const std::vector<analysis::opt::PassReport> want =
            fresh_trail(m, p.baseline->flat(), counter, level, weights,
                        host_charge);
        for (const analysis::opt::OptVerifyResult* seed :
             {static_cast<const analysis::opt::OptVerifyResult*>(nullptr),
              &baseline_proof}) {
          analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
              m, p.baseline->flat(), counter, level, weights, host_charge,
              seed);
          ASSERT_EQ(pr.trail.passes.size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            const analysis::opt::PassReport& got = pr.trail.passes[i];
            EXPECT_EQ(got.name, want[i].name);
            EXPECT_EQ(got.cost_vector_digest, want[i].cost_vector_digest)
                << got.name;
            EXPECT_EQ(got.flat_digest, want[i].flat_digest) << got.name;
            EXPECT_EQ(got.blocks_before, want[i].blocks_before) << got.name;
            EXPECT_EQ(got.blocks_after, want[i].blocks_after) << got.name;
            EXPECT_EQ(got.increments_before, want[i].increments_before)
                << got.name;
            EXPECT_EQ(got.increments_after, want[i].increments_after)
                << got.name;
            EXPECT_EQ(got.regions_added, want[i].regions_added) << got.name;
            EXPECT_EQ(got.ops_elided, want[i].ops_elided) << got.name;
            if (got.proof_inherited) {
              EXPECT_EQ(got.proof_micros, 0u) << got.name;
              ++inherited;
            }
          }
          // A seeded baseline is never proved again.
          if (seed != nullptr) {
            EXPECT_EQ(pr.baseline_proof_micros, 0u);
          }
        }
      }
    }
  }
  EXPECT_GT(inherited, 0u);
}

// On gemm the loop fold changes the code and gets its own proof; the dead-
// block and coalesce passes leave it unchanged and inherit.
TEST(OptPipeline, GemmFoldIsProvedAndUnchangedPassesInherit) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  Prepared p = prepare(workloads::build_polybench("gemm", 8),
                       instrument::PassKind::LoopBased);
  analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
      p.baseline->module(), p.baseline->flat(), p.instrumented.counter_global,
      analysis::opt::kMaxOptLevel, weights, {});
  ASSERT_EQ(pr.trail.passes.size(), 3u);
  EXPECT_EQ(pr.trail.passes[0].name, "dead-blocks");
  EXPECT_TRUE(pr.trail.passes[0].proof_inherited);
  EXPECT_EQ(pr.trail.passes[1].name, "coalesce-calls");
  EXPECT_TRUE(pr.trail.passes[1].proof_inherited);
  EXPECT_EQ(pr.trail.passes[2].name, "fold-loops");
  EXPECT_FALSE(pr.trail.passes[2].proof_inherited);
  EXPECT_GT(pr.trail.passes[2].regions_added, 0u);
}

// run_pipeline takes a baseline verdict only if it is an accepting proof
// of a module with the baseline's function count.
TEST(OptPipeline, RefusesForeignOrFailedBaselineVerdict) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  Prepared gemm = prepare(workloads::build_polybench("gemm", 8),
                          instrument::PassKind::LoopBased);
  Prepared leaf = prepare(workloads::leaf_call_bench(),
                          instrument::PassKind::FlowBased);
  const uint32_t counter = gemm.instrumented.counter_global;
  auto run = [&](const analysis::opt::OptVerifyResult& verdict) {
    return analysis::opt::run_pipeline(
        gemm.baseline->module(), gemm.baseline->flat(), counter,
        analysis::opt::kMaxOptLevel, weights, {}, &verdict);
  };

  const analysis::opt::OptVerifyResult own =
      analysis::opt::verify_optimised_module(
          gemm.baseline->module(), gemm.baseline->flat(), counter, weights,
          {});
  ASSERT_TRUE(own.ok) << own.error;
  EXPECT_NO_THROW(run(own));

  const analysis::opt::OptVerifyResult foreign =
      analysis::opt::verify_optimised_module(
          leaf.baseline->module(), leaf.baseline->flat(),
          leaf.instrumented.counter_global, weights, {});
  ASSERT_TRUE(foreign.ok) << foreign.error;
  ASSERT_NE(foreign.cost_vector.size(), own.cost_vector.size());
  EXPECT_THROW(run(foreign), Error);

  // A real rejection: the proof run against the wrong counter global.
  const analysis::opt::OptVerifyResult failed =
      analysis::opt::verify_optimised_module(
          gemm.baseline->module(), gemm.baseline->flat(), counter + 1,
          weights, {});
  ASSERT_FALSE(failed.ok);
  EXPECT_THROW(run(failed), Error);
}

// The digests the middle-end and the lowering serialize, pinned for one
// workload (gemm n=8, loop-based, unit weights). Any change to a canonical
// serialization (field order, width, byte order, domain) moves one of them,
// and with it every IE signature and AE comparison.
TEST(OptDigests, PinnedForGemmLoopBased) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const wasm::Module original = workloads::build_polybench("gemm", 8);
  Prepared p = prepare(original, instrument::PassKind::LoopBased);
  const uint32_t counter = p.instrumented.counter_global;
  auto hex = [](const crypto::Digest& d) { return crypto::digest_hex(d); };
  const std::string baseline_flat =
      "57db93aef0d8b73f916796a149eaa425d56afdddd1f091406abdce76c2a95a84";
  const std::string l3_flat =
      "2f816862ae276b9798cc106c32ab05e3a91ccc2a0e3f91503d8f7adb04d9612f";
  const std::string cost =
      "236a876e45c3a10dd457220bc64ab2a92c70e04b46491b7645f63db8b85f38fa";

  EXPECT_EQ(hex(analysis::opt::flat_digest(p.baseline->flat())),
            baseline_flat);
  EXPECT_EQ(hex(analysis::cost_vector_digest(
                analysis::naive_cost_vector(original, weights))),
            cost);
  // acctee.lowering.v1: no regions.
  EXPECT_EQ(hex(p.baseline->lowering_digest()),
            "c254e6a764a9e4261b758e2d9a88b36b7d77abc7f53903590cdbf5af583b5bb6");

  analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
      p.baseline->module(), p.baseline->flat(), counter,
      analysis::opt::kMaxOptLevel, weights, {});
  EXPECT_EQ(hex(analysis::opt::flat_digest(pr.flat)), l3_flat);
  const std::vector<std::string> trail_flat = {baseline_flat, baseline_flat,
                                               l3_flat};
  ASSERT_EQ(pr.trail.passes.size(), trail_flat.size());
  for (size_t i = 0; i < trail_flat.size(); ++i) {
    EXPECT_EQ(hex(pr.trail.passes[i].flat_digest), trail_flat[i]);
    EXPECT_EQ(hex(pr.trail.passes[i].cost_vector_digest), cost);
  }
  // acctee.lowering.v2: the fold regions are serialized too.
  interp::CompiledModulePtr optimised = analysis::opt::optimise_compiled(
      p.baseline, counter, analysis::opt::kMaxOptLevel, weights, {});
  EXPECT_EQ(hex(optimised->lowering_digest()),
            "afeb91245f2d9945283c58aebd8a4541162b97293787fabc79a70a44303e5de9");

  instrument::InstrumentOptions opts;
  opts.pass = instrument::PassKind::LoopBased;
  opts.weights = weights;
  opts.opt_level = analysis::opt::kMaxOptLevel;
  sgx::Platform host{"ie-host", to_bytes("ie-seed")};
  core::InstrumentationEnclave ie(host, opts);
  core::InstrumentationEnclave::Output out =
      ie.instrument_binary(wasm::encode(original));
  EXPECT_EQ(hex(crypto::sha256(out.evidence.signed_payload())),
            "1b9c7b3f8e2fba999e728ddcf822a585e0469fae8b5aac0c3b044a423e110758");
}

// Evidence determinism across process-independent IE instances: two IEs
// (distinct platforms, distinct signing keys) produce byte-identical signed
// payloads — including the v4 opt trail — for the same binary and options.
TEST(OptPipeline, EvidencePayloadDeterministicAcrossEnclaves) {
  instrument::InstrumentOptions opts;
  opts.pass = instrument::PassKind::FlowBased;
  opts.opt_level = analysis::opt::kMaxOptLevel;
  Bytes binary = wasm::encode(workloads::build_polybench("gemm", 8));

  sgx::Platform host_a{"ie-a", to_bytes("ie-seed-a")};
  sgx::Platform host_b{"ie-b", to_bytes("ie-seed-b")};
  core::InstrumentationEnclave ie_a(host_a, opts);
  core::InstrumentationEnclave ie_b(host_b, opts);
  core::InstrumentationEnclave::Output out_a = ie_a.instrument_binary(binary);
  core::InstrumentationEnclave::Output out_b = ie_b.instrument_binary(binary);

  EXPECT_EQ(out_a.instrumented_binary, out_b.instrumented_binary);
  EXPECT_EQ(out_a.evidence.signed_payload(), out_b.evidence.signed_payload());
  EXPECT_EQ(out_a.evidence.opt_level, analysis::opt::kMaxOptLevel);
  EXPECT_FALSE(out_a.evidence.opt_passes.empty());
}

Instance::Options interp_options(bool per_instruction) {
  Instance::Options opts;
  opts.cache_model = false;
  opts.per_instruction_accounting = per_instruction;
  return opts;
}

void expect_stats_equal(const ExecStats& got, const ExecStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.instructions, want.instructions) << label;
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.mem_loads, want.mem_loads) << label;
  EXPECT_EQ(got.mem_stores, want.mem_stores) << label;
  EXPECT_EQ(got.host_calls, want.host_calls) << label;
  EXPECT_EQ(got.peak_memory_bytes, want.peak_memory_bytes) << label;
}

struct Observed {
  ExecStats stats;
  uint64_t counter = 0;
  std::vector<std::pair<uint64_t, uint64_t>> snapshots;  // (instrs, counter)
};

Observed observe(const interp::CompiledModulePtr& compiled,
                 uint32_t counter_global, const Workload& w,
                 const Instance::Options& opts) {
  Instance inst(compiled, {}, opts);
  Observed obs;
  // A deliberately odd interval so checkpoints land mid-loop and mid-region:
  // every firing forces the serial fallback, so a region that wholesale-
  // charged across a checkpoint would shift a snapshot.
  inst.set_checkpoint(997, [&](Instance& at) {
    obs.snapshots.emplace_back(at.stats().instructions,
                               at.read_global_index(counter_global).bits);
  });
  inst.invoke("run", w.args);
  obs.stats = inst.stats();
  obs.counter = inst.read_global_index(counter_global).bits;
  return obs;
}

// The acceptance bar: ExecStats, the weighted counter, and every checkpoint
// snapshot are bit-identical between opt_level=0 and opt_level=max, for
// every workload, in batched execution and in the oracle mode (serial
// accounting over unfused lowering).
TEST(OptAccounting, BitIdenticalAcrossOptLevels) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  struct Combo {
    const char* name;
    bool fuse;
    bool per_instruction;
  };
  const std::vector<Combo> combos = {
      {"serial", false, true},
      {"batched", true, false},
  };
  for (Workload& w : workloads()) {
    for (instrument::PassKind kind : pass_kinds()) {
      Prepared p = prepare(w.module, kind);
      for (const Combo& combo : combos) {
        const std::string label = std::string(w.name) + "/" + combo.name +
                                  "/kind" +
                                  std::to_string(static_cast<int>(kind));
        interp::CompiledModule::CompileOptions copts;
        copts.lower.fuse = combo.fuse;
        interp::CompiledModulePtr baseline =
            interp::compile(p.instrumented.module, copts);
        interp::CompiledModulePtr optimised =
            analysis::opt::optimise_compiled(
                baseline, p.instrumented.counter_global,
                analysis::opt::kMaxOptLevel, weights, host_charge);
        Instance::Options opts = interp_options(combo.per_instruction);
        Observed base =
            observe(baseline, p.instrumented.counter_global, w, opts);
        Observed opt =
            observe(optimised, p.instrumented.counter_global, w, opts);
        expect_stats_equal(opt.stats, base.stats, label);
        EXPECT_EQ(opt.counter, base.counter) << label;
        EXPECT_EQ(opt.snapshots, base.snapshots) << label;
        EXPECT_FALSE(base.snapshots.empty()) << label;
      }
    }
  }
}

// Same bar at the trust boundary: the instruction-limit trap fires at the
// same point (same stats, same counter) with and without the middle-end —
// a region must never wholesale-charge past the limit.
TEST(OptAccounting, InstructionLimitTrapsIdentically) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  Workload w{"gemm", workloads::build_polybench("gemm", 8), {}};
  Prepared p = prepare(w.module, instrument::PassKind::FlowBased);
  interp::CompiledModulePtr optimised = analysis::opt::optimise_compiled(
      p.baseline, p.instrumented.counter_global, analysis::opt::kMaxOptLevel,
      weights, host_charge);

  // Find the full cost, then cap below it so the trap lands mid-execution.
  Instance::Options opts = interp_options(false);
  Instance full(p.baseline, {}, opts);
  full.invoke("run", w.args);
  opts.max_instructions = full.stats().instructions / 2;

  auto run_capped = [&](const interp::CompiledModulePtr& compiled) {
    Instance inst(compiled, {}, opts);
    EXPECT_THROW(inst.invoke("run", w.args), TrapError);
    return std::make_pair(
        inst.stats().instructions,
        inst.read_global_index(p.instrumented.counter_global).bits);
  };
  EXPECT_EQ(run_capped(p.baseline), run_capped(optimised));
}

struct EnclaveRun {
  core::AccountingEnclave::Outcome outcome;
};

EnclaveRun run_enclaves(const Bytes& binary, const Workload& w,
                        uint32_t opt_level) {
  instrument::InstrumentOptions opts;
  opts.pass = instrument::PassKind::FlowBased;
  opts.opt_level = opt_level;
  sgx::Platform ie_host{"ie-host", to_bytes("ie-seed")};
  sgx::Platform cloud{"cloud", to_bytes("cloud-seed")};
  core::InstrumentationEnclave ie(ie_host, opts);
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = opts;
  config.checkpoint_interval = 5000;
  core::AccountingEnclave ae(cloud, config);
  core::InstrumentationEnclave::Output out = ie.instrument_binary(binary);
  return {ae.execute(out.instrumented_binary, out.evidence, "run", w.args)};
}

// End-to-end through the enclaves: the signed ledger — the final log, its
// signature, and every periodic interim log — is byte-identical whether the
// AE executed the baseline or the fully optimised form.
TEST(OptEnclave, SignedLedgerBitIdenticalAcrossOptLevels) {
  for (Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    Bytes binary = wasm::encode(w.module);
    EnclaveRun base = run_enclaves(binary, w, 0);
    EnclaveRun opt = run_enclaves(binary, w, analysis::opt::kMaxOptLevel);

    EXPECT_EQ(opt.outcome.signed_log.log.serialize(),
              base.outcome.signed_log.log.serialize());
    EXPECT_EQ(opt.outcome.signed_log.signature.serialize(),
              base.outcome.signed_log.signature.serialize());
    ASSERT_EQ(opt.outcome.results.size(), base.outcome.results.size());
    for (size_t i = 0; i < base.outcome.results.size(); ++i) {
      EXPECT_EQ(opt.outcome.results[i].bits, base.outcome.results[i].bits);
    }
    ASSERT_EQ(opt.outcome.interim_logs.size(),
              base.outcome.interim_logs.size());
    for (size_t i = 0; i < base.outcome.interim_logs.size(); ++i) {
      EXPECT_EQ(opt.outcome.interim_logs[i].log.serialize(),
                base.outcome.interim_logs[i].log.serialize());
    }
    expect_stats_equal(opt.outcome.stats, base.outcome.stats, w.name);
  }
}

// Fail-closed at the AE: evidence claiming a different opt level than the
// agreed policy is rejected before execution, as is a signed trail whose
// per-pass digests diverge from the AE's own re-derived pipeline.
TEST(OptEnclave, RejectsLevelMismatchAndTamperedTrail) {
  Bytes binary = wasm::encode(workloads::build_polybench("gemm", 8));
  instrument::InstrumentOptions l3;
  l3.pass = instrument::PassKind::FlowBased;
  l3.opt_level = analysis::opt::kMaxOptLevel;
  sgx::Platform ie_host{"ie-host", to_bytes("ie-seed")};
  core::InstrumentationEnclave ie(ie_host, l3);
  core::InstrumentationEnclave::Output out = ie.instrument_binary(binary);

  // Level mismatch: the AE agreed on level 0 but the evidence claims max.
  {
    sgx::Platform cloud{"cloud", to_bytes("cloud-seed")};
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = l3;
    config.instrumentation.opt_level = 0;
    core::AccountingEnclave ae(cloud, config);
    EXPECT_THROW(ae.prepare(out.instrumented_binary, out.evidence),
                 AttestationError);
  }
  // Tampered trail: flipping a bit in a pass claim invalidates the IE
  // signature over the v4 payload — the AE must refuse.
  {
    sgx::Platform cloud{"cloud", to_bytes("cloud-seed")};
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = l3;
    core::AccountingEnclave ae(cloud, config);
    core::InstrumentationEvidence tampered = out.evidence;
    ASSERT_FALSE(tampered.opt_passes.empty());
    tampered.opt_passes.front().cost_vector_digest[0] ^= 0x01;
    EXPECT_THROW(ae.prepare(out.instrumented_binary, tampered),
                 AttestationError);
    // The honest evidence still prepares under the same config.
    EXPECT_NO_THROW(ae.prepare(out.instrumented_binary, out.evidence));
  }
}

// The hostile-optimiser corpus: every structurally plausible mutation of a
// transformed module (undercharged regions, wrong trip counts, miscounted
// inlines, elided live blocks, divergent fast bodies, retargeted guards)
// must fail the acceptance gate. Zero false accepts.
TEST(OptMutation, ZeroFalseAcceptsOnTransformedWorkloads) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  size_t sites_total = 0;
  for (Workload& w : workloads()) {
    Prepared p = prepare(w.module, instrument::PassKind::FlowBased);
    analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
        p.baseline->module(), p.baseline->flat(), p.instrumented.counter_global,
        analysis::opt::kMaxOptLevel, weights, host_charge);
    analysis::opt::OptVerifyResult honest =
        analysis::opt::verify_optimised_module(
            p.baseline->module(), pr.flat, p.instrumented.counter_global,
            weights, host_charge);
    ASSERT_TRUE(honest.ok) << w.name << ": " << honest.error;
    std::vector<analysis::OptMutationSite> sites =
        analysis::enumerate_opt_mutations(pr.flat);
    sites_total += sites.size();
    for (size_t i = 0; i < sites.size(); ++i) {
      std::vector<interp::FlatFunc> mutated =
          analysis::apply_opt_mutation(pr.flat, i);
      EXPECT_FALSE(analysis::opt::check_optimised_flat(
          p.baseline->module(), mutated, p.instrumented.counter_global,
          weights, host_charge, honest.cost_vector_digest))
          << w.name << " accepted mutant: " << sites[i].description;
    }
  }
  // The corpus is only meaningful if mutants actually exist on this corpus.
  EXPECT_GT(sites_total, 0u);
}

// A hostile flat form whose region's slow copy starts at pc 0 (the marker
// retargeted with it) is rejected as reachable by fall-through; the check
// must not read the op before pc 0.
TEST(OptMutation, RejectsSlowCopyAtPcZero) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  Prepared p = prepare(workloads::build_polybench("gemm", 8),
                       instrument::PassKind::LoopBased);
  analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
      p.baseline->module(), p.baseline->flat(), p.instrumented.counter_global,
      analysis::opt::kMaxOptLevel, weights, {});
  auto with_region = std::find_if(
      pr.flat.begin(), pr.flat.end(),
      [](const interp::FlatFunc& ff) { return !ff.regions.empty(); });
  ASSERT_NE(with_region, pr.flat.end());
  interp::OptRegion& region = with_region->regions[0];
  with_region->code[region.enter_pc].target_pc = 0;
  region.slow_begin = 0;

  analysis::opt::OptVerifyResult verdict =
      analysis::opt::verify_optimised_module(
          p.baseline->module(), pr.flat, p.instrumented.counter_global,
          weights, {});
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("slow copy reachable by fall-through"),
            std::string::npos)
      << verdict.error;
}

// The frame reservation is computed over the flat code actually lowered. A
// coalesce region inlines the leaf's operands into the caller's frame, so a
// call made at the caller's maximum height raises that maximum by what the
// leaf body pushes above its argument; the baseline's reservation would be
// short.
TEST(FrameReservation, CoalescedLeafCallRaisesTheCallersMaximum) {
  wasm::Module module = wasm::parse_wat(R"((module
    (func $leaf (param i32) (result i32)
      local.get 0 i32.const 1 i32.const 2 i32.const 3
      i32.add i32.add i32.add)
    (func (export "run") (param i32) (result i32)
      i32.const 10 i32.const 20
      local.get 0 call $leaf
      i32.add i32.add)))");
  Prepared p = prepare(module, instrument::PassKind::FlowBased);
  interp::CompiledModulePtr optimised = analysis::opt::optimise_compiled(
      p.baseline, p.instrumented.counter_global, analysis::opt::kMaxOptLevel,
      instrument::WeightTable::unit(), instrument::HostChargePolicy{});
  ASSERT_TRUE(optimised->optimised());
  const uint32_t run =
      p.baseline->module().find_export("run", wasm::ExternKind::Func).value() -
      static_cast<uint32_t>(p.baseline->module().imports.size());
  ASSERT_FALSE(optimised->flat_func(run).regions.empty());
  EXPECT_EQ(optimised->flat_func(run).regions[0].kind,
            interp::OptRegionKind::CoalesceCall);
  // Baseline: 10, 20 and the argument. Optimised: the argument is spilled
  // into an appended local, then the leaf body peaks four slots above that.
  EXPECT_EQ(p.baseline->lowered_func(run).max_height, 3u);
  EXPECT_EQ(p.baseline->lowered_func(0).max_height, 4u);
  EXPECT_EQ(optimised->lowered_func(run).max_height, 3u - 1u + 4u);
  EXPECT_EQ(analysis::check_lowering(*optimised), std::nullopt);

  Instance base(p.baseline, {}, interp_options(false));
  Instance opt(optimised, {}, interp_options(false));
  EXPECT_EQ(opt.invoke("run", {V::make_i32(4)}).at(0).i32(), 40);
  EXPECT_EQ(base.invoke("run", {V::make_i32(4)}).at(0).i32(), 40);
  expect_stats_equal(opt.stats(), base.stats(), "coalesced leaf");
}

}  // namespace
}  // namespace acctee
