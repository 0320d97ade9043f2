// Tests for the static counter-equivalence verifier (DESIGN.md §14).
//
// Positive property: for every bundled workload and every pass level, the
// verifier accepts the IE's output with no knowledge of how it was
// produced, and the cost vector it recovers from the *instrumented* module
// equals the naive cost vector of the *original* — the claim the evidence
// digest binds. Negative property: zero false accepts across the full
// deterministic mutation corpus, each rejection carrying a concrete
// counterexample. Plus: the accounting enclave refuses to prepare a module
// that fails verification, a decoy counter global, or a forged cost-vector
// digest.
#include <gtest/gtest.h>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/mutate.hpp"
#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "core/accounting_enclave.hpp"
#include "instrument/passes.hpp"
#include "interp/instance.hpp"
#include "sgx/platform.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"
#include "wasm/wat_printer.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

namespace acctee::analysis {
namespace {

using instrument::InstrumentOptions;
using instrument::InstrumentResult;
using instrument::PassKind;
using instrument::WeightTable;
using interp::Instance;

constexpr PassKind kAllPasses[] = {PassKind::Naive, PassKind::FlowBased,
                                   PassKind::LoopBased};

wasm::Module parse(const char* wat) {
  wasm::Module m = wasm::parse_wat(wat);
  wasm::validate(m);
  return m;
}

InstrumentResult instrument_module(const wasm::Module& original, PassKind pass,
                                   const WeightTable& weights) {
  return instrument::instrument(original, InstrumentOptions{pass, weights});
}

// Control-flow shapes mirroring the instrumentation exactness suite.
const char* const kIfElseWat = R"((module (func (export "f") (param i32) (result i32)
  local.get 0
  if (result i32)
    i32.const 1
    i32.const 2
    i32.add
  else
    i32.const 9
  end
)))";

const char* const kCountedLoopWat = R"((module (func (export "f") (param i32) (result i32)
  (local $acc i32)
  loop $l
    local.get $acc
    local.get 0
    i32.add
    local.set $acc
    local.get 0
    i32.const 1
    i32.sub
    local.tee 0
    br_if $l
  end
  local.get $acc
)))";

const char* const kConstTripWat = R"((module (func (export "f") (result i32)
  (local $i i32) (local $acc i32)
  i32.const 0
  local.set $i
  loop $l
    local.get $acc
    local.get $i
    i32.add
    local.set $acc
    local.get $i
    i32.const 1
    i32.add
    local.tee $i
    i32.const 10
    i32.lt_s
    br_if $l
  end
  local.get $acc
)))";

const char* const kNestedLoopsWat = R"((module (func (export "f") (param i32) (result i32)
  (local $i i32) (local $j i32) (local $acc i32)
  loop $outer
    i32.const 0
    local.set $j
    loop $inner
      local.get $acc
      i32.const 1
      i32.add
      local.set $acc
      local.get $j
      i32.const 1
      i32.add
      local.tee $j
      i32.const 4
      i32.lt_s
      br_if $inner
    end
    local.get $i
    i32.const 1
    i32.add
    local.tee $i
    local.get 0
    i32.lt_s
    br_if $outer
  end
  local.get $acc
)))";

const char* const kEarlyExitLoopWat = R"((module (func (export "f") (param i32) (result i32)
  (local $i i32)
  block $done (result i32)
    loop $l
      local.get $i
      i32.const 1
      i32.add
      local.tee $i
      local.get 0
      i32.eq
      if
        local.get $i
        br $done
      end
      br $l
    end
    unreachable
  end
)))";

const char* const kBrTableWat = R"((module (func (export "f") (param i32) (result i32)
  block $d
    block $b2
      block $b1
        block $b0
          local.get 0
          br_table $b0 $b1 $b2 $d
        end
        i32.const 10
        return
      end
      i32.const 11
      return
    end
    i32.const 12
    return
  end
  i32.const 13
)))";

const char* const kAllShapes[] = {kIfElseWat,     kCountedLoopWat,
                                  kConstTripWat,  kNestedLoopsWat,
                                  kEarlyExitLoopWat, kBrTableWat};

// ---------------------------------------------------------------------------
// CFG + dominators units
// ---------------------------------------------------------------------------

TEST(Cfg, ReconstructsIfElseDiamond) {
  wasm::Module m = parse(kIfElseWat);
  interp::FlatFunc flat = interp::flatten(m, m.functions[0]);
  Cfg cfg = build_cfg(flat);

  // local.get+if | then+jump | else | return
  ASSERT_EQ(cfg.blocks.size(), 4u);
  EXPECT_EQ(cfg.blocks[0].begin, 0u);
  ASSERT_EQ(cfg.blocks[0].succs.size(), 2u);  // then arm and else arm
  EXPECT_EQ(cfg.blocks[1].succs.size(), 1u);
  EXPECT_EQ(cfg.blocks[2].succs.size(), 1u);
  EXPECT_EQ(cfg.blocks[3].preds.size(), 2u);  // the join
  // Block boundaries partition the code and block_of_pc is consistent.
  for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
    for (uint32_t pc = cfg.blocks[b].begin; pc < cfg.blocks[b].end; ++pc) {
      EXPECT_EQ(cfg.block_of_pc[pc], b);
    }
  }
}

TEST(Dominators, DiamondJoinDominatedByFork) {
  wasm::Module m = parse(kIfElseWat);
  interp::FlatFunc flat = interp::flatten(m, m.functions[0]);
  Cfg cfg = build_cfg(flat);
  std::vector<uint32_t> idom = immediate_dominators(cfg);

  EXPECT_EQ(idom[0], 0u);
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], 0u);
  EXPECT_EQ(idom[3], 0u);  // neither arm dominates the join
  EXPECT_TRUE(dominates(idom, 0, 3));
  EXPECT_FALSE(dominates(idom, 1, 3));
  EXPECT_FALSE(dominates(idom, 2, 3));
}

TEST(Dominators, LoopBodyDominatedByPreheader) {
  wasm::Module m = parse(kConstTripWat);
  interp::FlatFunc flat = interp::flatten(m, m.functions[0]);
  Cfg cfg = build_cfg(flat);
  std::vector<uint32_t> idom = immediate_dominators(cfg);
  // Find the self-looping block; its idom must be its other predecessor.
  bool found = false;
  for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
    const BasicBlock& bb = cfg.blocks[b];
    if (std::find(bb.succs.begin(), bb.succs.end(), b) != bb.succs.end()) {
      found = true;
      ASSERT_EQ(bb.preds.size(), 2u);
      uint32_t p = bb.preds[0] == b ? bb.preds[1] : bb.preds[0];
      EXPECT_EQ(idom[b], p);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Positive property: the verifier accepts genuine IE output
// ---------------------------------------------------------------------------

TEST(Verifier, AcceptsAllShapesAllPassesAllWeights) {
  for (const char* wat : kAllShapes) {
    wasm::Module original = parse(wat);
    for (const WeightTable& weights :
         {WeightTable::unit(), WeightTable::from_base_costs()}) {
      for (PassKind pass : kAllPasses) {
        InstrumentResult result = instrument_module(original, pass, weights);
        VerifyResult verdict = verify_instrumented_module(
            result.module, result.counter_global, weights);
        EXPECT_TRUE(verdict.ok)
            << "pass=" << instrument::to_string(pass) << "\n"
            << verdict.error << "\n"
            << wasm::print_wat(result.module);
      }
    }
  }
}

TEST(Verifier, RecoversOriginalNaiveCostVector) {
  for (const char* wat : kAllShapes) {
    wasm::Module original = parse(wat);
    const WeightTable weights = WeightTable::from_base_costs();
    std::vector<uint64_t> expected = naive_cost_vector(original, weights);
    for (PassKind pass : kAllPasses) {
      InstrumentResult result = instrument_module(original, pass, weights);
      VerifyResult verdict = verify_instrumented_module(
          result.module, result.counter_global, weights);
      ASSERT_TRUE(verdict.ok) << verdict.error;
      EXPECT_EQ(verdict.cost_vector, expected)
          << "pass=" << instrument::to_string(pass);
      EXPECT_EQ(verdict.cost_vector_digest, cost_vector_digest(expected));
    }
  }
}

TEST(Verifier, RecognisesLoopRegions) {
  wasm::Module original = parse(kConstTripWat);
  const WeightTable weights = WeightTable::unit();
  InstrumentResult result =
      instrument_module(original, PassKind::LoopBased, weights);
  VerifyResult verdict = verify_instrumented_module(
      result.module, result.counter_global, weights);
  ASSERT_TRUE(verdict.ok) << verdict.error;
  ASSERT_EQ(verdict.functions.size(), 1u);
  EXPECT_EQ(verdict.functions[0].folded_loops, 1u);

  original = parse(kCountedLoopWat);  // dynamic trip count -> hoisted
  result = instrument_module(original, PassKind::LoopBased, weights);
  verdict = verify_instrumented_module(result.module, result.counter_global,
                                       weights);
  ASSERT_TRUE(verdict.ok) << verdict.error;
  ASSERT_EQ(verdict.functions.size(), 1u);
  EXPECT_EQ(verdict.functions[0].hoisted_loops, 1u);
}

// The full property test over every bundled workload.
TEST(Verifier, AcceptsEveryBundledWorkloadEveryPass) {
  std::vector<std::pair<std::string, wasm::Module>> modules;
  for (const workloads::KernelFactory& kernel : workloads::polybench()) {
    modules.emplace_back(kernel.name, kernel.build(6));
  }
  for (const workloads::UseCase& usecase : workloads::usecases()) {
    modules.emplace_back(usecase.name, usecase.build());
  }
  modules.emplace_back("faas_echo", workloads::faas_echo());
  modules.emplace_back("faas_resize", workloads::faas_resize());

  const WeightTable weights = WeightTable::unit();
  for (const auto& [name, original] : modules) {
    std::vector<uint64_t> expected = naive_cost_vector(original, weights);
    for (PassKind pass : kAllPasses) {
      InstrumentResult result = instrument_module(original, pass, weights);
      VerifyResult verdict = verify_instrumented_module(
          result.module, result.counter_global, weights);
      EXPECT_TRUE(verdict.ok) << name << " pass="
                              << instrument::to_string(pass) << "\n"
                              << verdict.error;
      EXPECT_EQ(verdict.cost_vector, expected) << name;
    }
  }
}

// Ties the static proof to the dynamic ground truth: counter value after a
// smoke run == interp ExecStats weighted count, on modules the verifier
// accepted.
TEST(Verifier, StaticAcceptMatchesDynamicExecStats) {
  const WeightTable weights = WeightTable::unit();
  Instance::Options opts;
  opts.cache_model = false;
  for (size_t k = 0; k < 3; ++k) {
    const workloads::KernelFactory& kernel = workloads::polybench()[k];
    wasm::Module original = kernel.build(4);

    Instance ground(original, {}, opts);
    ground.invoke("run");
    uint64_t expected = ground.stats().weighted(weights.raw());

    for (PassKind pass : kAllPasses) {
      InstrumentResult result = instrument_module(original, pass, weights);
      VerifyResult verdict = verify_instrumented_module(
          result.module, result.counter_global, weights);
      ASSERT_TRUE(verdict.ok) << kernel.name << ": " << verdict.error;

      Instance inst(result.module, {}, opts);
      inst.invoke("run");
      uint64_t counter = static_cast<uint64_t>(
          inst.read_global(instrument::kCounterExport).i64());
      EXPECT_EQ(counter, expected)
          << kernel.name << " pass=" << instrument::to_string(pass);
    }
  }
}

// ---------------------------------------------------------------------------
// Negative property: zero false accepts over the mutation corpus
// ---------------------------------------------------------------------------

TEST(Mutation, EnumerationIsDeterministic) {
  wasm::Module original = parse(kCountedLoopWat);
  InstrumentResult result =
      instrument_module(original, PassKind::Naive, WeightTable::unit());
  auto a = enumerate_mutations(result.module, result.counter_global);
  auto b = enumerate_mutations(result.module, result.counter_global);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].description, b[i].description);
  }
  wasm::Module m1 = apply_mutation(result.module, result.counter_global, 0);
  wasm::Module m2 = apply_mutation(result.module, result.counter_global, 0);
  EXPECT_EQ(wasm::encode(m1), wasm::encode(m2));
}

TEST(Mutation, CorpusCoversAllKinds) {
  // The hoisted loop gives the epilogue site; the branchy shapes give
  // movable increments.
  std::vector<MutationKind> seen;
  for (const char* wat : {kCountedLoopWat, kIfElseWat, kBrTableWat}) {
    for (PassKind pass : kAllPasses) {
      InstrumentResult result =
          instrument_module(parse(wat), pass, WeightTable::unit());
      for (const MutationSite& site :
           enumerate_mutations(result.module, result.counter_global)) {
        if (std::find(seen.begin(), seen.end(), site.kind) == seen.end()) {
          seen.push_back(site.kind);
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 5u) << "corpus does not exercise all mutation kinds";
}

TEST(Mutation, ZeroFalseAcceptsAcrossFullCorpus) {
  const WeightTable weights = WeightTable::unit();
  std::vector<wasm::Module> originals;
  for (const char* wat : kAllShapes) originals.push_back(parse(wat));
  originals.push_back(workloads::polybench()[0].build(4));

  size_t total = 0;
  for (const wasm::Module& original : originals) {
    for (PassKind pass : kAllPasses) {
      InstrumentResult result = instrument_module(original, pass, weights);
      auto corpus = enumerate_mutations(result.module, result.counter_global);
      for (size_t i = 0; i < corpus.size(); ++i) {
        wasm::Module mutant =
            apply_mutation(result.module, result.counter_global, i);
        // Every mutant stays valid: it would execute fine, just mis-account.
        ASSERT_NO_THROW(wasm::validate(mutant)) << corpus[i].description;
        VerifyResult verdict = verify_instrumented_module(
            mutant, result.counter_global, weights);
        EXPECT_FALSE(verdict.ok)
            << "FALSE ACCEPT: " << corpus[i].description << " pass="
            << instrument::to_string(pass) << "\n"
            << wasm::print_wat(mutant);
        EXPECT_FALSE(verdict.error.empty()) << corpus[i].description;
        ++total;
      }
    }
  }
  // The corpus must be substantial for "zero false accepts" to mean much.
  EXPECT_GT(total, 100u);
}

TEST(Mutation, RejectionCarriesCounterexamplePath) {
  InstrumentResult result = instrument_module(
      parse(kIfElseWat), PassKind::Naive, WeightTable::unit());
  auto corpus = enumerate_mutations(result.module, result.counter_global);
  bool checked = false;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].kind != MutationKind::HalveIncrement) continue;
    wasm::Module mutant =
        apply_mutation(result.module, result.counter_global, i);
    VerifyResult verdict = verify_instrumented_module(
        mutant, result.counter_global, WeightTable::unit());
    ASSERT_FALSE(verdict.ok);
    // A concrete path from the entry plus the imbalance it exhibits.
    EXPECT_NE(verdict.error.find("entry"), std::string::npos) << verdict.error;
    EXPECT_NE(verdict.error.find("pc"), std::string::npos) << verdict.error;
    checked = true;
    break;
  }
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// Counter-global integrity (the prepare() bugfix)
// ---------------------------------------------------------------------------

TEST(CounterGlobal, DecoyDeclarationsRejected) {
  struct Case {
    const char* wat;
    const char* expect;
  };
  const Case cases[] = {
      {R"((module (global (export "__acctee_counter") i64 (i64.const 0))))",
       "mutable"},
      {R"((module (global (export "__acctee_counter") (mut i64) (i64.const 7))))",
       "initialised"},
      {R"((module (global (export "__acctee_counter") (mut i32) (i32.const 0))))",
       "i64"},
      {R"((module (global (mut i64) (i64.const 0))))", "exported"},
  };
  for (const Case& c : cases) {
    wasm::Module m = parse(c.wat);
    auto err = check_counter_global(m, 0);
    ASSERT_TRUE(err.has_value()) << c.wat;
    EXPECT_NE(err->find(c.expect), std::string::npos) << *err;
  }
  // The genuine article passes.
  InstrumentResult result = instrument_module(
      parse(kIfElseWat), PassKind::Naive, WeightTable::unit());
  EXPECT_FALSE(
      check_counter_global(result.module, result.counter_global).has_value());
  // Right declaration, wrong index claimed.
  EXPECT_TRUE(
      check_counter_global(result.module, result.counter_global + 1)
          .has_value());
}

// ---------------------------------------------------------------------------
// AccountingEnclave::prepare integration
// ---------------------------------------------------------------------------

struct AeHarness {
  sgx::Platform platform{"ae-host", to_bytes("ae-host-seed")};
  crypto::Signer forged_ie{to_bytes("not-the-real-ie"), 32};
  InstrumentOptions options{PassKind::Naive, WeightTable::unit()};

  core::AccountingEnclave::Config config() {
    core::AccountingEnclave::Config cfg;
    cfg.trusted_ie_identity = forged_ie.identity();
    cfg.instrumentation = options;
    cfg.platform = interp::Platform::WasmSgxSim;
    return cfg;
  }

  /// Evidence over `binary` signed by the locally controlled "IE": what a
  /// compromised instrumentation enclave could produce for any module.
  core::InstrumentationEvidence sign_evidence(const Bytes& binary,
                                              uint32_t counter_global,
                                              const crypto::Digest& digest) {
    core::InstrumentationEvidence ev;
    ev.input_hash = crypto::sha256(to_bytes("claimed-original"));
    ev.output_hash = crypto::sha256(binary);
    ev.weight_table_hash = options.weights.hash();
    ev.pass = options.pass;
    ev.counter_global = counter_global;
    ev.cost_vector_digest = digest;
    ev.signature = forged_ie.sign(ev.signed_payload());
    return ev;
  }
};

TEST(AePrepare, RefusesModuleFailingStaticVerification) {
  AeHarness h;
  wasm::Module original = parse(kIfElseWat);
  InstrumentResult result =
      instrument_module(original, h.options.pass, h.options.weights);
  crypto::Digest digest =
      cost_vector_digest(naive_cost_vector(original, h.options.weights));

  // Control: a correctly instrumented module prepares fine even though the
  // evidence comes from our own signer (the AE trusts that identity here).
  core::AccountingEnclave ae(h.platform, h.config());
  Bytes honest = wasm::encode(result.module);
  EXPECT_NO_THROW(
      ae.prepare(honest, h.sign_evidence(honest, result.counter_global, digest)));

  // An under-counting mutant with perfectly valid evidence must be refused:
  // the signature says nothing about the module actually accounting.
  wasm::Module mutant =
      apply_mutation(result.module, result.counter_global, 0);
  Bytes bad = wasm::encode(mutant);
  try {
    ae.prepare(bad, h.sign_evidence(bad, result.counter_global, digest));
    FAIL() << "prepare accepted an under-counting module";
  } catch (const AttestationError& e) {
    EXPECT_NE(std::string(e.what()).find("static verification"),
              std::string::npos)
        << e.what();
  }
}

TEST(AePrepare, RefusesForgedCostVectorDigest) {
  AeHarness h;
  wasm::Module original = parse(kIfElseWat);
  InstrumentResult result =
      instrument_module(original, h.options.pass, h.options.weights);
  Bytes binary = wasm::encode(result.module);

  crypto::Digest forged{};
  forged[0] = 0xAA;  // an IE claiming a different (e.g. cheaper) cost vector
  core::AccountingEnclave ae(h.platform, h.config());
  try {
    ae.prepare(binary,
               h.sign_evidence(binary, result.counter_global, forged));
    FAIL() << "prepare accepted a forged cost-vector digest";
  } catch (const AttestationError& e) {
    EXPECT_NE(std::string(e.what()).find("cost-vector digest"),
              std::string::npos)
        << e.what();
  }
}

TEST(AePrepare, RefusesDecoyCounterGlobal) {
  AeHarness h;
  // A module exporting a pre-charged decoy under the counter's name: valid
  // Wasm, bills 7 weighted units before executing anything.
  wasm::Module decoy = parse(
      R"((module (global (export "__acctee_counter") (mut i64) (i64.const 7))
         (func (export "f") (result i32) i32.const 1)))");
  Bytes binary = wasm::encode(decoy);

  // Even with static verification off, the declaration checks still run —
  // the bugfix is independent of the (heavier) dataflow.
  core::AccountingEnclave::Config cfg = h.config();
  cfg.verify_instrumentation = false;
  core::AccountingEnclave ae(h.platform, cfg);
  try {
    ae.prepare(binary, h.sign_evidence(binary, 0, crypto::Digest{}));
    FAIL() << "prepare accepted a decoy counter global";
  } catch (const AttestationError& e) {
    EXPECT_NE(std::string(e.what()).find("counter global rejected"),
              std::string::npos)
        << e.what();
  }
}

TEST(AePrepare, VerificationGateCanBeDisabled) {
  AeHarness h;
  wasm::Module original = parse(kIfElseWat);
  InstrumentResult result =
      instrument_module(original, h.options.pass, h.options.weights);
  wasm::Module mutant =
      apply_mutation(result.module, result.counter_global, 0);
  Bytes bad = wasm::encode(mutant);
  auto evidence = h.sign_evidence(bad, result.counter_global, crypto::Digest{});

  core::AccountingEnclave::Config off = h.config();
  off.verify_instrumentation = false;
  core::AccountingEnclave trusting(h.platform, off);
  // Documents exactly what the flag trades away: with verification off the
  // AE is back to trusting the IE signature alone.
  EXPECT_NO_THROW(trusting.prepare(bad, evidence));

  core::AccountingEnclave strict(h.platform, h.config());
  EXPECT_THROW(strict.prepare(bad, evidence), AttestationError);
}

// ---------------------------------------------------------------------------
// Verify-then-bind (DESIGN.md §15): zero false accepts over tampered
// lowered bytecode
// ---------------------------------------------------------------------------

TEST(LoweringMutation, EnumerationIsDeterministicAndCoversAllKinds) {
  InstrumentResult result = instrument_module(
      workloads::polybench()[0].build(4), PassKind::LoopBased,
      WeightTable::unit());
  interp::CompiledModulePtr compiled = interp::compile(result.module);

  auto a = enumerate_lowering_mutations(compiled->lowered());
  auto b = enumerate_lowering_mutations(compiled->lowered());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::vector<LoweringMutationKind> seen;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].pc, b[i].pc);
    EXPECT_EQ(a[i].description, b[i].description);
    if (std::find(seen.begin(), seen.end(), a[i].kind) == seen.end()) {
      seen.push_back(a[i].kind);
    }
  }
  EXPECT_EQ(seen.size(), 5u)
      << "corpus does not exercise all lowering-mutation kinds";

  auto m1 = apply_lowering_mutation(compiled->lowered(), 0);
  auto m2 = apply_lowering_mutation(compiled->lowered(), 0);
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t f = 0; f < m1.size(); ++f) EXPECT_TRUE(m1[f] == m2[f]);
}

TEST(LoweringMutation, ZeroFalseAcceptsAcrossFullCorpus) {
  std::vector<wasm::Module> originals;
  for (const char* wat : kAllShapes) originals.push_back(parse(wat));
  originals.push_back(workloads::polybench()[0].build(4));

  size_t total = 0;
  for (const wasm::Module& original : originals) {
    InstrumentResult result =
        instrument_module(original, PassKind::LoopBased, WeightTable::unit());
    interp::CompiledModulePtr compiled = interp::compile(result.module);

    // Control: the genuine lowering binds.
    EXPECT_FALSE(check_lowering(*compiled).has_value());
    EXPECT_FALSE(check_lowering(compiled->module(), compiled->flat(),
                                compiled->lowered(), compiled->lower_options(),
                                compiled->lowering_digest())
                     .has_value());

    auto corpus = enumerate_lowering_mutations(compiled->lowered());
    for (size_t i = 0; i < corpus.size(); ++i) {
      auto mutant = apply_lowering_mutation(compiled->lowered(), i);
      auto err = check_lowering(compiled->module(), compiled->flat(), mutant,
                                compiled->lower_options(),
                                compiled->lowering_digest());
      EXPECT_TRUE(err.has_value())
          << "FALSE ACCEPT: " << corpus[i].description;
      ++total;
    }
  }
  // The corpus must be substantial for "zero false accepts" to mean much.
  EXPECT_GT(total, 100u);
}

TEST(LoweringMutation, ForgedDigestDoesNotLaunderATamperedStream) {
  // Even if the attacker recomputes a *consistent* digest over the tampered
  // stream, the AE re-derives the lowering from the verified flattened code
  // — the tampered stream itself diverges, so the bind still fails.
  InstrumentResult result = instrument_module(
      parse(kConstTripWat), PassKind::LoopBased, WeightTable::unit());
  interp::CompiledModulePtr compiled = interp::compile(result.module);
  auto corpus = enumerate_lowering_mutations(compiled->lowered());
  ASSERT_FALSE(corpus.empty());
  auto mutant = apply_lowering_mutation(compiled->lowered(), 0);
  crypto::Digest laundered = interp::lowering_digest(
      compiled->flat(), mutant, compiled->lower_options());
  auto err = check_lowering(compiled->module(), compiled->flat(), mutant,
                            compiled->lower_options(), laundered);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("differs"), std::string::npos) << *err;
}

TEST(AePrepare, RecordsLoweringDigestWithPreparedModule) {
  AeHarness h;
  wasm::Module original = parse(kConstTripWat);
  h.options.pass = PassKind::LoopBased;
  InstrumentResult result =
      instrument_module(original, h.options.pass, h.options.weights);
  crypto::Digest digest =
      cost_vector_digest(naive_cost_vector(original, h.options.weights));
  Bytes binary = wasm::encode(result.module);

  core::AccountingEnclave ae(h.platform, h.config());
  auto prepared =
      ae.prepare(binary, h.sign_evidence(binary, result.counter_global, digest));
  EXPECT_EQ(prepared->lowering_digest, prepared->compiled->lowering_digest());
  EXPECT_NE(prepared->lowering_digest, crypto::Digest{})
      << "verified preparation must bind the lowered form";
}

TEST(AePrepare, CachesVerificationResultWithPreparedModule) {
  AeHarness h;
  wasm::Module original = parse(kConstTripWat);
  h.options.pass = PassKind::LoopBased;
  InstrumentResult result =
      instrument_module(original, h.options.pass, h.options.weights);
  crypto::Digest digest =
      cost_vector_digest(naive_cost_vector(original, h.options.weights));
  Bytes binary = wasm::encode(result.module);

  core::AccountingEnclave ae(h.platform, h.config());
  auto evidence = h.sign_evidence(binary, result.counter_global, digest);
  auto first = ae.prepare(binary, evidence);
  EXPECT_EQ(first->cost_vector_digest, digest);
  auto second = ae.prepare(binary, evidence);
  EXPECT_EQ(first.get(), second.get());  // LRU hit: verified once, reused
  EXPECT_EQ(ae.prepared_cache_hits(), 1u);
}

}  // namespace
}  // namespace acctee::analysis
