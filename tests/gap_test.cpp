// Billed-vs-true cost-gap observability (DESIGN.md §18).
//
// Three claims are under test:
//   1. Billing neutrality — attaching the shadow resource meter changes
//      nothing billable: ExecStats, signed-log bytes, and signatures are
//      bit-identical with the meter disabled and enabled.
//   2. Host-call surcharge soundness — the per-host-call charge policy is
//      wired through evidence (v3) and re-proved by the AE's static
//      verifier: matching policies execute, mismatched policies are
//      rejected before execution, and the mutation corpus over a surcharged
//      module yields zero false accepts.
//   3. Gap surfacing — the adversarial workloads produce the expected
//      per-dimension gaps, GapMetrics caps cardinality and scrubs hostile
//      tenant names, and the watchdog's cost_gap rule latches an alert.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "analysis/verifier.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "faas/sharded_gateway.hpp"
#include "instrument/passes.hpp"
#include "interp/shadow_meter.hpp"
#include "obs/gap_metrics.hpp"
#include "obs/watchdog.hpp"
#include "wasm/binary.hpp"
#include "workloads/adversarial.hpp"
#include "workloads/faas_functions.hpp"

using namespace acctee;

namespace {

instrument::InstrumentOptions make_options(uint64_t host_call_weight) {
  instrument::InstrumentOptions options;
  options.pass = instrument::PassKind::LoopBased;
  options.host_call_weight = host_call_weight;
  return options;
}

/// IE + AE pair on deterministically seeded platforms; two Rigs built with
/// the same `id` have identical IE/AE identities and signature streams.
struct Rig {
  sgx::Platform ie_host;
  sgx::Platform cloud;
  core::InstrumentationEnclave ie;
  core::AccountingEnclave ae;

  Rig(const std::string& id, uint64_t host_call_weight, bool meter)
      : ie_host(id + "-ie", to_bytes(id + "-ie-seed")),
        cloud(id + "-cloud", to_bytes(id + "-cloud-seed")),
        ie(ie_host, make_options(host_call_weight)),
        ae(cloud, ae_config(ie, host_call_weight, meter)) {}

  static core::AccountingEnclave::Config ae_config(
      core::InstrumentationEnclave& ie, uint64_t host_call_weight,
      bool meter) {
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = make_options(host_call_weight);
    config.platform = interp::Platform::WasmSgxSim;
    config.shadow_meter = meter;
    return config;
  }

  core::AccountingEnclave::Outcome run(const wasm::Module& module,
                                       Bytes input = {}) {
    auto deployed = ie.instrument_binary(wasm::encode(module));
    return ae.execute(deployed.instrumented_binary, deployed.evidence, "run",
                      {}, std::move(input));
  }
};

// --- 1. Billing neutrality ---

TEST(GapNeutrality, MeterChangesNoBilledByteOnAnyBackend) {
  Rig off("neutral", 0, /*meter=*/false);
  Rig on("neutral", 0, /*meter=*/true);
  for (const workloads::AdversarialCase& c : workloads::adversarial_suite(1)) {
    SCOPED_TRACE(c.name);
    auto a = off.run(c.module, c.input);
    auto b = on.run(c.module, c.input);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.signed_log.log, b.signed_log.log);
    EXPECT_EQ(a.signed_log.log.serialize(), b.signed_log.log.serialize());
    EXPECT_EQ(a.signed_log.signature.serialize(),
              b.signed_log.signature.serialize());
    EXPECT_FALSE(a.gap.has_value());
    EXPECT_TRUE(b.gap.has_value());
  }
}

TEST(GapNeutrality, CheckpointsIdenticalWithMeterAttached) {
  std::vector<workloads::AdversarialCase> cases =
      workloads::adversarial_suite(1);
  // Same rigs but with interim checkpoint logs forced on: the meter must
  // not perturb checkpoint boundaries or their signed bytes either.
  auto run_with_checkpoints = [&](bool meter) {
    Rig rig("neutral-ckpt", 0, meter);
    core::AccountingEnclave::Config config =
        Rig::ae_config(rig.ie, 0, meter);
    config.checkpoint_interval = 20000;
    core::AccountingEnclave ae(rig.cloud, config);
    auto deployed = rig.ie.instrument_binary(wasm::encode(cases[0].module));
    return ae.execute(deployed.instrumented_binary, deployed.evidence, "run",
                      {}, cases[0].input);
  };
  auto a = run_with_checkpoints(false);
  auto b = run_with_checkpoints(true);
  ASSERT_EQ(a.interim_logs.size(), b.interim_logs.size());
  EXPECT_FALSE(a.interim_logs.empty());
  for (size_t i = 0; i < a.interim_logs.size(); ++i) {
    EXPECT_EQ(a.interim_logs[i].log.serialize(),
              b.interim_logs[i].log.serialize());
    EXPECT_EQ(a.interim_logs[i].signature.serialize(),
              b.interim_logs[i].signature.serialize());
  }
}

// --- 2. Host-call surcharge through evidence and verifier ---

TEST(HostCharge, SurchargeBillsHostCallsAndVerifies) {
  const uint32_t calls = 500;
  wasm::Module module = workloads::host_sink(calls);
  Rig plain("charge-off", 0, false);
  Rig charged("charge-on", 7, false);
  auto base = plain.run(module);
  auto extra = charged.run(module);
  // Exactly `calls` host entries, each surcharged 7 on top of the plain
  // accounting — nothing else in the module touches the policy.
  EXPECT_EQ(base.stats.host_calls, calls);
  EXPECT_EQ(extra.signed_log.log.weighted_instructions,
            base.signed_log.log.weighted_instructions + uint64_t{calls} * 7);
}

TEST(HostCharge, MismatchedPolicyRejectedBeforeExecution) {
  wasm::Module module = workloads::host_sink(64);
  // Evidence says surcharge 5; the AE agreed on 0 — and vice versa. Both
  // directions must be refused at evidence admission (AttestationError),
  // not discovered later as a billing discrepancy.
  {
    Rig ie_side("mismatch-a", 5, false);
    core::AccountingEnclave::Config config =
        Rig::ae_config(ie_side.ie, 0, false);
    core::AccountingEnclave strict(ie_side.cloud, config);
    auto deployed = ie_side.ie.instrument_binary(wasm::encode(module));
    EXPECT_THROW(strict.execute(deployed.instrumented_binary,
                                deployed.evidence, "run", {}),
                 AttestationError);
  }
  {
    Rig ie_side("mismatch-b", 0, false);
    core::AccountingEnclave::Config config =
        Rig::ae_config(ie_side.ie, 9, false);
    core::AccountingEnclave strict(ie_side.cloud, config);
    auto deployed = ie_side.ie.instrument_binary(wasm::encode(module));
    EXPECT_THROW(strict.execute(deployed.instrumented_binary,
                                deployed.evidence, "run", {}),
                 AttestationError);
  }
}

TEST(HostCharge, UnderchargedModuleFailsAEVerifier) {
  // A module honestly instrumented *without* the surcharge must not pass an
  // AE that expects the surcharge even if the evidence field is forged to
  // match: the static verifier recovers the actual charges from the code.
  wasm::Module module = workloads::host_sink(64);
  Rig ie_side("forged", 0, false);
  auto deployed = ie_side.ie.instrument_binary(wasm::encode(module));
  core::InstrumentationEvidence forged = deployed.evidence;
  forged.host_call_weight = 9;  // claim matches the AE's policy, code doesn't
  core::AccountingEnclave::Config config =
      Rig::ae_config(ie_side.ie, 9, false);
  core::AccountingEnclave strict(ie_side.cloud, config);
  EXPECT_THROW(strict.execute(deployed.instrumented_binary, forged, "run", {}),
               AttestationError);
}

TEST(HostCharge, MutationCorpusZeroFalseAccepts) {
  wasm::Module module = workloads::host_sink(32);
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  auto result = instrument::instrument(module, make_options(6));
  const instrument::HostChargePolicy policy =
      instrument::HostChargePolicy::for_module(result.module, 6);
  // The honest surcharged module verifies under its policy...
  ASSERT_TRUE(analysis::verify_instrumented_module(
                  result.module, result.counter_global, weights, policy)
                  .ok);
  // ...and under no other (the surcharge alters the balanced debt).
  EXPECT_FALSE(analysis::verify_instrumented_module(
                   result.module, result.counter_global, weights)
                   .ok);
  // Every corpus mutant of the surcharged module must be refused.
  std::vector<analysis::MutationSite> sites =
      analysis::enumerate_mutations(result.module, result.counter_global);
  ASSERT_FALSE(sites.empty());
  size_t false_accepts = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    wasm::Module mutant =
        analysis::apply_mutation(result.module, result.counter_global, i);
    if (analysis::verify_instrumented_module(mutant, result.counter_global,
                                             weights, policy)
            .ok) {
      ++false_accepts;
      ADD_FAILURE() << "false accept: " << sites[i].description;
    }
  }
  EXPECT_EQ(false_accepts, 0u);
}

// --- 3. Gap surfacing ---

TEST(GapProfile, AdversarialWorkloadsShowTheirDimension) {
  Rig rig("surface", 0, true);

  auto baseline = rig.run(workloads::gap_baseline(20000));
  ASSERT_TRUE(baseline.gap.has_value());
  EXPECT_LT(baseline.gap->cycles.gap_ratio(), 2.0);
  EXPECT_EQ(baseline.gap->host_cycles.true_cost, 0u);

  auto sink = rig.run(workloads::host_sink(2000));
  ASSERT_TRUE(sink.gap.has_value());
  EXPECT_GT(sink.gap->host_cycles.gap_ratio(), 10.0);
  EXPECT_GT(sink.gap->cycles.gap_ratio(), 5.0);

  auto churn = rig.run(workloads::grow_churn(16, 2));
  ASSERT_TRUE(churn.gap.has_value());
  EXPECT_EQ(churn.gap->mem_grow_bytes.billed, 0u);
  EXPECT_EQ(churn.gap->mem_grow_bytes.true_cost,
            uint64_t{16} * 2 * wasm::kPageSize);

  auto io = rig.run(workloads::io_amplifier(16, 4096));
  ASSERT_TRUE(io.gap.has_value());
  EXPECT_EQ(io.gap->io_bytes.billed, io.gap->io_bytes.true_cost);
  EXPECT_EQ(io.gap->io_bytes.true_cost, uint64_t{16} * 4096);
  EXPECT_GT(io.gap->host_cycles.gap_ratio(), 10.0);

  auto thrash = rig.run(workloads::cache_thrasher(20000, 256));
  ASSERT_TRUE(thrash.gap.has_value());
  EXPECT_EQ(thrash.gap->cache_cycles.billed, 0u);
  EXPECT_GT(thrash.gap->cache_cycles.true_cost, 0u);
  EXPECT_GT(thrash.gap->cycles.gap_ratio(), 2.0);
}

TEST(GapMetricsTest, ScrubsHostileNamesAndCapsCardinality) {
  EXPECT_EQ(obs::GapMetrics::scrub("tenant-7.prod"), "tenant-7.prod");
  EXPECT_EQ(obs::GapMetrics::scrub("evil\"} inject{x=\"1"),
            "evil___inject_x__1");
  EXPECT_EQ(obs::GapMetrics::scrub(""), "_");
  EXPECT_EQ(obs::GapMetrics::scrub(std::string(200, 'a'), 10),
            std::string(10, 'a'));

  obs::Registry registry;
  obs::GapMetrics metrics(registry, {.max_tenants = 2, .max_name_length = 48});
  metrics.record("alice", "cycles", 10, 20);
  metrics.record("bob", "cycles", 10, 30);
  metrics.record("mallory-1", "cycles", 10, 40);
  metrics.record("mallory-2", "cycles", 10, 50);
  EXPECT_EQ(metrics.tenant_count(), 2u);
  uint64_t overflow_true = 0;
  bool saw_alice = false;
  for (const obs::GapMetrics::Series& s : metrics.snapshot()) {
    if (s.tenant == obs::kGapOverflowTenant) overflow_true += s.true_cost;
    if (s.tenant == "alice") saw_alice = true;
    EXPECT_NE(s.tenant, "mallory-1");
    EXPECT_NE(s.tenant, "mallory-2");
  }
  EXPECT_TRUE(saw_alice);
  EXPECT_EQ(overflow_true, 90u);  // both mallorys folded together
}

TEST(GapMetricsTest, RecordGapProfileWritesEveryDimension) {
  obs::Registry registry;
  obs::GapMetrics metrics(registry);
  interp::GapProfile profile;
  profile.cycles = {100, 150};
  profile.host_cycles = {10, 80};
  profile.cache_cycles = {0, 900};
  profile.mem_grow_bytes = {0, 65536};
  profile.io_bytes = {4096, 4096};
  interp::record_gap_profile(metrics, "tenant-a", profile);
  std::vector<obs::GapMetrics::Series> series = metrics.snapshot();
  ASSERT_EQ(series.size(), std::size(interp::kGapDimensions));
  for (const obs::GapMetrics::Series& s : series) {
    EXPECT_EQ(s.tenant, "tenant-a");
  }
}

TEST(Watchdog, CostGapRuleLatchesAndRearms) {
  obs::Registry registry;
  obs::GapMetrics metrics(registry);
  obs::WatchdogConfig config;
  config.cost_gap_ratio_threshold = 8.0;
  config.cost_gap_min_true_cost = 1000;
  obs::Watchdog watchdog(registry, config, nullptr);

  // Below the floor: no alert even at a huge ratio.
  metrics.record("t", "host_cycles", 1, 999);
  watchdog.evaluate_once();
  EXPECT_TRUE(watchdog.alerts().empty());

  // Past floor and threshold: exactly one latched alert across many ticks.
  metrics.record("t", "host_cycles", 1, 999000);
  watchdog.evaluate_once();
  watchdog.evaluate_once();
  std::vector<obs::WatchdogAlert> alerts = watchdog.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "cost_gap");

  // Billing catches up (e.g. surcharge deployed): ratio falls, latch
  // re-arms, and a later regression fires a second alert.
  metrics.record("t", "host_cycles", 10000000, 0);
  watchdog.evaluate_once();
  EXPECT_EQ(watchdog.alerts().size(), 1u);
  metrics.record("t", "host_cycles", 0, 990000000);
  watchdog.evaluate_once();
  EXPECT_EQ(watchdog.alerts().size(), 2u);
}

TEST(Gateway, ShadowMeterFeedsPerTenantGapMetrics) {
  auto options = make_options(0);
  sgx::Platform ie_host{"gw-gap-ie", to_bytes("gw-gap-ie-seed")};
  core::InstrumentationEnclave ie(ie_host, options);
  core::AccountingEnclave::Config ae_config;
  ae_config.trusted_ie_identity = ie.identity();
  ae_config.instrumentation = options;
  ae_config.shadow_meter = true;
  auto instrumented =
      ie.instrument_binary(wasm::encode(workloads::faas_echo()));

  faas::ShardedGatewayConfig config;
  config.base.setup = faas::Setup::WasmSgxHwInstr;
  config.shards = 1;
  config.workers_per_shard = 1;
  faas::ShardedGateway gateway(workloads::faas_echo(), "run", config);
  gateway.deploy_billing("gw-gap-cloud", to_bytes("gw-gap-cloud-seed"),
                         ae_config, instrumented.instrumented_binary,
                         instrumented.evidence,
                         /*ledger_checkpoint_every=*/4);
  ASSERT_NE(gateway.gap_metrics(), nullptr);

  std::vector<faas::Request> requests;
  for (uint32_t r = 0; r < 8; ++r) {
    requests.push_back(faas::Request{"tenant-" + std::to_string(r % 2),
                                     workloads::make_test_image(16, r)});
  }
  gateway.run_scenario(requests);

  std::vector<obs::GapMetrics::Series> series =
      gateway.gap_metrics()->snapshot();
  bool saw_cycles_a = false;
  bool saw_cycles_b = false;
  for (const obs::GapMetrics::Series& s : series) {
    if (s.dimension != "cycles") continue;
    if (s.tenant == "tenant-0") saw_cycles_a = s.billed > 0;
    if (s.tenant == "tenant-1") saw_cycles_b = s.billed > 0;
  }
  EXPECT_TRUE(saw_cycles_a);
  EXPECT_TRUE(saw_cycles_b);
}

}  // namespace
