// End-to-end tests of AccTEE's core: the two-way-sandbox workflow
// (Fig. 1/3), resource logs, evidence, pricing, and failure injection
// against every trust boundary.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "core/pricing.hpp"
#include "core/session.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"

namespace acctee::core {
namespace {

using interp::TypedValue;
using V = TypedValue;

/// A workload that computes, allocates and does I/O: reads its input,
/// XOR-mixes it `rounds` times into memory, writes a 4-byte digest back.
const char* kWorkloadWat = R"((module
  (import "env" "input_size" (func $input_size (result i32)))
  (import "env" "io_read" (func $io_read (param i32 i32) (result i32)))
  (import "env" "io_write" (func $io_write (param i32 i32) (result i32)))
  (memory 2 8)
  (func (export "run") (param $rounds i32) (result i32)
    (local $n i32) (local $i i32) (local $acc i32) (local $r i32)
    call $input_size
    local.set $n
    i32.const 1024
    local.get $n
    call $io_read
    drop
    local.get $rounds
    local.set $r
    loop $round
      i32.const 0
      local.set $i
      loop $scan
        local.get $acc
        i32.const 1024
        local.get $i
        i32.add
        i32.load8_u
        i32.xor
        local.set $acc
        local.get $i
        i32.const 1
        i32.add
        local.tee $i
        local.get $n
        i32.lt_s
        br_if $scan
      end
      local.get $r
      i32.const 1
      i32.sub
      local.tee $r
      br_if $round
    end
    i32.const 0
    local.get $acc
    i32.store
    i32.const 0
    i32.const 4
    call $io_write
    drop
    local.get $acc
  )
))";

Bytes workload_binary() {
  wasm::Module m = wasm::parse_wat(kWorkloadWat);
  wasm::validate(m);
  return wasm::encode(m);
}

struct World {
  sgx::Platform ie_platform{"ie-host", to_bytes("ie-host-seed")};
  sgx::Platform provider_platform{"provider-host",
                                  to_bytes("provider-host-seed")};
  sgx::AttestationService ias{to_bytes("ias-root"), 128};

  World() {
    ias.provision_platform(ie_platform);
    ias.provision_platform(provider_platform);
  }
};

SessionPolicy default_policy() {
  SessionPolicy policy;
  policy.instrumentation.pass = instrument::PassKind::LoopBased;
  policy.platform = interp::Platform::WasmSgxSim;  // fast for tests
  return policy;
}

PriceSchedule sample_prices() {
  PriceSchedule p;
  p.provider = "acme-cloud";
  p.nanocredits_per_mega_instruction = 5000;
  p.nanocredits_per_mib_peak = 200;
  p.nanocredits_per_kib_io = 10;
  return p;
}

TEST(EndToEnd, FullTrustWorkflow) {
  World world;
  SessionPolicy policy = default_policy();

  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());

  // Fig. 3 workflow.
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  customer.attest_accounting_enclave(provider.accounting_enclave_quote(),
                                     world.ias);

  Bytes input = to_bytes("the quick brown fox jumps over the lazy dog");
  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(3)},
                             input);

  const SignedResourceLog& slog = billed.outcome.signed_log;
  EXPECT_TRUE(customer.verify_log(slog));
  EXPECT_FALSE(slog.log.trapped);
  EXPECT_GT(slog.log.weighted_instructions, 0u);
  EXPECT_EQ(slog.log.io_bytes_in, input.size());
  EXPECT_EQ(slog.log.io_bytes_out, 4u);
  EXPECT_GE(slog.log.peak_memory_bytes, 2 * wasm::kPageSize);
  EXPECT_EQ(billed.outcome.output.size(), 4u);
  EXPECT_GT(billed.bill.total(), 0u);

  // Deterministic workload: a second run costs exactly the same compute.
  auto billed2 = provider.run(customer.instrumented_binary(),
                              customer.evidence(), "run", {V::make_i32(3)},
                              input);
  EXPECT_EQ(billed2.outcome.signed_log.log.weighted_instructions,
            slog.log.weighted_instructions);
  EXPECT_EQ(billed2.outcome.signed_log.log.sequence, slog.log.sequence + 1);
  EXPECT_TRUE(customer.verify_log(billed2.outcome.signed_log));
}

TEST(EndToEnd, CounterScalesWithWork) {
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  customer.attest_accounting_enclave(provider.accounting_enclave_quote(),
                                     world.ias);

  Bytes input(1000, 0x42);
  uint64_t c1 = provider
                    .run(customer.instrumented_binary(), customer.evidence(),
                         "run", {V::make_i32(1)}, input)
                    .outcome.signed_log.log.weighted_instructions;
  uint64_t c10 = provider
                     .run(customer.instrumented_binary(), customer.evidence(),
                          "run", {V::make_i32(10)}, input)
                     .outcome.signed_log.log.weighted_instructions;
  // 10 rounds of the scan loop: roughly 10x the single-round count.
  EXPECT_GT(c10, 9 * c1 / 2);
  EXPECT_LT(c10, 11 * c1);
}

// ---------------------------------------------------------------------------
// Failure injection: every boundary in the threat model
// ---------------------------------------------------------------------------

TEST(FailureInjection, TamperedBinaryRejectedByAe) {
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);

  Bytes tampered = customer.instrumented_binary();
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_THROW(provider.run(tampered, customer.evidence(), "run",
                            {V::make_i32(1)}),
               AttestationError);
}

TEST(FailureInjection, SelfInstrumentedBinaryWithoutIeRejected) {
  // A cheating workload provider instruments the module itself with lowered
  // counts and forges evidence with its own key.
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);

  wasm::Module m = wasm::parse_wat(kWorkloadWat);
  wasm::validate(m);
  auto result = instrument::instrument(m, policy.instrumentation);
  // Cheat: halve every increment.
  for (auto& f : result.module.functions) {
    for (auto& instr : f.body) {
      if (instr.op == wasm::Op::I64Const && instr.as_i64() > 1) {
        instr.imm = static_cast<uint64_t>(instr.as_i64() / 2);
      }
    }
  }
  Bytes cheat_binary = wasm::encode(result.module);

  crypto::Signer mallory(to_bytes("mallory"), 4);
  InstrumentationEvidence forged;
  forged.input_hash = crypto::sha256(workload_binary());
  forged.output_hash = crypto::sha256(cheat_binary);
  forged.weight_table_hash = policy.instrumentation.weights.hash();
  forged.pass = policy.instrumentation.pass;
  forged.counter_global = result.counter_global;
  forged.signature = mallory.sign(forged.signed_payload());

  EXPECT_THROW(provider.run(cheat_binary, forged, "run", {V::make_i32(1)}),
               AttestationError);
}

TEST(FailureInjection, WrongPassLevelEvidenceRejected) {
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  customer.instrument_with(ie, world.ias);

  // Provider's AE is configured for naive accounting.
  SessionPolicy other = policy;
  other.instrumentation.pass = instrument::PassKind::Naive;
  InfrastructureProvider provider(world.provider_platform, other,
                                  world.ias.identity(), sample_prices());
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  EXPECT_THROW(provider.run(customer.instrumented_binary(),
                            customer.evidence(), "run", {V::make_i32(1)}),
               AttestationError);
}

TEST(FailureInjection, ForgedLogRejectedByCustomer) {
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  customer.attest_accounting_enclave(provider.accounting_enclave_quote(),
                                     world.ias);

  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(1)});
  SignedResourceLog inflated = billed.outcome.signed_log;
  // A greedy provider inflates the instruction count after signing.
  inflated.log.weighted_instructions *= 10;
  EXPECT_FALSE(customer.verify_log(inflated));

  // Or signs with its own (non-enclave) key.
  crypto::Signer host_key(to_bytes("host"), 4);
  inflated.signature = host_key.sign(inflated.log.serialize());
  EXPECT_FALSE(customer.verify_log(inflated));
}

TEST(FailureInjection, UnattestedAeNotTrusted) {
  World world;
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(1)});
  // Customer never attested the AE: logs must not be accepted.
  EXPECT_FALSE(customer.verify_log(billed.outcome.signed_log));
}

TEST(FailureInjection, UnprovisionedProviderPlatformFailsAttestation) {
  World world;
  sgx::Platform rogue("rogue-host", to_bytes("rogue-seed"));
  SessionPolicy policy = default_policy();
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(workload_binary(), policy, world.ias.identity());
  InfrastructureProvider provider(rogue, policy, world.ias.identity(),
                                  sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  EXPECT_THROW(customer.attest_accounting_enclave(
                   provider.accounting_enclave_quote(), world.ias),
               AttestationError);
}

TEST(FailureInjection, TrappingWorkloadStillProducesSignedLog) {
  World world;
  SessionPolicy policy = default_policy();
  const char* trap_wat = R"((module
    (memory 1)
    (func (export "run") (param i32) (result i32)
      (local $i i32)
      loop $l
        local.get $i
        i32.const 1
        i32.add
        local.tee $i
        local.get 0
        i32.lt_s
        br_if $l
      end
      i32.const -1
      i32.load
    )
  ))";
  wasm::Module m = wasm::parse_wat(trap_wat);
  wasm::validate(m);
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(wasm::encode(m), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  customer.attest_accounting_enclave(provider.accounting_enclave_quote(),
                                     world.ias);

  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(1000)});
  EXPECT_TRUE(billed.outcome.signed_log.log.trapped);
  EXPECT_FALSE(billed.outcome.trap_message.empty());
  // The loop's work before the trap is still accounted and billable.
  EXPECT_GT(billed.outcome.signed_log.log.weighted_instructions, 1000u);
  // So is its memory-time: one page for every instruction that ran.
  EXPECT_EQ(billed.outcome.signed_log.log.memory_integral,
            billed.outcome.stats.instructions * wasm::kPageSize);
  EXPECT_TRUE(customer.verify_log(billed.outcome.signed_log));
}

TEST(FailureInjection, RunawayWorkloadStoppedByInstructionLimit) {
  World world;
  SessionPolicy policy = default_policy();
  policy.max_instructions = 100000;
  const char* spin_wat = R"((module
    (func (export "run") (param i32) (result i32)
      loop $l
        br $l
      end
      i32.const 0
    )
  ))";
  wasm::Module m = wasm::parse_wat(spin_wat);
  wasm::validate(m);
  InstrumentationEnclave ie(world.ie_platform, policy.instrumentation);
  WorkloadProvider customer(wasm::encode(m), policy, world.ias.identity());
  InfrastructureProvider provider(world.provider_platform, policy,
                                  world.ias.identity(), sample_prices());
  customer.instrument_with(ie, world.ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), world.ias);
  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(0)});
  EXPECT_TRUE(billed.outcome.signed_log.log.trapped);
}

// ---------------------------------------------------------------------------
// Logs and evidence serialization
// ---------------------------------------------------------------------------

TEST(ResourceLog, SerializationRoundTrip) {
  ResourceUsageLog log;
  log.module_hash = crypto::sha256(to_bytes("m"));
  log.weight_table_hash = crypto::sha256(to_bytes("w"));
  log.pass = instrument::PassKind::FlowBased;
  log.sequence = 42;
  log.weighted_instructions = 123456789;
  log.peak_memory_bytes = 1 << 20;
  log.memory_integral = 987654321;
  log.io_bytes_in = 100;
  log.io_bytes_out = 200;
  log.trapped = true;
  EXPECT_EQ(ResourceUsageLog::deserialize(log.serialize()), log);
}

TEST(ResourceLog, DeserializeRejectsGarbage) {
  EXPECT_THROW(ResourceUsageLog::deserialize(to_bytes("nope")),
               std::invalid_argument);
  ResourceUsageLog log;
  Bytes bytes = log.serialize();
  bytes[bytes.size() - 10] = 9;  // corrupt pass byte region? keep size valid
  Bytes truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(ResourceUsageLog::deserialize(truncated),
               std::invalid_argument);
}

TEST(ResourceLog, RandomizedRoundTrip) {
  Xoshiro256 rng(0x4c6f675254726970);  // "LogRTrip"
  for (int iter = 0; iter < 200; ++iter) {
    ResourceUsageLog log;
    for (auto& b : log.module_hash) b = static_cast<uint8_t>(rng.next());
    for (auto& b : log.weight_table_hash) {
      b = static_cast<uint8_t>(rng.next());
    }
    for (auto& b : log.prev_log_hash) b = static_cast<uint8_t>(rng.next());
    log.pass = static_cast<instrument::PassKind>(rng.next_below(3));
    log.sequence = rng.next();
    log.weighted_instructions = rng.next();
    log.peak_memory_bytes = rng.next();
    log.memory_integral = rng.next();
    log.io_bytes_in = rng.next();
    log.io_bytes_out = rng.next();
    log.trapped = rng.next_below(2) != 0;
    log.is_final = rng.next_below(2) != 0;
    Bytes bytes = log.serialize();
    EXPECT_EQ(ResourceUsageLog::deserialize(bytes), log);
    // Any truncation must be rejected, never mis-decoded.
    Bytes cut(bytes.begin(),
              bytes.begin() + static_cast<long>(rng.next_below(bytes.size())));
    EXPECT_THROW(ResourceUsageLog::deserialize(cut), std::invalid_argument);
  }
}

TEST(ResourceLog, TracedLogsRoundTripAsV3) {
  ResourceUsageLog log;
  log.sequence = 7;
  log.weighted_instructions = 99;
  log.trace_hi = 0x1122334455667788ULL;
  log.trace_lo = 0x99aabbccddeeff00ULL;
  Bytes bytes = log.serialize();
  // Traced logs use the v3 envelope...
  const std::string magic(bytes.begin(),
                          bytes.begin() + sizeof("acctee-resource-log-v3") - 1);
  EXPECT_EQ(magic, "acctee-resource-log-v3");
  ResourceUsageLog back = ResourceUsageLog::deserialize(bytes);
  EXPECT_EQ(back, log);
  EXPECT_EQ(back.trace_hi, log.trace_hi);
  EXPECT_EQ(back.trace_lo, log.trace_lo);
}

TEST(ResourceLog, UntracedLogsKeepV2BytesExactly) {
  // A zero trace id must serialize to the exact v2 byte layout, so every
  // pre-existing signature, Merkle leaf and saved ledger stays valid.
  ResourceUsageLog log;
  log.sequence = 5;
  log.weighted_instructions = 123;
  Bytes untraced = log.serialize();
  const std::string magic(untraced.begin(),
                          untraced.begin() + sizeof("acctee-resource-log-v2") -
                              1);
  EXPECT_EQ(magic, "acctee-resource-log-v2");
  ResourceUsageLog traced = log;
  traced.trace_hi = 1;
  traced.trace_lo = 2;
  Bytes v3 = traced.serialize();
  EXPECT_EQ(v3.size(), untraced.size() + 16);
  EXPECT_EQ(ResourceUsageLog::deserialize(untraced), log);
}

TEST(ResourceLog, RejectsV3EnvelopeWithZeroTraceId) {
  // Canonical-form uniqueness: a zero trace id has exactly one encoding
  // (v2), so a v3 envelope claiming a zero id is forged bytes.
  ResourceUsageLog log;
  log.trace_hi = 0xdead;
  log.trace_lo = 0xbeef;
  Bytes bytes = log.serialize();
  // The two trace words sit just before the two flag bytes.
  for (size_t i = bytes.size() - 18; i < bytes.size() - 2; ++i) bytes[i] = 0;
  EXPECT_THROW(ResourceUsageLog::deserialize(bytes), std::invalid_argument);
}

TEST(ResourceLog, RejectsHeaderAndPassCorruption) {
  ResourceUsageLog log;
  Bytes bytes = log.serialize();
  Bytes bad_header = bytes;
  bad_header[0] ^= 0xff;  // version magic no longer matches
  EXPECT_THROW(ResourceUsageLog::deserialize(bad_header),
               std::invalid_argument);
  Bytes bad_pass = bytes;
  bad_pass[bytes.size() - (2 + 6 * 8 + 1)] = 0x7f;  // pass byte out of range
  EXPECT_THROW(ResourceUsageLog::deserialize(bad_pass),
               std::invalid_argument);
  Bytes padded = bytes;
  padded.push_back(0);  // trailing bytes change the claimed version's size
  EXPECT_THROW(ResourceUsageLog::deserialize(padded), std::invalid_argument);
}

// Logs serialized before the hash chain existed (v1: no prev_log_hash)
// still decode; the missing field reads as all-zero.
TEST(ResourceLog, DecodesV1Format) {
  ResourceUsageLog expect;
  expect.module_hash = crypto::sha256(to_bytes("module"));
  expect.weight_table_hash = crypto::sha256(to_bytes("weights"));
  expect.pass = instrument::PassKind::LoopBased;
  expect.sequence = 7;
  expect.weighted_instructions = 1234;
  expect.peak_memory_bytes = 65536;
  expect.memory_integral = 99;
  expect.io_bytes_in = 10;
  expect.io_bytes_out = 20;
  expect.trapped = false;
  expect.is_final = true;

  Bytes v1 = to_bytes("acctee-resource-log-v1");
  append(v1, BytesView(expect.module_hash.data(), expect.module_hash.size()));
  append(v1, BytesView(expect.weight_table_hash.data(),
                       expect.weight_table_hash.size()));
  v1.push_back(static_cast<uint8_t>(expect.pass));
  append_u64le(v1, expect.sequence);
  append_u64le(v1, expect.weighted_instructions);
  append_u64le(v1, expect.peak_memory_bytes);
  append_u64le(v1, expect.memory_integral);
  append_u64le(v1, expect.io_bytes_in);
  append_u64le(v1, expect.io_bytes_out);
  v1.push_back(0);
  v1.push_back(1);

  ResourceUsageLog decoded = ResourceUsageLog::deserialize(v1);
  EXPECT_EQ(decoded, expect);
  EXPECT_EQ(decoded.prev_log_hash, crypto::Digest{});
  // Re-serializing produces the v2 encoding (current version), not v1.
  EXPECT_NE(decoded.serialize(), v1);
  EXPECT_EQ(ResourceUsageLog::deserialize(decoded.serialize()), decoded);
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

TEST(Pricing, PeakPolicyBill) {
  ResourceUsageLog log;
  log.weighted_instructions = 10'000'000;  // 10 M
  log.peak_memory_bytes = 64ull << 20;     // 64 MiB
  log.io_bytes_in = 512;
  log.io_bytes_out = 512;
  PriceSchedule p;
  p.provider = "x";
  p.nanocredits_per_mega_instruction = 100;
  p.nanocredits_per_mib_peak = 10;
  p.nanocredits_per_kib_io = 3;
  Bill bill = price(log, p);
  EXPECT_EQ(bill.compute_nanocredits, 1000u);
  EXPECT_EQ(bill.memory_nanocredits, 640u);
  EXPECT_EQ(bill.io_nanocredits, 3u);
  EXPECT_EQ(bill.total(), 1643u);
}

TEST(Pricing, IntegralPolicyUsesIntegral) {
  ResourceUsageLog log;
  log.memory_integral = uint64_t{1024} * 1024 * 1'000'000 * 5;  // 5 units
  PriceSchedule p;
  p.provider = "x";
  p.memory_policy = MemoryPolicy::Integral;
  p.nanocredits_per_mib_megainstr = 7;
  Bill bill = price(log, p);
  EXPECT_EQ(bill.memory_nanocredits, 35u);
}

TEST(Pricing, PartialUnitsRoundUp) {
  ResourceUsageLog log;
  log.weighted_instructions = 1;  // far below one mega-instruction
  PriceSchedule p;
  p.provider = "x";
  p.nanocredits_per_mega_instruction = 100;
  EXPECT_EQ(price(log, p).compute_nanocredits, 1u);
}

TEST(Pricing, CompareProvidersRanksByTotal) {
  ResourceUsageLog log;
  log.weighted_instructions = 50'000'000;
  log.peak_memory_bytes = 128ull << 20;
  PriceSchedule cheap{.provider = "cheap",
                      .nanocredits_per_mega_instruction = 10,
                      .nanocredits_per_mib_peak = 1};
  PriceSchedule pricey{.provider = "pricey",
                       .nanocredits_per_mega_instruction = 90,
                       .nanocredits_per_mib_peak = 9};
  // "Cheap per hour but slow" cannot hide behind runtime-based billing:
  // instruction counts are platform independent.
  auto bills = compare_providers(log, {pricey, cheap});
  ASSERT_EQ(bills.size(), 2u);
  EXPECT_EQ(bills[0].provider, "cheap");
  EXPECT_LT(bills[0].total(), bills[1].total());
}

}  // namespace
}  // namespace acctee::core
