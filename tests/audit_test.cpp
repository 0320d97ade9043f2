// Trusted audit ledger tests (DESIGN.md §13): the hash-chained signed log
// ledger, its Merkle-batched checkpoints, the offline verifier's forensics
// (which interval was dropped, reordered, or forged), the per-execution
// chain check, and metrics↔ledger reconciliation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "audit/ledger.hpp"
#include "audit/reconcile.hpp"
#include "audit/verifier.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "core/session.hpp"
#include "faas/gateway.hpp"
#include "obs/metrics.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"

namespace acctee::audit {
namespace {

using interp::TypedValue;
using V = TypedValue;

/// A pure compute loop: long enough that a checkpoint_interval produces
/// several interim logs per run.
const char* kLoopWat = R"((module
  (memory 1 2)
  (func (export "run") (param i32) (result i32)
    (local $i i32) (local $acc i32)
    loop $l
      local.get $acc
      local.get $i
      i32.add
      local.set $acc
      local.get $i
      i32.const 1
      i32.add
      local.tee $i
      local.get 0
      i32.lt_s
      br_if $l
    end
    local.get $acc
  )
))";

Bytes loop_binary() {
  wasm::Module m = wasm::parse_wat(kLoopWat);
  wasm::validate(m);
  return wasm::encode(m);
}

/// IE + AE pair with interim logging on, executing the loop workload.
struct AuditWorld {
  sgx::Platform ie_platform{"audit-ie", to_bytes("audit-ie-seed")};
  sgx::Platform cloud{"audit-cloud", to_bytes("audit-cloud-seed")};
  instrument::InstrumentOptions opts{instrument::PassKind::LoopBased,
                                     instrument::WeightTable::unit()};
  core::InstrumentationEnclave ie;
  core::AccountingEnclave ae;
  core::InstrumentationEnclave::Output instrumented;

  explicit AuditWorld(uint64_t checkpoint_interval = 50'000)
      : ie(ie_platform, opts),
        ae(cloud, make_config(ie.identity(), opts, checkpoint_interval)),
        instrumented(ie.instrument_binary(loop_binary())) {}

  static core::AccountingEnclave::Config make_config(
      crypto::Digest ie_identity, const instrument::InstrumentOptions& opts,
      uint64_t checkpoint_interval) {
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie_identity;
    config.instrumentation = opts;
    config.checkpoint_interval = checkpoint_interval;
    return config;
  }

  core::AccountingEnclave::Outcome run(int32_t n = 20'000) {
    return ae.execute(instrumented.instrumented_binary, instrumented.evidence,
                      "run", {V::make_i32(n)});
  }

  /// One execution's logs in chain order: interim logs then the final log.
  std::vector<core::SignedResourceLog> run_logs(int32_t n = 20'000) {
    core::AccountingEnclave::Outcome outcome = run(n);
    std::vector<core::SignedResourceLog> logs = outcome.interim_logs;
    logs.push_back(outcome.signed_log);
    return logs;
  }

  Ledger::CheckpointSigner signer() {
    return [this](BytesView payload) { return ae.sign_checkpoint(payload); };
  }
};

Ledger make_ledger(AuditWorld& world, size_t checkpoint_every = 4) {
  Ledger ledger(checkpoint_every);
  ledger.set_ae_identity(world.ae.identity());
  ledger.set_checkpoint_signer(world.signer());
  return ledger;
}

void append_all(Ledger& ledger,
                const std::vector<core::SignedResourceLog>& logs,
                const std::string& tenant = "tenant",
                const std::string& function = "loop") {
  for (const core::SignedResourceLog& log : logs) {
    ledger.append({tenant, function, log});
  }
}

bool has_problem(const VerifyReport& report, const char* needle) {
  return std::any_of(report.problems.begin(), report.problems.end(),
                     [&](const std::string& p) {
                       return p.find(needle) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// End-to-end: gateway billing -> ledger -> offline verify + reconcile.
//
// This is the only test that records billing through a Gateway: the billing
// metrics land in the process-global registry, and the reconcile step below
// compares the ledger against that very scrape, so it must see exactly the
// tenants this test recorded.
// ---------------------------------------------------------------------------

TEST(AuditLedger, UntamperedEndToEndThroughGateway) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);

  wasm::Module module = wasm::parse_wat(kLoopWat);
  wasm::validate(module);
  faas::Gateway gateway(std::move(module), "run", faas::GatewayConfig{});
  gateway.attach_ledger(&ledger);

  // Tenant names with every character the Prometheus exposition format
  // must escape — reconciliation only works if escaping round-trips.
  const std::string weird = "we\"ird\\ten\nant";
  struct Run {
    std::string tenant;
    int executions;
  };
  std::vector<Run> runs = {{"acct-alice", 3}, {"acct-bob", 2}, {weird, 1}};
  core::SignedResourceLog last_accepted;
  for (const Run& r : runs) {
    for (int i = 0; i < r.executions; ++i) {
      core::AccountingEnclave::Outcome outcome = world.run();
      EXPECT_FALSE(outcome.signed_log.log.trapped);
      for (const core::SignedResourceLog& log : outcome.interim_logs) {
        EXPECT_TRUE(
            gateway.record_usage(r.tenant, "loop", log, world.ae.identity()));
      }
      EXPECT_TRUE(gateway.record_usage(r.tenant, "loop", outcome.signed_log,
                                       world.ae.identity()));
      last_accepted = outcome.signed_log;
    }
  }

  // A forged log is rejected and records nothing.
  size_t entries_before = ledger.entries().size();
  core::SignedResourceLog forged = world.run().signed_log;
  forged.log.weighted_instructions += 1;
  EXPECT_FALSE(
      gateway.record_usage("acct-mallory", "loop", forged, world.ae.identity()));
  EXPECT_EQ(ledger.entries().size(), entries_before);

  // Replaying an already-accepted, validly-signed log is rejected and must
  // not double-count billing — under the original tenant or any other.
  EXPECT_FALSE(gateway.record_usage(weird, "loop", last_accepted,
                                    world.ae.identity()));
  EXPECT_FALSE(gateway.record_usage("acct-mallory", "loop", last_accepted,
                                    world.ae.identity()));
  EXPECT_EQ(ledger.entries().size(), entries_before);

  ledger.seal();
  ASSERT_FALSE(ledger.checkpoints().empty());

  // Offline verification accepts the untampered ledger.
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.entries_checked, ledger.entries().size());
  EXPECT_EQ(report.checkpoints_checked, ledger.checkpoints().size());

  // Ledger totals agree with the gateway's own billing view, count only
  // final logs, and cover exactly the recorded tenants.
  std::map<std::string, UsageTotals> totals = ledger.totals_by_tenant();
  EXPECT_EQ(totals, gateway.billing_totals());
  EXPECT_EQ(totals, gateway.snapshot().billing);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals.at("acct-alice").final_logs, 3u);
  EXPECT_EQ(totals.at("acct-bob").final_logs, 2u);
  EXPECT_EQ(totals.at(weird).final_logs, 1u);
  EXPECT_EQ(totals.count("acct-mallory"), 0u);
  EXPECT_GT(totals.at("acct-alice").weighted_instructions, 0u);

  // The untrusted metrics plane agrees with the trusted one.
  ReconcileReport reconciled =
      reconcile(ledger, obs::Registry::global().prometheus(), 0.0);
  EXPECT_TRUE(reconciled.ok) << reconciled.to_string();
  EXPECT_EQ(reconciled.rows.size(), 3u * 6u);
}

// ---------------------------------------------------------------------------
// Negative forensics: the verifier names what went wrong.
// ---------------------------------------------------------------------------

TEST(AuditLedger, DetectsDroppedLogInterval) {
  AuditWorld world;
  std::vector<core::SignedResourceLog> logs = world.run_logs();
  ASSERT_GE(logs.size(), 3u);
  std::vector<core::SignedResourceLog> tampered = logs;
  tampered.erase(tampered.begin() + 1);

  Ledger ledger = make_ledger(world);
  append_all(ledger, tampered);
  ledger.seal();
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "dropped log interval"))
      << report.to_string();
}

TEST(AuditLedger, DetectsReorderedLogs) {
  AuditWorld world;
  std::vector<core::SignedResourceLog> logs = world.run_logs();
  ASSERT_GE(logs.size(), 3u);
  std::swap(logs[0], logs[1]);

  Ledger ledger = make_ledger(world);
  append_all(ledger, logs);
  ledger.seal();
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "reordered or replayed"))
      << report.to_string();
}

TEST(AuditLedger, DetectsReplayedLog) {
  AuditWorld world;
  std::vector<core::SignedResourceLog> logs = world.run_logs();
  logs.push_back(logs.back());  // provider submits the same log twice

  Ledger ledger = make_ledger(world);
  append_all(ledger, logs);
  ledger.seal();
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "reordered or replayed"))
      << report.to_string();
}

TEST(AuditLedger, DetectsBitFlippedLog) {
  AuditWorld world;
  std::vector<core::SignedResourceLog> logs = world.run_logs();
  ASSERT_GE(logs.size(), 2u);
  logs[1].log.io_bytes_in ^= 1;  // tamper content, keep the signature

  Ledger ledger = make_ledger(world);
  append_all(ledger, logs);
  ledger.seal();
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "forged or bit-flipped"))
      << report.to_string();
}

// A sealed ledger of exactly 40 single-log executions: two full groups of
// sixteen for the batched key fingerprints, and a remainder of eight.
Ledger forty_entry_ledger(AuditWorld& world) {
  Ledger ledger = make_ledger(world);
  while (ledger.entries().size() < 40) append_all(ledger, world.run_logs(100));
  ledger.seal();
  return ledger;
}

// Where entry `k`'s signature starts in ledger.serialize(), past its
// length prefix.
size_t signature_offset(const Ledger& ledger, size_t k) {
  size_t off = to_bytes("acctee-audit-ledger").size() + 4 + 8 + 32 + 8;
  for (size_t i = 0;; ++i) {
    const LedgerEntry& entry = ledger.entries()[i];
    off += 4 + entry.tenant.size() + 4 + entry.function.size() + 4 +
           entry.signed_log.log.serialize().size() + 4;
    if (i == k) return off;
    off += entry.signed_log.signature.serialize().size();
  }
}

std::string forged_entry_problem(const Ledger& ledger, size_t k) {
  return "entry " + std::to_string(k) + " (sequence " +
         std::to_string(ledger.entries()[k].signed_log.log.sequence) +
         "): signature does not verify against the AE identity (forged or "
         "bit-flipped log)";
}

TEST(AuditLedger, BatchedSignatureChecksNameEachForgedEntry) {
  AuditWorld world;
  Ledger ledger = forty_entry_ledger(world);
  ASSERT_EQ(ledger.entries().size(), 40u);
  ASSERT_TRUE(verify_ledger(ledger, world.ae.identity()).ok);
  const Bytes bytes = ledger.serialize();

  // One byte of the one-time public key: lane 0 and lane 15 of the first
  // group, the first lane of the second, and the remainder. The byte is in
  // the slot the Lamport check does not consult for bit 0, so only the
  // batched fingerprint can catch it.
  for (size_t k : {0ul, 15ul, 16ul, 39ul}) {
    crypto::Digest md =
        crypto::sha256(ledger.entries()[k].signed_log.log.serialize());
    size_t unused_slot = 1 - (md[0] >> 7);
    Bytes tampered = bytes;
    tampered[signature_offset(ledger, k) + 8 + 32 * unused_slot + 5] ^= 0x01;
    VerifyReport report =
        verify_ledger(Ledger::deserialize(tampered), world.ae.identity());
    EXPECT_EQ(report.problems,
              std::vector<std::string>{forged_entry_problem(ledger, k)})
        << "entry " << k << "\n"
        << report.to_string();
  }

  // One revealed preimage of entry 7: past the key index, the public key,
  // the proof and the Lamport part's length prefix.
  const crypto::Signature& sig = ledger.entries()[7].signed_log.signature;
  size_t revealed = signature_offset(ledger, 7) + 4 + 4 +
                    sig.one_time_key.serialize().size() + 4 +
                    sig.inclusion.serialize().size() + 4;
  Bytes tampered = bytes;
  tampered[revealed + 32 * 100 + 3] ^= 0x80;
  VerifyReport report =
      verify_ledger(Ledger::deserialize(tampered), world.ae.identity());
  EXPECT_EQ(report.problems,
            std::vector<std::string>{forged_entry_problem(ledger, 7)})
      << report.to_string();
}

TEST(AuditLedger, BatchedVerdictsEqualOneAtATime) {
  AuditWorld world;
  Ledger ledger = forty_entry_ledger(world);
  std::vector<Bytes> messages;
  std::vector<crypto::Signature> sigs;
  for (const LedgerEntry& entry : ledger.entries()) {
    messages.push_back(entry.signed_log.log.serialize());
    sigs.push_back(entry.signed_log.signature);
  }
  // Forgeries of every kind, spread over both lane groups and the
  // remainder.
  sigs[2].one_time_key.hashes[5][0] ^= 1;   // key off its Merkle leaf
  sigs[9].lamport.revealed[200][31] ^= 1;   // wrong preimage
  sigs[17].key_index += 1;                  // index not the proof's
  sigs[21].inclusion.siblings[0][0] ^= 1;   // broken inclusion proof
  messages[30].push_back(0);                // message not the signed one
  sigs[38] = sigs[37];                      // another entry's signature
  std::vector<BytesView> views(messages.begin(), messages.end());
  std::vector<const crypto::Signature*> pointers;
  for (const crypto::Signature& sig : sigs) pointers.push_back(&sig);

  std::vector<bool> many =
      crypto::signature_verify_many(world.ae.identity(), views, pointers);
  ASSERT_EQ(many.size(), sigs.size());
  size_t valid = 0;
  for (size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(many[i], crypto::signature_verify(world.ae.identity(),
                                                messages[i], sigs[i]))
        << "entry " << i;
    valid += many[i];
  }
  EXPECT_EQ(valid, sigs.size() - 6);
  EXPECT_TRUE(crypto::signature_verify_many(world.ae.identity(), {}, {})
                  .empty());
  EXPECT_THROW(crypto::signature_verify_many(
                   world.ae.identity(), std::span(views).first(2),
                   std::span(pointers).first(1)),
               std::invalid_argument);
}

TEST(AuditLedger, DetectsWrongIdentity) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  ledger.seal();
  crypto::Digest wrong = crypto::sha256(to_bytes("not the AE"));
  VerifyReport report = verify_ledger(ledger, wrong);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "signature does not verify"))
      << report.to_string();
}

TEST(AuditLedger, DetectsTamperedCheckpointSignature) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  ledger.seal();

  // The file's final bytes are the last checkpoint's signature: flip one.
  Bytes bytes = ledger.serialize();
  bytes.back() ^= 0x01;
  Ledger tampered = Ledger::deserialize(bytes);
  VerifyReport report = verify_ledger(tampered, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "signature does not verify"))
      << report.to_string();
}

TEST(AuditLedger, RejectsOverflowingCheckpointBounds) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  ledger.seal();
  ASSERT_FALSE(ledger.checkpoints().empty());

  // Patch the last checkpoint's first_entry to UINT64_MAX in the serialized
  // file: first_entry + count wraps to a small value, so a naive bounds
  // check passes and the verifier reads entries far out of bounds. The last
  // checkpoint record is the file's tail — signature, prev hash, root,
  // count, first_entry, index, back to front.
  Bytes bytes = ledger.serialize();
  size_t sig_size = ledger.checkpoints().back().signature.serialize().size();
  size_t first_entry_off = bytes.size() - (4 + sig_size) - 32 - 32 - 8 - 8;
  for (size_t i = 0; i < 8; ++i) bytes[first_entry_off + i] = 0xff;
  Ledger tampered = Ledger::deserialize(bytes);
  ASSERT_EQ(tampered.checkpoints().back().first_entry, UINT64_MAX);
  VerifyReport report = verify_ledger(tampered, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "beyond the ledger")) << report.to_string();
}

TEST(AuditLedger, DeserializeRejectsHugeDeclaredCounts) {
  // A tiny crafted file declaring 2^60 entries must fail as truncated
  // instead of attempting a multi-exabyte reserve.
  Bytes bytes = to_bytes("acctee-audit-ledger");
  append_u32le(bytes, 1);                      // version
  append_u64le(bytes, 4);                      // checkpoint_every
  bytes.insert(bytes.end(), 32, 0);            // ae identity
  append_u64le(bytes, uint64_t{1} << 60);      // entry count
  EXPECT_THROW(Ledger::deserialize(bytes), std::invalid_argument);
}

TEST(AuditLedger, ReportsUncoveredTail) {
  AuditWorld world;
  Ledger ledger(4);  // no signer: appends accumulate, no checkpoints
  ledger.set_ae_identity(world.ae.identity());
  append_all(ledger, world.run_logs());
  ledger.seal();
  EXPECT_TRUE(ledger.checkpoints().empty());
  VerifyReport report = verify_ledger(ledger, world.ae.identity());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "not covered by any signed checkpoint"))
      << report.to_string();
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(AuditLedger, SaveLoadRoundTrip) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  append_all(ledger, world.run_logs());  // chain continues across executions
  ledger.seal();

  const std::string path = "audit_test_ledger.bin";
  ledger.save(path);
  Ledger loaded = Ledger::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.serialize(), ledger.serialize());
  EXPECT_EQ(loaded.ae_identity(), world.ae.identity());
  EXPECT_EQ(loaded.entries().size(), ledger.entries().size());
  EXPECT_EQ(loaded.totals_by_tenant(), ledger.totals_by_tenant());
  VerifyReport report = verify_ledger(loaded, world.ae.identity());
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(AuditLedger, DeserializeRejectsCorruptFiles) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  ledger.seal();
  Bytes bytes = ledger.serialize();

  EXPECT_THROW(Ledger::deserialize(to_bytes("not a ledger")),
               std::invalid_argument);
  Bytes truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(Ledger::deserialize(truncated), std::invalid_argument);
  Bytes padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(Ledger::deserialize(padded), std::invalid_argument);
  Bytes bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(Ledger::deserialize(bad_magic), std::invalid_argument);

  // Junk inside entry 1's signature blob, its length prefix grown to
  // match: the file's framing is intact, the signature's is not.
  size_t sig_off = signature_offset(ledger, 1);
  size_t sig_size = ledger.entries()[1].signed_log.signature.serialize().size();
  Bytes junk_in_signature(bytes.begin(), bytes.begin() + sig_off - 4);
  append_u32le(junk_in_signature, static_cast<uint32_t>(sig_size + 2));
  junk_in_signature.insert(junk_in_signature.end(), bytes.begin() + sig_off,
                           bytes.begin() + sig_off + sig_size);
  junk_in_signature.push_back(0xde);
  junk_in_signature.push_back(0xad);
  junk_in_signature.insert(junk_in_signature.end(),
                           bytes.begin() + sig_off + sig_size, bytes.end());
  EXPECT_THROW(Ledger::deserialize(junk_in_signature), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-execution chain check (customer side, session layer)
// ---------------------------------------------------------------------------

TEST(OutcomeChain, CustomerVerifiesAndRejectsTampering) {
  sgx::Platform ie_platform{"chain-ie", to_bytes("chain-ie-seed")};
  sgx::Platform provider_platform{"chain-provider",
                                  to_bytes("chain-provider-seed")};
  sgx::AttestationService ias(to_bytes("chain-ias-root"), 128);
  ias.provision_platform(ie_platform);
  ias.provision_platform(provider_platform);

  core::SessionPolicy policy;
  policy.instrumentation.pass = instrument::PassKind::LoopBased;
  policy.platform = interp::Platform::WasmSgxSim;
  policy.checkpoint_interval = 50'000;

  core::InstrumentationEnclave ie(ie_platform, policy.instrumentation);
  core::WorkloadProvider customer(loop_binary(), policy, ias.identity());
  core::PriceSchedule prices;
  prices.provider = "chain-cloud";
  core::InfrastructureProvider provider(provider_platform, policy,
                                        ias.identity(), prices);
  customer.instrument_with(ie, ias);
  provider.trust_instrumentation_enclave(ie.identity_quote(), ias);
  customer.attest_accounting_enclave(provider.accounting_enclave_quote(), ias);

  auto billed = provider.run(customer.instrumented_binary(),
                             customer.evidence(), "run", {V::make_i32(20'000)});
  const auto& interim = billed.outcome.interim_logs;
  const auto& final_log = billed.outcome.signed_log;
  ASSERT_GE(interim.size(), 2u);

  EXPECT_TRUE(customer.verify_outcome_chain(interim, final_log));

  // A host that silently drops one in-flight interim log is caught, even
  // though every surviving log still signature-verifies.
  std::vector<core::SignedResourceLog> dropped = interim;
  dropped.erase(dropped.begin() + 1);
  EXPECT_FALSE(customer.verify_outcome_chain(dropped, final_log));

  // Reordering is caught.
  std::vector<core::SignedResourceLog> swapped = interim;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(customer.verify_outcome_chain(swapped, final_log));

  // A bit-flipped interim log is caught.
  std::vector<core::SignedResourceLog> flipped = interim;
  flipped[0].log.weighted_instructions ^= 1;
  EXPECT_FALSE(customer.verify_outcome_chain(flipped, final_log));
}

// ---------------------------------------------------------------------------
// Reconciliation against synthetic scrapes (pure parsing/compare logic)
// ---------------------------------------------------------------------------

/// A ledger with one final log with hand-picked totals; no signatures
/// needed — reconcile compares totals, it does not verify (that is
/// verify_ledger's job).
Ledger synthetic_ledger(const std::string& tenant) {
  Ledger ledger(4);
  core::SignedResourceLog slog;
  slog.log.is_final = true;
  slog.log.weighted_instructions = 1000;
  slog.log.peak_memory_bytes = 4096;
  slog.log.memory_integral = 8192;
  slog.log.io_bytes_in = 10;
  slog.log.io_bytes_out = 20;
  ledger.append({tenant, "fn", slog});
  return ledger;
}

std::string synthetic_scrape(const std::string& escaped_tenant,
                             uint64_t weighted_instructions,
                             const std::string& gateway = "7") {
  std::string l = "{gateway=\"" + gateway + "\",tenant=\"" + escaped_tenant +
                  "\",function=\"fn\"} ";
  return "# HELP acctee_billing_logs_total verified final logs\n"
         "acctee_billing_logs_total" + l + "1\n"
         "acctee_billing_weighted_instructions_total" + l +
         std::to_string(weighted_instructions) + "\n"
         "acctee_billing_peak_memory_bytes_total" + l + "4096\n"
         "acctee_billing_memory_integral_total" + l + "8192\n"
         "acctee_billing_io_bytes_in_total" + l + "10\n"
         "acctee_billing_io_bytes_out_total" + l + "20\n";
}

TEST(Reconcile, AgreesOnMatchingTotals) {
  Ledger ledger = synthetic_ledger("t");
  ReconcileReport report = reconcile(ledger, synthetic_scrape("t", 1000));
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.rows.size(), 6u);
}

TEST(Reconcile, FlagsDivergenceAndHonorsTolerance) {
  Ledger ledger = synthetic_ledger("t");
  // Metrics claim 10% more weighted instructions than the ledger.
  std::string scrape = synthetic_scrape("t", 1100);
  ReconcileReport strict = reconcile(ledger, scrape, 0.0);
  EXPECT_FALSE(strict.ok);
  size_t diverged = 0;
  for (const ReconcileRow& row : strict.rows) {
    if (!row.ok) {
      ++diverged;
      EXPECT_EQ(row.dimension, "weighted_instructions");
      EXPECT_EQ(row.ledger_value, 1000u);
      EXPECT_EQ(row.metrics_value, 1100u);
    }
  }
  EXPECT_EQ(diverged, 1u);
  EXPECT_TRUE(reconcile(ledger, scrape, 0.15).ok);
}

TEST(Reconcile, FlagsTenantsPresentInOnlyOnePlane) {
  Ledger ledger = synthetic_ledger("in-ledger-only");
  ReconcileReport report =
      reconcile(ledger, synthetic_scrape("in-metrics-only", 1000));
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.problems.size(), 2u);
  EXPECT_NE(report.problems[0].find("in-metrics-only"), std::string::npos);
  EXPECT_NE(report.problems[1].find("in-ledger-only"), std::string::npos);
}

TEST(Reconcile, UnescapesPrometheusLabelValues) {
  // The scrape carries tenant we"ird\ten<newline>ant, escaped per the
  // exposition format as \" \\ \n.
  const std::string raw = "we\"ird\\ten\nant";
  const std::string escaped = "we\\\"ird\\\\ten\\nant";
  std::map<std::string, UsageTotals> totals =
      billing_totals_from_scrape(synthetic_scrape(escaped, 1000));
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals.begin()->first, raw);
  EXPECT_EQ(totals.begin()->second.weighted_instructions, 1000u);

  Ledger ledger = synthetic_ledger(raw);
  EXPECT_TRUE(reconcile(ledger, synthetic_scrape(escaped, 1000)).ok);
}

// ---------------------------------------------------------------------------
// Ledger sets (DESIGN.md §16): one hash chain per worker AE, verified and
// merged as a set.
// ---------------------------------------------------------------------------

bool has_problem(const LedgerSetReport& report, const char* needle) {
  return std::any_of(report.problems.begin(), report.problems.end(),
                     [&](const std::string& p) {
                       return p.find(needle) != std::string::npos;
                     });
}

/// A second AE on its own platform (distinct seed => distinct signer
/// identity), trusting the same IE as `world`.
struct SecondAe {
  sgx::Platform cloud{"audit-cloud-2", to_bytes("audit-cloud-2-seed")};
  core::AccountingEnclave ae;

  explicit SecondAe(AuditWorld& world)
      : ae(cloud, AuditWorld::make_config(world.ie.identity(), world.opts,
                                          50'000)) {}

  std::vector<core::SignedResourceLog> run_logs(AuditWorld& world,
                                                int32_t n = 20'000) {
    core::AccountingEnclave::Outcome outcome =
        ae.execute(world.instrumented.instrumented_binary,
                   world.instrumented.evidence, "run", {V::make_i32(n)});
    std::vector<core::SignedResourceLog> logs = outcome.interim_logs;
    logs.push_back(outcome.signed_log);
    return logs;
  }
};

TEST(LedgerSet, VerifiesDistinctAeChainsAndMergesTotals) {
  AuditWorld world;
  SecondAe second(world);
  ASSERT_NE(world.ae.identity(), second.ae.identity());

  // AE 1's chain bills alice twice; AE 2's chain bills alice and bob once
  // each — the sharded gateway's picture where one tenant's requests land on
  // several workers.
  Ledger l1 = make_ledger(world);
  append_all(l1, world.run_logs(), "alice");
  append_all(l1, world.run_logs(), "alice");
  l1.seal();

  Ledger l2(4);
  l2.set_ae_identity(second.ae.identity());
  l2.set_checkpoint_signer(
      [&](BytesView payload) { return second.ae.sign_checkpoint(payload); });
  append_all(l2, second.run_logs(world), "alice");
  append_all(l2, second.run_logs(world), "bob");
  l2.seal();

  LedgerSetReport report = verify_ledger_set(
      {&l1, &l2}, {world.ae.identity(), second.ae.identity()});
  EXPECT_TRUE(report.ok) << report.to_string();
  ASSERT_EQ(report.per_ledger.size(), 2u);
  EXPECT_TRUE(report.per_ledger[0].ok);
  EXPECT_TRUE(report.per_ledger[1].ok);

  // The merge is the per-tenant sum over all final logs in the set, and
  // matches the standalone merge helper (which is what reconcile_set uses).
  EXPECT_EQ(report.merged_totals, merged_totals_by_tenant({&l1, &l2}));
  ASSERT_EQ(report.merged_totals.size(), 2u);
  EXPECT_EQ(report.merged_totals.at("alice").final_logs, 3u);
  EXPECT_EQ(report.merged_totals.at("bob").final_logs, 1u);
  EXPECT_EQ(report.merged_totals.at("alice").weighted_instructions,
            l1.totals_by_tenant().at("alice").weighted_instructions +
                l2.totals_by_tenant().at("alice").weighted_instructions);

  // Falling back to the ledgers' recorded identities verifies too.
  EXPECT_TRUE(verify_ledger_set({&l1, &l2}).ok);
}

TEST(LedgerSet, RejectsAliasedAeIdentities) {
  // Two "different" AEs on one platform seed are the SAME signer identity;
  // each chain is internally consistent (sequences 0..n), so per-ledger
  // verification passes — only the set view can see that the pair aliases
  // one sequence space and could hide a replay.
  AuditWorld a;
  AuditWorld b;
  ASSERT_EQ(a.ae.identity(), b.ae.identity());

  Ledger la = make_ledger(a);
  append_all(la, a.run_logs(), "alice");
  la.seal();
  Ledger lb = make_ledger(b);
  append_all(lb, b.run_logs(), "alice");
  lb.seal();

  LedgerSetReport report = verify_ledger_set({&la, &lb});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.per_ledger[0].ok);  // each chain alone looks fine
  EXPECT_TRUE(report.per_ledger[1].ok);
  EXPECT_TRUE(has_problem(report, "same AE identity")) << report.to_string();
  EXPECT_TRUE(report.merged_totals.empty());  // no totals from a bad set
}

TEST(LedgerSet, RejectsIdentityCountMismatch) {
  AuditWorld world;
  Ledger ledger = make_ledger(world);
  append_all(ledger, world.run_logs());
  ledger.seal();
  crypto::Digest id = world.ae.identity();
  LedgerSetReport report = verify_ledger_set({&ledger}, {id, id});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_problem(report, "pinned AE identities"))
      << report.to_string();
}

TEST(ReconcileSet, MergedLedgersAgainstScrape) {
  // Two per-worker ledgers billing the same tenant, scraped as two gateway
  // label splits: reconcile_set must compare the per-tenant SUM on both
  // sides (billing_totals_from_scrape already sums across label splits).
  Ledger l1 = synthetic_ledger("t");
  Ledger l2 = synthetic_ledger("t");
  std::string scrape =
      synthetic_scrape("t", 1000, "s0") + synthetic_scrape("t", 1000, "s1");
  ReconcileReport both = reconcile_set({&l1, &l2}, scrape);
  EXPECT_TRUE(both.ok) << both.to_string();
  EXPECT_EQ(both.rows.size(), 6u);

  // One ledger against the two-split scrape diverges (scrape counts double).
  EXPECT_FALSE(reconcile_set({&l1}, scrape).ok);
}

}  // namespace
}  // namespace acctee::audit
