// Trusted audit ledger (DESIGN.md §13): the append-only record of every
// signed resource usage log an accounting enclave emitted, plus periodic
// Merkle-batched checkpoints the AE signs once per batch.
//
// Individual logs already chain via prev_log_hash (resource_log.hpp), so a
// dropped or reordered log is detectable; checkpoints add (1) one AE
// signature amortised over `checkpoint_every` logs — at gateway throughput
// the per-log Lamport signature is the expensive part — and (2) a commitment
// an auditor can check without trusting whoever stored the file. The ledger
// itself is *untrusted storage*: everything audit::verify_ledger proves is
// rooted in the AE identity obtained via attestation, never in this file.
//
// Not thread-safe: callers serialise access (faas::Gateway appends under its
// billing mutex).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/resource_log.hpp"
#include "crypto/merkle.hpp"

namespace acctee::audit {

/// One appended log with its billing labels (who pays, for what).
struct LedgerEntry {
  std::string tenant;
  std::string function;
  core::SignedResourceLog signed_log;
};

/// A signed commitment to a contiguous batch of ledger entries.
struct Checkpoint {
  uint64_t index = 0;        // checkpoint number (0, 1, ...)
  uint64_t first_entry = 0;  // ledger index of the first covered entry
  uint64_t count = 0;        // entries covered
  crypto::Digest batch_root{};            // Merkle root over the batch
  crypto::Digest prev_checkpoint_hash{};  // sha256(previous payload); 0 first
  crypto::Signature signature;            // AE signature over payload()

  /// Canonical bytes the AE signs, prefixed with
  /// core::kAuditCheckpointDomain (domain-separated from resource logs).
  Bytes payload() const;
  bool verify(const crypto::Digest& ae_identity) const;
};

/// Per-tenant resource totals summed over *final* logs (interim logs are
/// cumulative snapshots of the same run and must not be double-billed).
struct UsageTotals {
  uint64_t final_logs = 0;
  uint64_t weighted_instructions = 0;
  uint64_t peak_memory_bytes = 0;  // sum of per-execution peaks
  uint64_t memory_integral = 0;
  uint64_t io_bytes_in = 0;
  uint64_t io_bytes_out = 0;

  void add(const core::ResourceUsageLog& log);
  bool operator==(const UsageTotals&) const = default;
};

class Ledger {
 public:
  /// Signs a checkpoint payload with the AE identity (wraps
  /// AccountingEnclave::sign_checkpoint; a std::function so the audit layer
  /// never needs the enclave type).
  using CheckpointSigner = std::function<crypto::Signature(BytesView)>;

  explicit Ledger(size_t checkpoint_every = 64);

  /// The AE identity the logs claim to be signed under. Recorded for
  /// convenience (offline verification needs *some* identity to start
  /// from); an auditor who attested the AE passes their own pinned identity
  /// to verify_ledger instead of trusting this field.
  void set_ae_identity(const crypto::Digest& identity) {
    ae_identity_ = identity;
  }
  const crypto::Digest& ae_identity() const { return ae_identity_; }

  /// Without a signer, appends accumulate but no checkpoints are emitted.
  void set_checkpoint_signer(CheckpointSigner signer) {
    signer_ = std::move(signer);
  }

  /// Appends one signed log; emits a signed checkpoint once
  /// `checkpoint_every` entries have accumulated since the last one.
  void append(LedgerEntry entry);

  /// Emits a final checkpoint over any trailing uncovered entries (no-op if
  /// everything is covered or no signer is set).
  void seal();

  const std::deque<LedgerEntry>& entries() const { return entries_; }
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }
  size_t checkpoint_every() const { return checkpoint_every_; }

  /// Per-tenant totals over final logs (what a bill would be computed
  /// from). Meaningful for trust only after verify_ledger passes.
  std::map<std::string, UsageTotals> totals_by_tenant() const;

  /// Ledger file format (magic + version + AE identity + entries +
  /// checkpoints, all length-prefixed little-endian).
  Bytes serialize() const;
  static Ledger deserialize(BytesView data);
  void save(const std::string& path) const;
  static Ledger load(const std::string& path);

 private:
  void emit_checkpoint(uint64_t first_entry, uint64_t count);

  size_t checkpoint_every_;
  crypto::Digest ae_identity_{};
  CheckpointSigner signer_;
  // A deque, so an append never relocates the entries already held (each
  // carries a ~25 KB Lamport key and signature inline).
  std::deque<LedgerEntry> entries_;
  std::vector<Checkpoint> checkpoints_;
  uint64_t covered_ = 0;  // entries committed by checkpoints so far
};

/// Deterministic merge of per-tenant totals across a set of ledgers (the
/// sharded gateway emits one hash chain per worker AE). Summation over u64
/// is commutative and associative, so the result is independent of ledger
/// order — two auditors merging the same chains in different orders agree
/// bit for bit.
std::map<std::string, UsageTotals> merged_totals_by_tenant(
    const std::vector<const Ledger*>& ledgers);

}  // namespace acctee::audit
