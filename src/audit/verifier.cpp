#include "audit/verifier.hpp"

#include <cstdint>
#include <span>
#include <sstream>

namespace acctee::audit {

namespace {

std::string interval(uint64_t lo, uint64_t hi) {
  return lo == hi ? std::to_string(lo)
                  : std::to_string(lo) + ".." + std::to_string(hi);
}

// The ledger file is untrusted: checkpoint fields can be arbitrary u64s,
// so range arithmetic must not wrap.
uint64_t sat_add(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

}  // namespace

std::string VerifyReport::to_string() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAILED") << ": " << entries_checked << " entries, "
      << checkpoints_checked << " checkpoints";
  if (entries_checked > 0) {
    out << ", sequences " << first_sequence << ".." << last_sequence;
  }
  out << "\n";
  for (const std::string& p : problems) out << "  problem: " << p << "\n";
  return out.str();
}

VerifyReport verify_ledger(const Ledger& ledger,
                           const crypto::Digest& ae_identity) {
  VerifyReport report;
  const std::deque<LedgerEntry>& entries = ledger.entries();
  auto problem = [&](std::string text) {
    report.problems.push_back(std::move(text));
  };

  // Each log's canonical bytes are its signed message, the next entry's
  // prev_log_hash preimage and its checkpoint leaf: serialize once.
  std::vector<Bytes> serialized;
  serialized.reserve(entries.size());
  std::vector<BytesView> messages;
  messages.reserve(entries.size());
  std::vector<const crypto::Signature*> signatures;
  signatures.reserve(entries.size());
  for (const LedgerEntry& entry : entries) {
    serialized.push_back(entry.signed_log.log.serialize());
    messages.push_back(serialized.back());
    signatures.push_back(&entry.signed_log.signature);
  }
  // One batch, so the one-time keys' fingerprints hash sixteen at a time.
  std::vector<bool> signature_ok =
      crypto::signature_verify_many(ae_identity, messages, signatures);

  // 1-3. Per-entry signatures, sequence continuity, hash chain.
  for (size_t i = 0; i < entries.size(); ++i) {
    const core::SignedResourceLog& slog = entries[i].signed_log;
    ++report.entries_checked;
    if (!signature_ok[i]) {
      problem("entry " + std::to_string(i) + " (sequence " +
              std::to_string(slog.log.sequence) +
              "): signature does not verify against the AE identity "
              "(forged or bit-flipped log)");
    }
    if (i == 0) {
      report.first_sequence = slog.log.sequence;
    } else {
      const core::ResourceUsageLog& prev = entries[i - 1].signed_log.log;
      const core::ResourceUsageLog& cur = slog.log;
      if (cur.sequence <= prev.sequence) {
        problem("entries " + interval(i - 1, i) + ": sequence went " +
                std::to_string(prev.sequence) + " -> " +
                std::to_string(cur.sequence) + " (reordered or replayed log)");
      } else if (cur.sequence != prev.sequence + 1) {
        problem("entries " + interval(i - 1, i) + ": sequences " +
                interval(prev.sequence + 1, cur.sequence - 1) +
                " missing (dropped log interval)");
      }
      if (cur.prev_log_hash != crypto::sha256(serialized[i - 1])) {
        problem("entry " + std::to_string(i) + " (sequence " +
                std::to_string(cur.sequence) +
                "): prev_log_hash does not match entry " +
                std::to_string(i - 1) + " (chain break)");
      }
    }
    report.last_sequence = slog.log.sequence;
  }

  // 4. Checkpoints: signatures, recomputed roots, inclusion proofs,
  // contiguous coverage, checkpoint hash chain.
  uint64_t covered = 0;
  crypto::Digest prev_cp_hash{};
  const std::vector<Checkpoint>& checkpoints = ledger.checkpoints();
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    const Checkpoint& cp = checkpoints[c];
    ++report.checkpoints_checked;
    std::string tag = "checkpoint " + std::to_string(c);
    if (cp.index != c) {
      problem(tag + ": index " + std::to_string(cp.index) +
              " out of order (expected " + std::to_string(c) + ")");
    }
    if (cp.first_entry != covered) {
      problem(tag + ": covers entries from " + std::to_string(cp.first_entry) +
              " but coverage ends at " + std::to_string(covered) +
              " (gap or overlap in committed batches)");
    }
    if (cp.count == 0 || cp.count > entries.size() ||
        cp.first_entry > entries.size() - cp.count) {
      problem(tag + ": covers entries " +
              interval(cp.first_entry, sat_add(cp.first_entry, cp.count)) +
              " beyond the ledger's " + std::to_string(entries.size()));
      covered = sat_add(cp.first_entry, cp.count);
      continue;
    }
    if (cp.prev_checkpoint_hash != prev_cp_hash) {
      problem(tag + ": prev_checkpoint_hash broken (checkpoint chain)");
    }
    if (!cp.verify(ae_identity)) {
      problem(tag + ": signature does not verify against the AE identity");
    }
    std::span<const Bytes> leaves =
        std::span<const Bytes>(serialized).subspan(cp.first_entry, cp.count);
    crypto::MerkleTree tree(leaves);
    if (tree.root() != cp.batch_root) {
      problem(tag + ": Merkle root mismatch over entries " +
              interval(cp.first_entry, cp.first_entry + cp.count - 1) +
              " (a committed log was altered after signing)");
    } else {
      for (uint64_t i = 0; i < cp.count; ++i) {
        if (!crypto::merkle_verify(cp.batch_root, leaves[i], tree.prove(i))) {
          problem(tag + ": inclusion proof failed for entry " +
                  std::to_string(cp.first_entry + i));
        }
      }
    }
    prev_cp_hash = crypto::sha256(cp.payload());
    covered = cp.first_entry + cp.count;
  }

  // 5. Nothing may escape commitment in a sealed ledger.
  if (covered < entries.size()) {
    problem("entries " + interval(covered, entries.size() - 1) +
            " are not covered by any signed checkpoint");
  }

  report.ok = report.problems.empty();
  return report;
}

std::string LedgerSetReport::to_string() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAILED") << ": ledger set of " << per_ledger.size()
      << "\n";
  for (const std::string& p : problems) out << "  problem: " << p << "\n";
  for (size_t i = 0; i < per_ledger.size(); ++i) {
    out << "ledger " << i << ": " << per_ledger[i].to_string();
  }
  return out.str();
}

LedgerSetReport verify_ledger_set(
    const std::vector<const Ledger*>& ledgers,
    const std::vector<crypto::Digest>& ae_identities) {
  LedgerSetReport report;
  if (!ae_identities.empty() && ae_identities.size() != ledgers.size()) {
    report.problems.push_back(
        std::to_string(ledgers.size()) + " ledgers but " +
        std::to_string(ae_identities.size()) + " pinned AE identities");
    return report;
  }

  bool all_ok = true;
  std::map<crypto::Digest, size_t> seen_identity;
  for (size_t i = 0; i < ledgers.size(); ++i) {
    const Ledger& ledger = *ledgers[i];
    const crypto::Digest& identity =
        ae_identities.empty() ? ledger.ae_identity() : ae_identities[i];
    // One AE = one sequence space = one chain. A second ledger under the
    // same identity would let its sequences alias the first chain's — the
    // per-ledger continuity check cannot see that, so it is a set-level
    // reject even if both chains verify individually.
    auto [it, fresh] = seen_identity.try_emplace(identity, i);
    if (!fresh) {
      report.problems.push_back(
          "ledgers " + std::to_string(it->second) + " and " +
          std::to_string(i) +
          " claim the same AE identity (aliased sequence spaces)");
      all_ok = false;
    }
    report.per_ledger.push_back(verify_ledger(ledger, identity));
    all_ok = all_ok && report.per_ledger.back().ok;
  }
  report.ok = all_ok && report.problems.empty();
  if (report.ok) report.merged_totals = merged_totals_by_tenant(ledgers);
  return report;
}

}  // namespace acctee::audit
