#include "audit/ledger.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace acctee::audit {

namespace {

constexpr std::string_view kLedgerMagic = "acctee-audit-ledger";
constexpr uint32_t kLedgerVersion = 1;

void append_digest(Bytes& out, const crypto::Digest& d) {
  append(out, BytesView(d.data(), d.size()));
}

void append_sized(Bytes& out, BytesView data) {
  append_u32le(out, static_cast<uint32_t>(data.size()));
  append(out, data);
}

void append_string(Bytes& out, const std::string& s) {
  append_sized(out, to_bytes(s));
}

/// Sequential reader over the serialized ledger; throws on truncation.
struct Reader {
  BytesView data;
  size_t off = 0;

  BytesView take(size_t n, const char* what) {
    if (data.size() - off < n) {
      throw std::invalid_argument(std::string("Ledger: truncated ") + what);
    }
    BytesView out = data.subspan(off, n);
    off += n;
    return out;
  }
  uint32_t u32(const char* what) {
    BytesView b = take(4, what);
    return read_u32le(b, 0);
  }
  uint64_t u64(const char* what) {
    BytesView b = take(8, what);
    return read_u64le(b, 0);
  }
  crypto::Digest digest(const char* what) {
    BytesView b = take(32, what);
    crypto::Digest d;
    std::copy(b.begin(), b.end(), d.begin());
    return d;
  }
  BytesView sized(const char* what) { return take(u32(what), what); }
  std::string string(const char* what) {
    BytesView b = sized(what);
    return std::string(b.begin(), b.end());
  }
};

}  // namespace

void UsageTotals::add(const core::ResourceUsageLog& log) {
  ++final_logs;
  weighted_instructions += log.weighted_instructions;
  peak_memory_bytes += log.peak_memory_bytes;
  memory_integral += log.memory_integral;
  io_bytes_in += log.io_bytes_in;
  io_bytes_out += log.io_bytes_out;
}

Bytes Checkpoint::payload() const {
  Bytes out = to_bytes(core::kAuditCheckpointDomain);
  append_u64le(out, index);
  append_u64le(out, first_entry);
  append_u64le(out, count);
  append_digest(out, batch_root);
  append_digest(out, prev_checkpoint_hash);
  return out;
}

bool Checkpoint::verify(const crypto::Digest& ae_identity) const {
  return crypto::signature_verify(ae_identity, payload(), signature);
}

Ledger::Ledger(size_t checkpoint_every)
    : checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

void Ledger::append(LedgerEntry entry) {
  entries_.push_back(std::move(entry));
  if (signer_ && entries_.size() - covered_ >= checkpoint_every_) {
    emit_checkpoint(covered_, entries_.size() - covered_);
  }
}

void Ledger::seal() {
  if (signer_ && covered_ < entries_.size()) {
    emit_checkpoint(covered_, entries_.size() - covered_);
  }
}

void Ledger::emit_checkpoint(uint64_t first_entry, uint64_t count) {
  Checkpoint cp;
  cp.index = checkpoints_.size();
  cp.first_entry = first_entry;
  cp.count = count;
  std::vector<Bytes> leaves;
  leaves.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    leaves.push_back(entries_[first_entry + i].signed_log.log.serialize());
  }
  cp.batch_root = crypto::MerkleTree(leaves).root();
  if (!checkpoints_.empty()) {
    cp.prev_checkpoint_hash = crypto::sha256(checkpoints_.back().payload());
  }
  cp.signature = signer_(cp.payload());
  checkpoints_.push_back(std::move(cp));
  covered_ = first_entry + count;
}

std::map<std::string, UsageTotals> Ledger::totals_by_tenant() const {
  std::map<std::string, UsageTotals> totals;
  for (const LedgerEntry& entry : entries_) {
    if (!entry.signed_log.log.is_final) continue;
    totals[entry.tenant].add(entry.signed_log.log);
  }
  return totals;
}

std::map<std::string, UsageTotals> merged_totals_by_tenant(
    const std::vector<const Ledger*>& ledgers) {
  std::map<std::string, UsageTotals> merged;
  for (const Ledger* ledger : ledgers) {
    if (ledger == nullptr) continue;
    for (const LedgerEntry& entry : ledger->entries()) {
      if (!entry.signed_log.log.is_final) continue;
      merged[entry.tenant].add(entry.signed_log.log);
    }
  }
  return merged;
}

Bytes Ledger::serialize() const {
  Bytes out = to_bytes(kLedgerMagic);
  append_u32le(out, kLedgerVersion);
  append_u64le(out, checkpoint_every_);
  append_digest(out, ae_identity_);
  append_u64le(out, entries_.size());
  for (const LedgerEntry& entry : entries_) {
    append_string(out, entry.tenant);
    append_string(out, entry.function);
    append_sized(out, entry.signed_log.log.serialize());
    append_sized(out, entry.signed_log.signature.serialize());
  }
  append_u64le(out, checkpoints_.size());
  for (const Checkpoint& cp : checkpoints_) {
    append_u64le(out, cp.index);
    append_u64le(out, cp.first_entry);
    append_u64le(out, cp.count);
    append_digest(out, cp.batch_root);
    append_digest(out, cp.prev_checkpoint_hash);
    append_sized(out, cp.signature.serialize());
  }
  return out;
}

Ledger Ledger::deserialize(BytesView data) {
  Reader r{data};
  Bytes magic = to_bytes(kLedgerMagic);
  BytesView got = r.take(magic.size(), "magic");
  if (!std::equal(magic.begin(), magic.end(), got.begin())) {
    throw std::invalid_argument("Ledger: bad magic");
  }
  uint32_t version = r.u32("version");
  if (version != kLedgerVersion) {
    throw std::invalid_argument("Ledger: unsupported version " +
                                std::to_string(version));
  }
  Ledger ledger(static_cast<size_t>(r.u64("checkpoint_every")));
  ledger.ae_identity_ = r.digest("ae identity");
  uint64_t entry_count = r.u64("entry count");
  for (uint64_t i = 0; i < entry_count; ++i) {
    LedgerEntry entry;
    entry.tenant = r.string("tenant");
    entry.function = r.string("function");
    entry.signed_log.log =
        core::ResourceUsageLog::deserialize(r.sized("log"));
    entry.signed_log.signature =
        crypto::Signature::deserialize(r.sized("signature"));
    ledger.entries_.push_back(std::move(entry));
  }
  // The declared count is untrusted: cap the reserve by what the remaining
  // bytes could possibly hold (a checkpoint serializes to three u64s, two
  // digests and a length prefix), so a tiny crafted file declaring 2^60
  // checkpoints fails as truncated instead of triggering an exabyte
  // allocation.
  uint64_t checkpoint_count = r.u64("checkpoint count");
  ledger.checkpoints_.reserve(
      std::min<uint64_t>(checkpoint_count, (data.size() - r.off) / 92));
  for (uint64_t i = 0; i < checkpoint_count; ++i) {
    Checkpoint cp;
    cp.index = r.u64("checkpoint index");
    cp.first_entry = r.u64("checkpoint first");
    cp.count = r.u64("checkpoint span");
    cp.batch_root = r.digest("batch root");
    cp.prev_checkpoint_hash = r.digest("prev checkpoint hash");
    cp.signature = crypto::Signature::deserialize(r.sized("checkpoint sig"));
    ledger.checkpoints_.push_back(std::move(cp));
    ledger.covered_ = cp.first_entry + cp.count;
  }
  if (r.off != data.size()) {
    throw std::invalid_argument("Ledger: trailing bytes");
  }
  return ledger;
}

void Ledger::save(const std::string& path) const {
  Bytes data = serialize();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("Ledger: cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

Ledger Ledger::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("Ledger: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  return deserialize(Bytes(s.begin(), s.end()));
}

}  // namespace acctee::audit
