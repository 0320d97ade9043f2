#include "audit/trace_lookup.hpp"

#include <cstdio>

namespace acctee::audit {

std::vector<TraceMatch> find_by_trace(const std::vector<const Ledger*>& ledgers,
                                      uint64_t trace_hi, uint64_t trace_lo) {
  std::vector<TraceMatch> matches;
  if ((trace_hi | trace_lo) == 0) return matches;  // zero = "untraced"
  for (size_t li = 0; li < ledgers.size(); ++li) {
    const std::deque<LedgerEntry>& entries = ledgers[li]->entries();
    for (size_t ei = 0; ei < entries.size(); ++ei) {
      const core::ResourceUsageLog& log = entries[ei].signed_log.log;
      if (log.trace_hi == trace_hi && log.trace_lo == trace_lo) {
        matches.push_back({li, ei, entries[ei]});
      }
    }
  }
  return matches;
}

std::vector<std::pair<uint64_t, uint64_t>> distinct_trace_ids(
    const std::vector<const Ledger*>& ledgers) {
  std::vector<std::pair<uint64_t, uint64_t>> ids;
  for (const Ledger* ledger : ledgers) {
    for (const LedgerEntry& entry : ledger->entries()) {
      const core::ResourceUsageLog& log = entry.signed_log.log;
      if ((log.trace_hi | log.trace_lo) == 0) continue;
      std::pair<uint64_t, uint64_t> id{log.trace_hi, log.trace_lo};
      bool seen = false;
      for (const auto& existing : ids) {
        if (existing == id) {
          seen = true;
          break;
        }
      }
      if (!seen) ids.push_back(id);
    }
  }
  return ids;
}

std::string render_trace_matches(const std::vector<TraceMatch>& matches) {
  std::string out;
  for (const TraceMatch& m : matches) {
    const core::ResourceUsageLog& log = m.entry.signed_log.log;
    char head[96];
    std::snprintf(head, sizeof(head), "ledger %zu entry %zu: ",
                  m.ledger_index, m.entry_index);
    out += head;
    out += "tenant=" + m.entry.tenant + " function=" + m.entry.function +
           " " + log.to_string() + "\n";
  }
  return out;
}

}  // namespace acctee::audit
