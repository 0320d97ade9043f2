#include "cachesim/cache.hpp"

#include <stdexcept>

namespace acctee::cachesim {

namespace {
bool is_pow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (!is_pow2(config.line_bytes) || config.associativity == 0 ||
      config.size_bytes % (config.line_bytes * config.associativity) != 0) {
    throw std::invalid_argument("Cache: bad geometry");
  }
  num_sets_ = static_cast<uint32_t>(
      config.size_bytes / (config.line_bytes * config.associativity));
  if (!is_pow2(num_sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  ways_.resize(static_cast<size_t>(num_sets_) * config.associativity *
               sizeof(Way));
}

bool Cache::access(uint64_t line_addr) {
  uint64_t line = line_addr / config_.line_bytes;
  uint32_t set = static_cast<uint32_t>(line & (num_sets_ - 1));
  uint64_t tag = line;  // full line id; sets are disjoint so this is safe
  Way* begin = reinterpret_cast<Way*>(ways_.data()) +
               static_cast<size_t>(set) * config_.associativity;
  ++stamp_;

  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (begin[w].epoch == epoch_ && begin[w].tag == tag) {
      begin[w].lru = stamp_;
      ++hits_;
      return true;
    }
  }
  // Miss: install into an invalid way, else the least-recently-used one.
  Way* victim = begin;
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    Way& way = begin[w];
    if (way.epoch != epoch_) {
      victim = &way;
      break;
    }
    if (way.lru < victim->lru) victim = &way;
  }
  victim->epoch = epoch_;
  victim->tag = tag;
  victim->lru = stamp_;
  ++misses_;
  return false;
}

void Cache::flush() { ++epoch_; }

void Cache::reset() {
  ++epoch_;
  stamp_ = 0;
  hits_ = 0;
  misses_ = 0;
}

Hierarchy::Hierarchy(const Config& config)
    : config_(config), l1_(config.l1), l2_(config.l2), l3_(config.l3) {}

AccessResult Hierarchy::access(uint64_t addr, uint32_t size, bool is_write) {
  AccessResult result;
  uint32_t line = config_.l1.line_bytes;
  uint64_t first_line = addr / line;
  uint64_t last_line = (addr + (size == 0 ? 0 : size - 1)) / line;
  for (uint64_t l = first_line; l <= last_line; ++l) {
    ++accesses_;
    uint64_t line_addr = l * line;
    bool sequential = has_last_line_ && l == last_line_ + 1;
    has_last_line_ = true;
    last_line_ = l;
    if (l1_.access(line_addr)) {
      result.cycles += config_.l1.hit_cycles;
      continue;
    }
    if (l2_.access(line_addr)) {
      result.cycles += config_.l2.hit_cycles;
      continue;
    }
    if (l3_.access(line_addr)) {
      result.cycles += config_.l3.hit_cycles;
      continue;
    }
    if (sequential) {
      // The stream prefetcher already fetched this line; the latency is
      // hidden, but the traffic (MEE decryption, EPC paging) is not.
      result.cycles += config_.prefetched_miss_cycles;
    } else {
      result.cycles += config_.dram_cycles;
      if (is_write) result.cycles += config_.store_miss_extra;
    }
    result.llc_miss = true;
    ++llc_misses_;
  }
  return result;
}

void Hierarchy::flush() {
  l1_.flush();
  l2_.flush();
  l3_.flush();
}

void Hierarchy::reset() {
  l1_.reset();
  l2_.reset();
  l3_.reset();
  llc_misses_ = 0;
  accesses_ = 0;
  last_line_ = 0;
  has_last_line_ = false;
}

}  // namespace acctee::cachesim
