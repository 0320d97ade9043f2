// Set-associative cache hierarchy simulator.
//
// The interpreter charges simulated cycles for each Wasm load/store through
// this model, which is what makes the paper's memory-cost experiments
// reproducible without real hardware: linear access patterns hit in L1,
// random accesses over growing footprints degrade through L2/L3 to DRAM,
// producing the Fig. 8 curve family. The last-level miss signal also feeds
// the SGX EPC/MEE cost model (src/sgx/epc.hpp) that generates the Fig. 6
// hardware-mode overheads.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/zero_pages.hpp"

namespace acctee::cachesim {

/// Geometry and timing of one cache level.
struct CacheConfig {
  uint64_t size_bytes = 32 * 1024;
  uint32_t line_bytes = 64;
  uint32_t associativity = 8;
  uint32_t hit_cycles = 4;  // charged when this level services the access
};

/// One set-associative, write-allocate, LRU cache level.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Returns true if `line_addr` (byte address of the line) hits; on miss the
  /// line is installed (write-allocate for both reads and writes).
  bool access(uint64_t line_addr);

  /// Drops all cached lines. O(1): lines are invalidated by bumping the
  /// cache epoch, not by touching every way (a hierarchy holds ~10^5 ways,
  /// and a reused instance resets its hierarchy on every request).
  void flush();

  /// Restores the exact post-construction state: all lines dropped AND the
  /// LRU stamp and hit/miss counters rewound. After reset() the cache is
  /// behaviourally indistinguishable from a freshly constructed one
  /// (flush() keeps the counters running — it models an invalidation, not
  /// a rebirth).
  void reset();

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  // No member initialisers: the way array is all-zero bytes on
  // construction, and epoch 0 is never the cache epoch, so a zero way is an
  // invalid one. Construction therefore never fills the array, and a
  // hierarchy costs only the ways its accesses touch.
  struct Way {
    uint64_t tag;
    uint64_t lru;    // last-access stamp
    uint64_t epoch;  // valid iff equal to the cache epoch (starts at 1)
  };
  static_assert(std::is_trivial_v<Way>);

  CacheConfig config_;
  uint32_t num_sets_;
  ZeroPages ways_;  // num_sets_ x associativity Ways, row-major
  uint64_t epoch_ = 1;
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Result of a hierarchy access.
struct AccessResult {
  uint32_t cycles = 0;
  bool llc_miss = false;  // missed the last cache level (went to memory)
};

/// A three-level hierarchy (L1d, L2, L3) in front of DRAM, sized like the
/// paper's Xeon E3-1230 v5 (32 KiB L1d, 256 KiB L2, 8 MiB L3).
class Hierarchy {
 public:
  struct Config {
    CacheConfig l1{32 * 1024, 64, 8, 4};
    CacheConfig l2{256 * 1024, 64, 4, 12};
    CacheConfig l3{8 * 1024 * 1024, 64, 16, 40};
    uint32_t dram_cycles = 200;
    // Stores that miss cost extra (write-allocate fill + dirty traffic).
    uint32_t store_miss_extra = 160;
    // Sequential-stream prefetcher: a miss on the line directly after the
    // previously accessed line is assumed prefetched and costs only this
    // (it still counts as an LLC miss for the MEE/EPC cost model — memory
    // encryption and paging are not hidden by prefetching).
    uint32_t prefetched_miss_cycles = 6;
  };

  Hierarchy() : Hierarchy(Config{}) {}
  explicit Hierarchy(const Config& config);

  /// Simulates an access of `size` bytes at `addr` (may straddle lines).
  AccessResult access(uint64_t addr, uint32_t size, bool is_write);

  /// Drops all cached state (used between benchmark configurations). Note:
  /// the stream-prefetcher state and the access/miss counters survive a
  /// flush; use reset() for a cold, as-constructed hierarchy.
  void flush();

  /// Restores the exact post-construction state: every level reset() and
  /// the prefetcher last-line state and counters cleared. A reset hierarchy
  /// charges bit-identical cycles to a freshly constructed one (the basis
  /// of instance reset-and-reuse in the sharded gateway freelists).
  void reset();

  const Config& config() const { return config_; }
  uint64_t llc_misses() const { return llc_misses_; }
  uint64_t accesses() const { return accesses_; }

 private:
  Config config_;
  Cache l1_;
  Cache l2_;
  Cache l3_;
  uint64_t llc_misses_ = 0;
  uint64_t accesses_ = 0;
  uint64_t last_line_ = 0;
  bool has_last_line_ = false;
};

}  // namespace acctee::cachesim
