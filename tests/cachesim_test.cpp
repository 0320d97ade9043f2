// Unit tests for the cache-hierarchy simulator.
#include <gtest/gtest.h>

#include "cachesim/cache.hpp"
#include "common/rng.hpp"

namespace acctee::cachesim {
namespace {

TEST(Cache, HitAfterMiss) {
  Cache cache(CacheConfig{1024, 64, 2, 1});
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
}

TEST(Cache, LruEviction) {
  // 2-way, line 64, 1024 bytes -> 8 sets. Lines 0, 8, 16 (line index) map to
  // set 0 (stride 8 lines = 512 bytes).
  Cache cache(CacheConfig{1024, 64, 2, 1});
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(512));
  EXPECT_TRUE(cache.access(0));      // refresh line 0
  EXPECT_FALSE(cache.access(1024));  // evicts 512 (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(512));   // was evicted
}

TEST(Cache, FlushDropsEverything) {
  Cache cache(CacheConfig{1024, 64, 2, 1});
  cache.access(0);
  cache.flush();
  EXPECT_FALSE(cache.access(0));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{1000, 64, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{1024, 60, 2, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{1024, 64, 0, 1}), std::invalid_argument);
}

TEST(Hierarchy, L1HitIsCheapest) {
  Hierarchy h;
  AccessResult first = h.access(0, 4, false);
  EXPECT_TRUE(first.llc_miss);
  EXPECT_GE(first.cycles, h.config().dram_cycles);
  AccessResult second = h.access(0, 4, false);
  EXPECT_FALSE(second.llc_miss);
  EXPECT_EQ(second.cycles, h.config().l1.hit_cycles);
}

TEST(Hierarchy, StraddlingAccessTouchesTwoLines) {
  Hierarchy h;
  h.access(62, 4, false);  // lines 0 and 1
  EXPECT_EQ(h.accesses(), 2u);
  AccessResult r = h.access(0, 4, false);
  EXPECT_FALSE(r.llc_miss);
  r = h.access(64, 4, false);
  EXPECT_FALSE(r.llc_miss);
}

TEST(Hierarchy, StoreMissCostsMoreThanLoadMiss) {
  Hierarchy h;
  AccessResult load_miss = h.access(0, 4, false);
  h.flush();
  AccessResult store_miss = h.access(0, 4, true);
  EXPECT_GT(store_miss.cycles, load_miss.cycles);
}

TEST(Hierarchy, LinearScanIsMostlyHits) {
  Hierarchy h;
  uint64_t cycles = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    cycles += h.access(static_cast<uint64_t>(i) * 4, 4, false).cycles;
  }
  // 1 miss per 16 accesses (64-byte lines / 4-byte elements).
  double avg = static_cast<double>(cycles) / n;
  EXPECT_LT(avg, 20.0);
}

TEST(Hierarchy, RandomAccessOverLargeFootprintIsExpensive) {
  Hierarchy h;
  Xoshiro256 rng(1);
  const uint64_t footprint = 256ull * 1024 * 1024;
  // Warm up, then measure.
  for (int i = 0; i < 20000; ++i) h.access(rng.next_below(footprint), 4, false);
  uint64_t cycles = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    cycles += h.access(rng.next_below(footprint), 4, false).cycles;
  }
  double avg = static_cast<double>(cycles) / n;
  EXPECT_GT(avg, 100.0);  // overwhelmingly DRAM
}

TEST(Hierarchy, CostOrderingAcrossFootprints) {
  // Average random-access cost must be monotone-ish in footprint:
  // fits-in-L1 < fits-in-L2 < fits-in-L3 < DRAM-bound.
  auto avg_cost = [](uint64_t footprint) {
    Hierarchy h;
    Xoshiro256 rng(2);
    for (int i = 0; i < 30000; ++i) {
      h.access(rng.next_below(footprint), 4, false);
    }
    uint64_t cycles = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
      cycles += h.access(rng.next_below(footprint), 4, false).cycles;
    }
    return static_cast<double>(cycles) / n;
  };
  double c_l1 = avg_cost(16 * 1024);
  double c_l2 = avg_cost(128 * 1024);
  double c_l3 = avg_cost(4 * 1024 * 1024);
  double c_dram = avg_cost(64 * 1024 * 1024);
  EXPECT_LT(c_l1, c_l2);
  EXPECT_LT(c_l2, c_l3);
  EXPECT_LT(c_l3, c_dram);
}

// --- Pathological thrash/stride workloads (DESIGN.md §18) ---
//
// These are the access patterns the cache_thrasher-style adversarial
// workloads lean on: tiny footprints that still miss on every access
// because of set conflicts, and strides chosen to defeat the stream
// prefetcher. The shadow meter replays memory traffic through this model,
// so its worst cases must be priced believably.

TEST(Hierarchy, SetConflictThrashInL1IsAbsorbedByL2) {
  // L1: 32 KiB / 64 B / 8-way -> 64 sets, set stride 4096 B. Nine lines at
  // that stride all collide in one L1 set (8 ways), so steady-state L1
  // misses on every access; L2's different set stride spreads them out and
  // serves every one, so the cost settles at exactly the L2 hit cost.
  Hierarchy h;
  // Set stride = num_sets * line = size / associativity.
  const uint64_t stride =
      h.config().l1.size_bytes / h.config().l1.associativity;
  ASSERT_EQ(stride, 4096u);
  const int conflicting_lines = 9;
  for (int i = 0; i < 2 * conflicting_lines; ++i) {
    h.access(uint64_t(i % conflicting_lines) * stride, 4, false);
  }
  uint64_t cycles = 0;
  const int n = 9000;
  for (int i = 0; i < n; ++i) {
    cycles += h.access(uint64_t(i % conflicting_lines) * stride, 4, false).cycles;
  }
  EXPECT_EQ(static_cast<double>(cycles) / n, h.config().l2.hit_cycles);
}

TEST(Hierarchy, AlignedStrideThrashesEveryLevelWithTinyFootprint) {
  // Stride 512 KiB is a multiple of every level's set stride (L1 4 KiB,
  // L2 64 KiB, L3 512 KiB), so all lines land in set 0 of all three
  // levels. 17 lines exceed even L3's 16 ways: ~1 KiB of actual data, yet
  // cyclic access misses to DRAM every single time. This is the strongest
  // possible billed-vs-true distortion per byte of footprint.
  Hierarchy h;
  const uint64_t stride = 512 * 1024;
  const int lines = 17;
  for (int i = 0; i < 3 * lines; ++i) {
    h.access(uint64_t(i % lines) * stride, 4, false);
  }
  const uint64_t warm_misses = h.llc_misses();
  const uint64_t warm_accesses = h.accesses();
  uint64_t cycles = 0;
  const int n = 17000;
  for (int i = 0; i < n; ++i) {
    cycles += h.access(uint64_t(i % lines) * stride, 4, false).cycles;
  }
  EXPECT_EQ(h.llc_misses() - warm_misses, h.accesses() - warm_accesses);
  EXPECT_GE(static_cast<double>(cycles) / n, h.config().dram_cycles);
}

TEST(Hierarchy, StridedMissesDefeatThePrefetcher) {
  // A forward streaming sweep misses once per line but each miss is the
  // prefetched kind (cheap); the same traffic at a 2-line stride has the
  // identical miss count per access yet pays full DRAM latency. Both
  // register as LLC misses — the MEE/EPC model is not fooled either way.
  const uint64_t footprint = 64ull * 1024 * 1024;
  const uint32_t line = 64;

  Hierarchy seq;
  uint64_t seq_cycles = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    seq_cycles += seq.access((uint64_t(i) * line) % footprint, 4, false).cycles;
  }

  Hierarchy strided;
  uint64_t strided_cycles = 0;
  for (int i = 0; i < n; ++i) {
    strided_cycles +=
        strided.access((uint64_t(i) * 2 * line) % footprint, 4, false).cycles;
  }

  EXPECT_EQ(seq.llc_misses(), uint64_t(n));      // every line is new
  EXPECT_EQ(strided.llc_misses(), uint64_t(n));  // ditto
  const double seq_avg = static_cast<double>(seq_cycles) / n;
  const double strided_avg = static_cast<double>(strided_cycles) / n;
  EXPECT_LE(seq_avg, seq.config().prefetched_miss_cycles + 1.0);
  EXPECT_GE(strided_avg, strided.config().dram_cycles);
  EXPECT_GT(strided_avg, 10.0 * seq_avg);
}

TEST(Hierarchy, CyclicSweepJustOverCapacityIsAllMisses) {
  // LRU's worst case: a cyclic sweep over one more line than the cache
  // holds evicts each line moments before its reuse. Shrunken geometry
  // keeps the test fast; the effect is geometry-independent.
  Hierarchy::Config small;
  small.l1 = {1024, 64, 2, 4};
  small.l2 = {4096, 64, 4, 12};
  small.l3 = {16384, 64, 4, 40};
  Hierarchy h(small);
  const int lines = int(small.l3.size_bytes / small.l3.line_bytes) + 1;
  // Two warm-up laps, then measure: every access must miss the LLC. The
  // 2-line stride keeps the stream prefetcher's next-line heuristic from
  // ever firing (accessed lines are never adjacent).
  auto lap = [&] {
    uint64_t misses_before = h.llc_misses();
    for (int i = 0; i < lines; ++i) {
      h.access(uint64_t(i) * 2 * small.l1.line_bytes, 4, false);
    }
    return h.llc_misses() - misses_before;
  };
  lap();
  lap();
  EXPECT_EQ(lap(), uint64_t(lines));
  EXPECT_EQ(lap(), uint64_t(lines));
}

TEST(Hierarchy, StoreThrashCostsStoreMissExtra) {
  // Under an all-miss conflict pattern, stores must pay the write-allocate
  // surcharge on top of the load-miss cost, access for access.
  const uint64_t stride = 512 * 1024;
  const int lines = 17;
  auto thrash_avg = [&](bool is_write) {
    Hierarchy h;
    for (int i = 0; i < 3 * lines; ++i) {
      h.access(uint64_t(i % lines) * stride, 4, is_write);
    }
    uint64_t cycles = 0;
    const int n = 1700;
    for (int i = 0; i < n; ++i) {
      cycles += h.access(uint64_t(i % lines) * stride, 4, is_write).cycles;
    }
    return static_cast<double>(cycles) / n;
  };
  Hierarchy reference;
  EXPECT_EQ(thrash_avg(true) - thrash_avg(false),
            reference.config().store_miss_extra);
}

TEST(Hierarchy, ResetRestoresColdThrashBehaviour) {
  // The gateway freelists rely on reset() being bit-exact: a thrashed
  // hierarchy after reset() must charge the same cycles, access for
  // access, as a fresh one — including prefetcher state (last-line).
  // The thrash has two phases. First a set conflict: addresses `stride`
  // apart share one set in every level, and 17 of them overflow the 16-way
  // LLC, so every access of the cyclic sweep misses. Then random traffic.
  const uint64_t stride = 512 * 1024;
  const int lines = 17;
  Hierarchy used;
  for (int i = 0; i < 3 * lines; ++i) {
    used.access(uint64_t(i % lines) * stride, 8, (i & 3) == 0);
  }
  ASSERT_EQ(used.llc_misses(), uint64_t(3 * lines));
  Xoshiro256 rng(7);
  for (int i = 0; i < 50000; ++i) {
    used.access(rng.next_below(64ull * 1024 * 1024), 8, (i & 3) == 0);
  }
  used.reset();
  Hierarchy fresh;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t addr = (uint64_t(i) * 3 * 64) % (8ull * 1024 * 1024);
    AccessResult a = used.access(addr, 4, false);
    AccessResult b = fresh.access(addr, 4, false);
    ASSERT_EQ(a.cycles, b.cycles) << "diverged at access " << i;
    ASSERT_EQ(a.llc_miss, b.llc_miss) << "diverged at access " << i;
  }
  EXPECT_EQ(used.llc_misses(), fresh.llc_misses());
}

TEST(Hierarchy, BuiltAfterAThrashedOneWasDestroyedIsCold) {
  // A hierarchy's way arrays start as zero pages, never as memory a
  // destroyed hierarchy left behind: its lines, valid at the same epoch,
  // would turn cold misses into hits.
  auto trace_cycles = [](Hierarchy& h) {
    Xoshiro256 rng(11);
    uint64_t cycles = 0;
    for (int i = 0; i < 20000; ++i) {
      cycles += h.access(rng.next_below(4ull * 1024 * 1024), 8, (i & 3) == 0)
                    .cycles;
    }
    return cycles;
  };
  uint64_t cold = 0;
  {
    Hierarchy first;
    cold = trace_cycles(first);
    EXPECT_LT(trace_cycles(first), cold);  // a warm replay hits
  }
  Hierarchy second;
  EXPECT_EQ(trace_cycles(second), cold);
}

}  // namespace
}  // namespace acctee::cachesim
