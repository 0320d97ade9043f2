// The shadow resource meter: an untrusted-side ground-truth cost profile
// collected per request *alongside* — never inside — the billed counters.
//
// AccTEE's billed quantities (the weighted instruction counter, the
// memory·time integral, I/O bytes) deliberately cover only what the
// counter-equivalence verifier can prove. A hostile workload can therefore
// burn provider resources that never reach a billed counter: host-function
// time sinks, memory.grow churn, cache-thrash kernels, instrumentation-
// asymmetric opcodes. The meter makes that billed-vs-true gap *observable*:
// it replays memory accesses through its own cachesim hierarchy, prices
// host transitions and self-reported host work, and tracks grow churn —
// all into private fields that the accounting path never reads.
//
// Billing neutrality is a hard invariant: a meter hook may read the
// interpreter's state but writes only the meter. ExecStats, checkpoints and
// serialized ledger bytes are bit-identical with the meter detached and
// attached (tested in tests/gap_test.cpp and gated by
// gap_adversarial --neutrality).
#pragma once

#include <cstdint>
#include <string_view>

#include "cachesim/cache.hpp"
#include "interp/cost.hpp"
#include "obs/gap_metrics.hpp"
#include "wasm/types.hpp"

namespace acctee::interp {

class ShadowMeter {
 public:
  struct Config {
    /// Geometry of the independent replay hierarchy. Defaults to the same
    /// machine model the billed cache simulation uses, so the replayed miss
    /// cost is comparable with the interpreter's own cycle charges.
    cachesim::Hierarchy::Config cache;
    /// True host-side work per transferred I/O byte (the memcpy the flat
    /// per-call transition price never covers) — the I/O-amplifier gap.
    uint64_t host_work_cycles_per_io_byte = 1;
    /// True cost of growing linear memory by one Wasm page (the kernel
    /// zeroes 64 KiB the billed counter prices at one instruction) — the
    /// grow-churn gap.
    uint64_t grow_cycles_per_page = 4096;
  };

  ShadowMeter() : ShadowMeter(Config{}) {}
  explicit ShadowMeter(const Config& config)
      : config_(config), cache_(config.cache) {}

  /// Clears every measurement (including the replay hierarchy and the
  /// grow baseline) for reuse across requests.
  void reset() {
    cache_.reset();
    host_calls_ = 0;
    host_transition_cycles_ = 0;
    host_work_cycles_ = 0;
    io_bytes_in_ = 0;
    io_bytes_out_ = 0;
    mem_accesses_ = 0;
    shadow_cache_cycles_ = 0;
    shadow_llc_misses_ = 0;
    grow_bytes_ = 0;
    last_memory_bytes_ = 0;
    baseline_seen_ = false;
  }

  // -- hooks (called by the untrusted runtime; write only meter state) --

  void on_host_call(uint64_t transition_cycles) {
    ++host_calls_;
    host_transition_cycles_ += transition_cycles;
  }

  /// Host functions self-report work beyond the flat transition price,
  /// in cycles (see core/runtime_env.cpp).
  void on_host_work(uint64_t cycles) { host_work_cycles_ += cycles; }

  void on_io(uint64_t bytes_in, uint64_t bytes_out) {
    io_bytes_in_ += bytes_in;
    io_bytes_out_ += bytes_out;
  }

  /// Replays one linear-memory access through the shadow hierarchy.
  void on_memory_access(uint64_t addr, uint32_t size, bool is_write) {
    ++mem_accesses_;
    cachesim::AccessResult res = cache_.access(addr, size, is_write);
    shadow_cache_cycles_ += res.cycles;
    if (res.llc_miss) ++shadow_llc_misses_;
  }

  /// Observes the current linear-memory size; deltas above the last
  /// observation accumulate as grow churn. The first observation after
  /// attach/reset sets the baseline (the initial pages are part of the
  /// instance, not churn).
  void on_memory_size(uint64_t bytes) {
    if (!baseline_seen_) {
      baseline_seen_ = true;
      last_memory_bytes_ = bytes;
      return;
    }
    if (bytes > last_memory_bytes_) grow_bytes_ += bytes - last_memory_bytes_;
    last_memory_bytes_ = bytes;
  }

  // -- measurements --
  const Config& config() const { return config_; }
  uint64_t host_calls() const { return host_calls_; }
  uint64_t host_transition_cycles() const { return host_transition_cycles_; }
  uint64_t host_work_cycles() const { return host_work_cycles_; }
  uint64_t io_bytes_in() const { return io_bytes_in_; }
  uint64_t io_bytes_out() const { return io_bytes_out_; }
  uint64_t mem_accesses() const { return mem_accesses_; }
  uint64_t shadow_cache_cycles() const { return shadow_cache_cycles_; }
  uint64_t shadow_llc_misses() const { return shadow_llc_misses_; }
  uint64_t grow_bytes() const { return grow_bytes_; }

  /// Priced host-side work: self-reported cycles plus per-byte I/O work.
  uint64_t true_host_cycles() const {
    return host_transition_cycles_ + host_work_cycles_ +
           (io_bytes_in_ + io_bytes_out_) * config_.host_work_cycles_per_io_byte;
  }

  /// Priced grow churn, in cycles (whole pages by construction).
  uint64_t grow_cycles() const {
    return grow_bytes_ / wasm::kPageSize * config_.grow_cycles_per_page;
  }

 private:
  Config config_;
  cachesim::Hierarchy cache_;  // private replay hierarchy, never the billed one
  uint64_t host_calls_ = 0;
  uint64_t host_transition_cycles_ = 0;
  uint64_t host_work_cycles_ = 0;
  uint64_t io_bytes_in_ = 0;
  uint64_t io_bytes_out_ = 0;
  uint64_t mem_accesses_ = 0;
  uint64_t shadow_cache_cycles_ = 0;
  uint64_t shadow_llc_misses_ = 0;
  uint64_t grow_bytes_ = 0;
  uint64_t last_memory_bytes_ = 0;
  bool baseline_seen_ = false;
};

/// One billed-vs-true comparison. Units are dimension-specific but always
/// identical on both sides of a dimension.
struct GapDimension {
  uint64_t billed = 0;
  uint64_t true_cost = 0;

  /// true/billed with the billed side clamped to 1, so an entirely
  /// uncounted dimension (billed == 0) still yields a finite, monotone
  /// severity signal instead of a division by zero.
  double gap_ratio() const {
    return static_cast<double>(true_cost) /
           static_cast<double>(billed == 0 ? 1 : billed);
  }
};

/// The per-request gap profile the meter supports (DESIGN.md §18).
struct GapProfile {
  /// Headline dimension, cycles. Billed: the weighted instruction counter.
  /// True: the simulated-cycle ground truth (ExecStats::cycles — base
  /// costs, cache misses, MEE/EPC, host transitions) plus the meter's
  /// host-work and grow-churn cycles that even ExecStats never sees.
  GapDimension cycles;
  /// Host dimension, cycles. Billed: host-entry ops × the weight the
  /// counter charges per host call. True: transitions + self-reported work
  /// + per-byte I/O work.
  GapDimension host_cycles;
  /// Cache dimension, cycles. Billed is zero by construction — miss cost
  /// never reaches the counter; the dimension exists to make that visible.
  GapDimension cache_cycles;
  /// Grow-churn dimension, bytes. Billed is zero by construction.
  GapDimension mem_grow_bytes;
  /// I/O dimension, bytes — a *closed* dimension (the runtime accounts
  /// transferred bytes into the signed log), expected at ratio 1.
  GapDimension io_bytes;
};

/// Folds meter measurements and the execution ground truth into a profile.
/// `billed_counter` is the final weighted-counter value; `billed_host_weight`
/// is what the counter charges per host-entry op (table weight of `call`
/// plus the agreed host-call surcharge).
GapProfile compute_gap_profile(const ShadowMeter& meter, const ExecStats& stats,
                               uint64_t billed_counter,
                               uint64_t billed_host_weight);

/// Dimension names record_gap_profile exports, in profile field order.
inline constexpr const char* kGapDimensions[] = {
    "cycles", "host_cycles", "cache_cycles", "mem_grow_bytes", "io_bytes"};

/// Feeds one profile into the per-tenant acctee_gap_* family, one
/// record() per dimension under the names in kGapDimensions.
void record_gap_profile(obs::GapMetrics& metrics, std::string_view tenant,
                        const GapProfile& profile);

}  // namespace acctee::interp
