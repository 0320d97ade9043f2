// Linear memory: the contiguous, bounds-checked heap of a Wasm instance.
//
// Bounds checks on every access are the software-fault-isolation half of
// AccTEE's two-way sandbox (paper §2.3): the workload cannot read or write
// anything outside its own linear memory. The backing pages carry no guard
// or sanitizer redzone, so check() is the only thing between an access and
// the neighbouring heap: every access path checks before it touches bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/zero_pages.hpp"
#include "wasm/types.hpp"

namespace acctee::interp {

class LinearMemory {
 public:
  LinearMemory(uint32_t min_pages, std::optional<uint32_t> max_pages)
      : min_pages_(min_pages), max_pages_(max_pages.value_or(65536)) {
    if (min_pages > max_pages_) {
      throw LinkError("memory min exceeds max");
    }
    resize(min_pages);
  }

  uint32_t pages() const {
    return static_cast<uint32_t>(data_.size() / wasm::kPageSize);
  }
  uint64_t size_bytes() const { return data_.size(); }
  uint32_t max_pages() const { return max_pages_; }

  /// Restores the as-constructed state — `min_pages` pages, all zero —
  /// keeping the backing pages. A recycled memory costs what the previous
  /// request wrote: only the 4 KiB chunks in the dirty map are re-zeroed,
  /// and the pages a memory.grow added are unmapped. Zeroing stays here,
  /// not in the OS (madvise): handing pages back would make the next
  /// request pay page faults and cross-thread TLB shootdowns for them, and
  /// an enclave could not trust the OS to have zeroed them. Callers
  /// re-apply data segments afterwards, exactly as instantiation does.
  void reset() {
    const size_t keep = chunks(min_pages_);
    for (size_t c = 0; c < keep;) {
      if (dirty_[c] == 0) {
        ++c;
        continue;
      }
      // One memset per run of dirty chunks, so that a fully written
      // memory costs one large memset, not one call per chunk.
      const size_t first = c;
      while (c < keep && dirty_[c] != 0) dirty_[c++] = 0;
      std::memset(data_.data() + (first << kChunkShift), 0,
                  (c - first) << kChunkShift);
    }
    resize(min_pages_);
  }

  /// memory.grow semantics: returns the previous page count, or -1 (as u32)
  /// if the request exceeds the maximum. The added pages arrive zero, so
  /// they start clean in the dirty map.
  int32_t grow(uint32_t delta_pages) {
    uint64_t old_pages = pages();
    uint64_t new_pages = old_pages + delta_pages;
    if (new_pages > max_pages_) return -1;
    resize(static_cast<uint32_t>(new_pages));
    return static_cast<int32_t>(old_pages);
  }

  /// Bounds check for an access of `size` bytes at effective address
  /// `addr` + `offset`; traps on overflow or out-of-bounds.
  uint64_t check(uint64_t addr, uint64_t offset, uint64_t size) const {
    uint64_t effective = addr + offset;
    if (effective + size > data_.size() || effective + size < effective) {
      throw TrapError("out-of-bounds memory access at " +
                      std::to_string(effective));
    }
    return effective;
  }

  /// Unchecked access at an effective address that check() has passed for
  /// sizeof(T) bytes. store_at marks the chunks it writes.
  template <typename T>
  T load_at(uint64_t ea) const {
    T v;
    std::memcpy(&v, data_.data() + ea, sizeof(T));
    return v;
  }
  template <typename T>
  void store_at(uint64_t ea, T value) {
    std::memcpy(data_.data() + ea, &value, sizeof(T));
    dirty_[ea >> kChunkShift] = 1;
    dirty_[(ea + sizeof(T) - 1) >> kChunkShift] = 1;
  }

  /// Checked byte access for host functions and data-segment
  /// initialisation. view() is valid until the next grow or reset.
  void write_bytes(uint64_t addr, BytesView bytes) {
    uint64_t ea = check(addr, 0, bytes.size());
    if (bytes.empty()) return;
    std::memcpy(data_.data() + ea, bytes.data(), bytes.size());
    std::memset(dirty_.data() + (ea >> kChunkShift), 1,
                ((ea + bytes.size() - 1) >> kChunkShift) -
                    (ea >> kChunkShift) + 1);
  }
  BytesView view(uint64_t addr, uint64_t len) const {
    uint64_t ea = check(addr, 0, len);
    return BytesView(data_.data() + ea, len);
  }

 private:
  // Granule of the dirty map that reset() consults: 4 KiB.
  static constexpr unsigned kChunkShift = 12;

  static size_t chunks(uint32_t pages) {
    return static_cast<size_t>(pages) * wasm::kPageSize >> kChunkShift;
  }
  void resize(uint32_t pages) {
    dirty_.resize(chunks(pages), 0);
    data_.resize(static_cast<size_t>(pages) * wasm::kPageSize);
  }

  uint32_t min_pages_;
  uint32_t max_pages_;
  ZeroPages data_;
  std::vector<uint8_t> dirty_;  // one byte per 4 KiB chunk; 1 = written
};

}  // namespace acctee::interp
