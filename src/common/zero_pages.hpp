// Zero-filled byte buffer backed by whole OS pages, for large state that is
// touched sparsely: Wasm linear memory and the cache simulator's way arrays.
//
// The pages come from an anonymous private mapping, so a buffer of any size
// costs a system call, not a fill: the kernel maps each page on first touch
// and hands it over zeroed, and a page that is never touched is never paid
// for. calloc would not give that: once a block has been freed, glibc's
// dynamic mmap threshold serves multi-megabyte blocks from the heap, and
// calloc must then memset them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace acctee {

class ZeroPages {
 public:
  ZeroPages() = default;
  /// A buffer of `size` zero bytes. Throws std::bad_alloc if the mapping
  /// fails.
  explicit ZeroPages(size_t size) { resize(size); }
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  /// Grows or shrinks the buffer to `size` bytes; may move it. Bytes below
  /// the smaller of the old and new size keep their contents, and bytes
  /// that growth adds read zero. Shrinking returns the whole pages past the
  /// new end to the OS. Throws std::bad_alloc if the mapping fails, leaving
  /// the buffer as it was.
  void resize(size_t size);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_ = 0;  // size_ rounded up to whole pages; 0 = no mapping
};

}  // namespace acctee
