#include "common/zero_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace acctee {

namespace {

size_t page_size() {
  static const size_t size = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

size_t whole_pages(size_t size) {
  const size_t page = page_size();
  if (size > SIZE_MAX - page) throw std::bad_alloc();
  return (size + page - 1) / page * page;
}

}  // namespace

ZeroPages::~ZeroPages() {
  if (mapped_ != 0) munmap(data_, mapped_);
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    if (mapped_ != 0) munmap(data_, mapped_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
  }
  return *this;
}

void ZeroPages::resize(size_t size) {
  const size_t mapped = whole_pages(size);
  if (mapped != mapped_) {
    void* p = nullptr;
    if (mapped == 0) {
      munmap(data_, mapped_);
    } else if (mapped_ == 0) {
      p = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    } else {
      // Growing maps fresh zero pages after the old ones; shrinking unmaps
      // the tail.
      p = mremap(data_, mapped_, mapped, MREMAP_MAYMOVE);
    }
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<uint8_t*>(p);
    mapped_ = mapped;
  }
  // A shrink that ends inside a page keeps that page mapped: zero what it
  // dropped there, so that a later growth reads zero.
  if (size < size_ && size < mapped) {
    std::memset(data_ + size, 0, std::min(size_, mapped) - size);
  }
  size_ = size;
}

}  // namespace acctee
