#include "support/arena.hpp"

#include <memory>
#include <utility>

#include "support/assert.hpp"

namespace ais {

Arena::Arena(std::size_t chunk_bytes, std::size_t initial_chunk_bytes)
    : chunk_bytes_(chunk_bytes), next_chunk_bytes_(initial_chunk_bytes) {
  AIS_CHECK(chunk_bytes > 0, "arena chunk size must be positive");
  AIS_CHECK(initial_chunk_bytes > 0, "arena initial chunk must be positive");
  if (next_chunk_bytes_ > chunk_bytes_) next_chunk_bytes_ = chunk_bytes_;
}

Arena::Arena(Arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      current_(other.current_),
      chunk_bytes_(other.chunk_bytes_),
      next_chunk_bytes_(other.next_chunk_bytes_),
      bytes_allocated_(other.bytes_allocated_),
      bytes_reserved_(other.bytes_reserved_) {
  other.chunks_.clear();
  other.current_ = 0;
  other.bytes_allocated_ = 0;
  other.bytes_reserved_ = 0;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    chunks_ = std::move(other.chunks_);
    current_ = other.current_;
    chunk_bytes_ = other.chunk_bytes_;
    next_chunk_bytes_ = other.next_chunk_bytes_;
    bytes_allocated_ = other.bytes_allocated_;
    bytes_reserved_ = other.bytes_reserved_;
    other.chunks_.clear();
    other.current_ = 0;
    other.bytes_allocated_ = 0;
    other.bytes_reserved_ = 0;
  }
  return *this;
}

Arena::Chunk& Arena::chunk_for(std::size_t bytes, std::size_t align) {
  for (; current_ < chunks_.size(); ++current_) {
    Chunk& c = chunks_[current_];
    const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
    if (aligned + bytes <= c.size) return c;
  }
  // No existing chunk fits: open a fresh one.  Oversized requests get a
  // dedicated chunk so they never poison the bump pattern of regular ones;
  // regular chunks double from kInitialChunkBytes up to chunk_bytes_ so a
  // mostly-idle arena stays small.
  std::size_t size;
  if (bytes > chunk_bytes_) {
    size = bytes;
  } else {
    size = next_chunk_bytes_;
    while (size < bytes) size *= 2;
    next_chunk_bytes_ = size * 2 < chunk_bytes_ ? size * 2 : chunk_bytes_;
  }
  // Uninitialized: every consumer writes its storage before reading it.
  chunks_.push_back(
      Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
  bytes_reserved_ += size;
  return chunks_.back();
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  AIS_CHECK(align > 0 && (align & (align - 1)) == 0,
            "arena alignment must be a power of two");
  // new[] storage is aligned for std::max_align_t; larger alignments would
  // need aligned allocation, which nothing in the tree requests.
  AIS_CHECK(align <= alignof(std::max_align_t),
            "arena does not support over-aligned allocations");
  Chunk& c = chunk_for(bytes, align);
  const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
  void* p = c.data.get() + aligned;
  c.used = aligned + bytes;
  bytes_allocated_ += bytes;
  return p;
}

void Arena::reset() {
  for (Chunk& c : chunks_) c.used = 0;
  current_ = 0;
  bytes_allocated_ = 0;
}

}  // namespace ais
