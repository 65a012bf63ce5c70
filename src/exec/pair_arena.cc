#include "exec/pair_arena.h"

#include <algorithm>

#include "common/logging.h"

namespace mqa {

namespace {

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

// Slab growth stops doubling here; larger requests still get a slab of
// exactly their size, so huge columns never over-reserve by 2x.
constexpr size_t kMaxSlabGrowthBytes = size_t{64} << 20;  // 64 MiB

}  // namespace

PairArena::PairArena(size_t min_slab_bytes)
    : next_slab_bytes_(min_slab_bytes), min_slab_bytes_(min_slab_bytes) {
  MQA_CHECK(min_slab_bytes > 0) << "arena slabs need a positive size";
}

PairArena::~PairArena() = default;

void* PairArena::Allocate(size_t bytes, size_t alignment) {
  if (bytes == 0) return nullptr;
  MQA_CHECK(alignment != 0 && (alignment & (alignment - 1)) == 0)
      << "alignment must be a power of two";
  for (;;) {
    if (active_ < slabs_.size()) {
      const Slab& slab = slabs_[active_];
      const size_t offset = AlignUp(offset_, alignment);
      if (offset + bytes <= slab.size) {
        offset_ = offset + bytes;
        allocated_ += bytes;
        peak_ = std::max(peak_, allocated_);
        return slab.data.get() + offset;
      }
      // Retained slab exhausted (or, after Reset, too small for this
      // request): move on; its tail is reclaimed at the next Reset.
      ++active_;
      offset_ = 0;
      continue;
    }
    // Grow: geometric target, but never smaller than the request (plus
    // worst-case alignment padding).
    size_t size = std::max(next_slab_bytes_, bytes + alignment);
    next_slab_bytes_ = std::min(next_slab_bytes_ * 2, kMaxSlabGrowthBytes);
    Slab slab;
    // Uninitialized, like the storage of a Reset arena: zero-filling would
    // touch every page of the slab up front.
    slab.data = std::unique_ptr<unsigned char[]>(new unsigned char[size]);
    slab.size = size;
    slabs_.push_back(std::move(slab));
  }
}

void PairArena::Reset() {
  active_ = 0;
  offset_ = 0;
  allocated_ = 0;
  for (const auto& shard : shards_) shard->Reset();
}

PairArena* PairArena::shard(size_t i) {
  while (shards_.size() <= i) {
    shards_.push_back(std::make_unique<PairArena>(min_slab_bytes_));
  }
  return shards_[i].get();
}

size_t PairArena::slab_count() const {
  size_t count = slabs_.size();
  for (const auto& shard : shards_) count += shard->slab_count();
  return count;
}

size_t PairArena::allocated_bytes() const {
  size_t bytes = allocated_;
  for (const auto& shard : shards_) bytes += shard->allocated_bytes();
  return bytes;
}

size_t PairArena::capacity_bytes() const {
  size_t bytes = 0;
  for (const Slab& slab : slabs_) bytes += slab.size;
  for (const auto& shard : shards_) bytes += shard->capacity_bytes();
  return bytes;
}

size_t PairArena::peak_bytes() const {
  size_t bytes = peak_;
  for (const auto& shard : shards_) bytes += shard->peak_bytes();
  return bytes;
}

}  // namespace mqa
