#ifndef MQA_EXEC_PAIR_ARENA_H_
#define MQA_EXEC_PAIR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace mqa {

/// A slab (bump) allocator backing the columnar pair pool and its build
/// scratch. Allocation is a pointer bump into the active slab; slabs grow
/// geometrically and are *retained* across Reset(), so a caller that
/// builds one pool per epoch (sim/EpochRunner, stream/StreamingSimulator)
/// pays malloc/free only while the arena is still growing toward the
/// epoch high-water mark — steady state allocates nothing.
///
/// Shard arenas: the parallel pair builder pins one sub-arena per worker
/// chunk (shard(i)) so concurrent candidate collection never contends on
/// one cursor or on the global allocator. Sub-arenas are owned by (and
/// Reset with) the parent and are counted in its metrics.
///
/// Thread-safety: Allocate/Reset/shard are NOT thread-safe. The intended
/// discipline (see src/core/README.md) is: the build's sequential spine
/// allocates columns and creates the shard arenas up front; inside a
/// parallel region each chunk allocates only from its own shard arena.
///
/// Lifetime: memory handed out stays valid until Reset() or destruction —
/// a PairPool built from an external arena must be dropped before the
/// arena resets for the next epoch.
class PairArena {
 public:
  static constexpr size_t kDefaultMinSlabBytes = size_t{1} << 16;  // 64 KiB

  explicit PairArena(size_t min_slab_bytes = kDefaultMinSlabBytes);
  ~PairArena();

  PairArena(const PairArena&) = delete;
  PairArena& operator=(const PairArena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `alignment`
  /// (which must be a power of two). `bytes == 0` returns nullptr.
  void* Allocate(size_t bytes, size_t alignment);

  /// Typed array allocation (uninitialized storage; T must be trivially
  /// destructible — nothing is ever destroyed, only recycled wholesale).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds every cursor (including shard arenas), retaining all slabs.
  /// Invalidates all memory previously handed out.
  void Reset();

  /// The i-th shard sub-arena, created on first use. Not thread-safe:
  /// create all shard arenas before fanning out.
  PairArena* shard(size_t i);
  size_t num_shards() const { return shards_.size(); }

  /// Metrics, aggregated over this arena and its shard arenas.
  size_t slab_count() const;
  size_t allocated_bytes() const;  // live bytes since the last Reset
  size_t capacity_bytes() const;   // total bytes held in slabs
  size_t peak_bytes() const;       // high-water allocated_bytes ever seen

 private:
  struct Slab {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
  };

  std::vector<Slab> slabs_;
  size_t active_ = 0;          // index of the slab being bumped
  size_t offset_ = 0;          // cursor within the active slab
  size_t allocated_ = 0;       // bytes handed out since Reset
  size_t peak_ = 0;            // max of allocated_ ever
  size_t next_slab_bytes_;     // geometric growth target for the next slab
  size_t min_slab_bytes_;
  std::vector<std::unique_ptr<PairArena>> shards_;
};

/// A minimal growable array of trivially copyable elements backed by a
/// PairArena: push_back bumps; growth allocates a doubled block from the
/// arena and memcpys (the old block is reclaimed only at arena Reset, so
/// transient waste is bounded by ~2x and recycled per epoch). Used for
/// the candidate buffers of the pair builder (one per worker chunk on the
/// parallel path).
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector growth relocates with memcpy");

 public:
  explicit ArenaVector(PairArena* arena) : arena_(arena) {}

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Grow(capacity);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow(size_t min_capacity) {
    size_t capacity = capacity_ == 0 ? size_t{16} : capacity_ * 2;
    if (capacity < min_capacity) capacity = min_capacity;
    T* grown = arena_->AllocateArray<T>(capacity);
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  PairArena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace mqa

#endif  // MQA_EXEC_PAIR_ARENA_H_
