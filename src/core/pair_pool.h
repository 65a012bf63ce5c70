#ifndef MQA_CORE_PAIR_POOL_H_
#define MQA_CORE_PAIR_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/pair_arena.h"
#include "model/candidate_pair.h"
#include "prediction/pair_stats.h"
#include "stats/uncertain.h"

namespace mqa {

class PairPool;
class PairRef;

/// How a pair's quality/existence statistics are represented in the
/// columnar pool. Current-current pairs carry their fixed score inline;
/// pairs involving predicted entities carry nothing — their Case 1-3
/// distribution is resolved through the pool's LazyPairStats table on
/// first touch (keyed by the pair's own worker/task index). Explicit
/// kinds hold builder-supplied statistics (hand-built pools in tests,
/// examples and benches).
enum class PairQualityKind : uint8_t {
  kCurrent = 0,            // fixed score in the fixed-quality column
  kCase1 = 1,              // predicted worker, current task (key: task)
  kCase2 = 2,              // current worker, predicted task (key: worker)
  kCase3 = 3,              // both predicted (one global distribution)
  kExplicit = 4,           // builder-supplied, current-current
  kExplicitPredicted = 5,  // builder-supplied, involves predicted
};

/// Per-pool measurements surfaced by PairPool::Stats() and flushed to the
/// sink (PairPoolOptions::stats_sink / ProblemInstance::pool_stats) when
/// the pool is destroyed — i.e. after the consuming algorithm ran, so the
/// lazy counters reflect what the algorithm actually touched.
struct PairPoolStats {
  int64_t pairs = 0;
  int64_t predicted_pairs = 0;

  /// Current tasks with at least one valid current-worker pair — the
  /// streaming engine's coverable backlog. -1 until a pool writes the
  /// stats (an epoch whose assigner built no pool keeps it).
  int64_t covered_current_tasks = -1;

  /// Wall-clock seconds spent inside BuildPairPool (0 for hand-built
  /// pools). Execution state, like the arena fields — excluded from the
  /// byte-identity contract.
  double build_seconds = 0.0;

  /// Bytes of the columns + CSR adjacency (+ explicit side table).
  int64_t pool_bytes = 0;

  /// Arena footprint (owned or external; external arenas may also hold
  /// build scratch — that is the point of the per-epoch reuse).
  int64_t arena_slabs = 0;
  int64_t arena_capacity_bytes = 0;
  int64_t arena_peak_bytes = 0;

  /// True when any predicted-pair statistic was touched (the deferred
  /// PairStatistics replay ran).
  bool stats_materialized = false;

  /// Fraction of predicted pairs whose Case 1-3 distribution was never
  /// materialized (0 when the pool has no predicted pairs).
  double lazy_skipped_fraction = 0.0;
};

/// Memoized Case 1-3 quality/existence distributions, materialized on
/// first touch. The backing PairStatistics replay (one pass over the
/// pool's current-current pairs — bit-identical to the eager scan, see
/// prediction/pair_stats.h) runs once, on whichever thread touches a
/// predicted-pair statistic first; per-entry memo slots then publish each
/// distribution exactly once via an EMPTY -> BUSY -> READY protocol, so
/// concurrent greedy/D&C consumers (the subproblem fan-out) are race-free
/// and always observe identical bytes.
class LazyPairStats {
 public:
  /// The columns must outlive the table (they live in the same pool).
  LazyPairStats(size_t num_current_workers, size_t num_current_tasks,
                const int32_t* worker_col, const int32_t* task_col,
                const double* fixed_quality_col, size_t num_pairs);

  /// Quality distribution for a predicted pair (kind is kCase1/2/3).
  /// The returned reference is stable for the table's lifetime.
  const Uncertain& Quality(PairQualityKind kind, int32_t worker,
                           int32_t task) const;
  double QualityMean(PairQualityKind kind, int32_t worker,
                     int32_t task) const {
    return Quality(kind, worker, task).mean();
  }

  /// Existence probability p̂ for a predicted pair.
  double Existence(PairQualityKind kind, int32_t worker, int32_t task) const;

  /// Forces every distribution referenced by some pair of the columns to
  /// materialize (PairPool::MaterializeAllStats).
  void MaterializeReferenced() const;

  bool stats_built() const {
    return stats_built_.load(std::memory_order_acquire);
  }
  bool EntryMaterialized(PairQualityKind kind, int32_t worker,
                         int32_t task) const;
  int64_t entries_total() const {
    return static_cast<int64_t>(entries_.size());
  }
  int64_t entries_materialized() const {
    return materialized_count_.load(std::memory_order_relaxed);
  }

  /// Number of pairs in the columns that reference some entry (i.e. the
  /// predicted pairs), counted once at construction.
  int64_t predicted_refs() const { return predicted_refs_; }

  /// Number of predicted pairs whose entry has not materialized —
  /// O(entries), using the construction-time per-entry reference counts
  /// (never an O(pairs) rescan).
  int64_t skipped_refs() const;

 private:
  struct Entry {
    Uncertain quality;
    double existence = 0.0;
  };
  enum : uint8_t { kEmpty = 0, kBusy = 1, kReady = 2 };

  size_t EntryIndex(PairQualityKind kind, int32_t worker, int32_t task) const;
  const Entry& Resolve(PairQualityKind kind, int32_t worker,
                       int32_t task) const;
  void EnsureStats() const;

  size_t num_current_workers_;
  size_t num_current_tasks_;
  const int32_t* worker_col_;
  const int32_t* task_col_;
  const double* fixed_quality_col_;
  size_t num_pairs_;

  mutable std::once_flag stats_once_;
  mutable std::atomic<bool> stats_built_{false};
  mutable std::unique_ptr<PairStatistics> stats_;
  // Entry layout: [0, nct) Case 1 per current task, [nct, nct + ncw)
  // Case 2 per current worker, [nct + ncw] Case 3.
  mutable std::vector<Entry> entries_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> states_;
  mutable std::atomic<int64_t> materialized_count_{0};

  // How many pairs reference each entry, and their total — counted once
  // at construction so the stats flush stays O(entries).
  std::vector<int32_t> entry_refs_;
  int64_t predicted_refs_ = 0;
};

/// A borrowed, immutable range of pair ids (one CSR adjacency row).
class PairIdSpan {
 public:
  PairIdSpan() = default;
  PairIdSpan(const int32_t* begin, const int32_t* end)
      : begin_(begin), end_(end) {}

  const int32_t* begin() const { return begin_; }
  const int32_t* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  int32_t operator[](size_t k) const { return begin_[k]; }

 private:
  const int32_t* begin_ = nullptr;
  const int32_t* end_ = nullptr;
};

/// All valid worker-and-task pairs of a ProblemInstance (the list L of
/// the greedy algorithm, paper Fig. 5 line 2) in a columnar, arena-backed
/// layout:
///
///   * SoA columns (worker, task, cost moments, fixed quality score,
///     quality kind) allocated from a PairArena — reusable across epochs;
///   * CSR adjacency (offset array + flat id array) per task and per
///     worker, replacing nested vector-of-vectors;
///   * lazy statistics: predicted-pair quality/existence (Cases 1-3) is
///     not stored per pair at all — pairs reference the shared
///     LazyPairStats table, materialized on first touch by the consuming
///     algorithm. Values are byte-identical to eager materialization
///     (pure functions of the current-current columns); laziness only
///     changes *when* (and whether) the work happens.
///
/// Access pairs through pair(id) (a PairRef view) or the scalar fast
/// paths (CostMean/QualityMean/...). PairPool is move-only; moving keeps
/// all column pointers valid (slabs never relocate).
class PairPool {
 public:
  PairPool() = default;
  ~PairPool();
  PairPool(PairPool&& other) noexcept;
  PairPool& operator=(PairPool&& other) noexcept;
  PairPool(const PairPool&) = delete;
  PairPool& operator=(const PairPool&) = delete;

  size_t size() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  /// Lightweight view of one pair (see PairRef below).
  PairRef pair(int32_t id) const;

  /// Scalar fast paths for the comparison loops.
  int32_t WorkerIndex(int32_t id) const {
    return worker_col_[static_cast<size_t>(id)];
  }
  int32_t TaskIndex(int32_t id) const {
    return task_col_[static_cast<size_t>(id)];
  }
  double CostMean(int32_t id) const {
    return cost_mean_col_[static_cast<size_t>(id)];
  }
  double CostVariance(int32_t id) const {
    return cost_var_col_[static_cast<size_t>(id)];
  }
  double CostLb(int32_t id) const {
    return cost_lb_col_[static_cast<size_t>(id)];
  }
  double CostUb(int32_t id) const {
    return cost_ub_col_[static_cast<size_t>(id)];
  }
  Uncertain Cost(int32_t id) const {
    const size_t k = static_cast<size_t>(id);
    return Uncertain(cost_mean_col_[k], cost_var_col_[k], cost_lb_col_[k],
                     cost_ub_col_[k]);
  }
  PairQualityKind QualityKind(int32_t id) const {
    return static_cast<PairQualityKind>(qkind_col_[static_cast<size_t>(id)]);
  }
  bool InvolvesPredicted(int32_t id) const {
    const PairQualityKind k = QualityKind(id);
    return k != PairQualityKind::kCurrent && k != PairQualityKind::kExplicit;
  }
  double QualityMean(int32_t id) const;
  /// The full quality distribution, assembled from the fixed-score
  /// column, the lazy table, or the explicit side table. Byte-identical
  /// to what the eager builder used to store per pair.
  Uncertain Quality(int32_t id) const;
  double Existence(int32_t id) const;

  /// Materialized copy of one pair (tests, debugging, cold paths).
  CandidatePair GetPair(int32_t id) const;

  /// CSR adjacency rows: ids of the pairs whose task (worker) index is j
  /// (i), ascending by pair id.
  PairIdSpan PairsByTask(int32_t task) const {
    const size_t j = static_cast<size_t>(task);
    return {by_task_ + task_offsets_[j], by_task_ + task_offsets_[j + 1]};
  }
  PairIdSpan PairsByWorker(int32_t worker) const {
    const size_t i = static_cast<size_t>(worker);
    return {by_worker_ + worker_offsets_[i],
            by_worker_ + worker_offsets_[i + 1]};
  }

  /// Adjacency slot counts (the instance's task/worker vector sizes the
  /// pool was built over).
  size_t num_tasks() const { return num_tasks_; }
  size_t num_workers() const { return num_workers_; }

  /// Average number of valid workers per task with at least one valid
  /// pair (deg_t in the Appendix C cost model).
  double AvgWorkersPerTask() const;

  /// Forces every lazily-derived statistic some pair references to
  /// materialize now (benchmarks and the lazy-vs-eager property tests).
  void MaterializeAllStats() const;

  /// Current measurements. Cheap: the lazy counters use the table's
  /// construction-time reference counts and the covered-task count reads
  /// one CSR row head per current task, so this is O(entries + current
  /// tasks) — never an O(pairs) rescan.
  PairPoolStats Stats() const;

  /// When set, the destructor writes Stats() to `sink` — after the
  /// consuming algorithm ran, so lazy counters are final. Only
  /// destruction flushes: a pool overwritten by move-assignment is
  /// discarded without flushing (its columns may already be invalid if
  /// the backing arena was Reset).
  void set_stats_sink(PairPoolStats* sink) { stats_sink_ = sink; }

  /// Build wall time, recorded by BuildPairPool and surfaced via Stats().
  void set_build_seconds(double s) { build_seconds_ = s; }

  /// Takes ownership of the arena the columns were allocated from
  /// (BuildPairPool's private-arena fallback).
  void AdoptArena(std::unique_ptr<PairArena> arena);

  const LazyPairStats* lazy_stats() const { return lazy_.get(); }

 private:
  friend class PairPoolBuilder;
  friend class PairRef;

  size_t num_pairs_ = 0;
  size_t num_workers_ = 0;
  size_t num_tasks_ = 0;
  size_t num_current_workers_ = 0;
  size_t num_current_tasks_ = 0;
  int64_t explicit_predicted_count_ = 0;  // hand-built pools only
  // Column mode (BuildPairPool): pair ids ascend by worker index, so
  // each task row starts at its lowest worker.
  bool worker_major_ = false;

  // SoA columns (arena storage).
  int32_t* worker_col_ = nullptr;
  int32_t* task_col_ = nullptr;
  double* cost_mean_col_ = nullptr;
  double* cost_var_col_ = nullptr;
  double* cost_lb_col_ = nullptr;
  double* cost_ub_col_ = nullptr;
  double* fixed_quality_col_ = nullptr;  // kCurrent pairs only
  uint8_t* qkind_col_ = nullptr;
  int32_t* explicit_ref_col_ = nullptr;  // kExplicit* pairs only

  // CSR adjacency (arena storage). Offsets have num_tasks_ + 1 /
  // num_workers_ + 1 entries.
  int32_t* task_offsets_ = nullptr;
  int32_t* by_task_ = nullptr;
  int32_t* worker_offsets_ = nullptr;
  int32_t* by_worker_ = nullptr;

  struct ExplicitQuality {
    Uncertain quality;
    double existence = 1.0;
  };
  std::vector<ExplicitQuality> explicit_;

  std::unique_ptr<LazyPairStats> lazy_;
  std::unique_ptr<PairArena> owned_arena_;
  PairArena* arena_ = nullptr;  // owned_arena_.get() or the caller's
  PairPoolStats* stats_sink_ = nullptr;
  double build_seconds_ = 0.0;
};

/// A lightweight view of one pool pair — the successor of the materialized
/// CandidatePair on all algorithm paths. Copying is two words; accessors
/// read straight from the columns (quality/existence may materialize the
/// pair's shared lazy distribution on first touch).
class PairRef {
 public:
  PairRef(const PairPool* pool, int32_t id) : pool_(pool), id_(id) {}

  int32_t id() const { return id_; }
  int32_t worker_index() const { return pool_->WorkerIndex(id_); }
  int32_t task_index() const { return pool_->TaskIndex(id_); }
  bool involves_predicted() const { return pool_->InvolvesPredicted(id_); }

  double cost_mean() const { return pool_->CostMean(id_); }
  double cost_variance() const { return pool_->CostVariance(id_); }
  double cost_lb() const { return pool_->CostLb(id_); }
  double cost_ub() const { return pool_->CostUb(id_); }
  Uncertain cost() const { return pool_->Cost(id_); }

  double quality_mean() const { return pool_->QualityMean(id_); }
  Uncertain quality() const { return pool_->Quality(id_); }
  double existence() const { return pool_->Existence(id_); }

  /// The Eq. 7/10 comparison quality — the raw quality distribution (see
  /// model/candidate_pair.h for why existence is not folded in).
  Uncertain EffectiveQuality() const { return quality(); }

  /// The conservative Bernoulli(existence)-thinned variant.
  Uncertain ExistenceThinnedQuality() const {
    return involves_predicted() ? quality().BernoulliThin(existence())
                                : quality();
  }

 private:
  const PairPool* pool_;
  int32_t id_;
};

inline PairRef PairPool::pair(int32_t id) const { return PairRef(this, id); }

/// Constructs PairPools. Two modes:
///
///  * hand-build (tests, examples, benches): Add() explicit CandidatePairs
///    in any order, then Build() — per-pair statistics are stored verbatim
///    in the explicit side table;
///  * column mode (BuildPairPool): the pair count is known up front,
///    columns are allocated from the arena and filled in place (possibly
///    by several threads, each writing disjoint slots) worker-major —
///    pair ids ascending by worker index — then Build() adds
///    the CSR adjacency and, when `lazy_stats` was requested, the
///    LazyPairStats table.
class PairPoolBuilder {
 public:
  /// Hand-build mode over `num_workers` x `num_tasks` adjacency slots.
  PairPoolBuilder(size_t num_workers, size_t num_tasks);

  /// Column mode; `arena` null allocates an owned arena. `lazy_stats`
  /// wires the Case 1-3 table (pass the builder's has_predicted).
  PairPoolBuilder(size_t num_workers, size_t num_tasks,
                  size_t num_current_workers, size_t num_current_tasks,
                  size_t num_pairs, PairArena* arena, bool lazy_stats);

  /// Hand-build mode: appends `pair`, returns its id.
  int32_t Add(const CandidatePair& pair);

  /// Column mode: mutable columns for in-place filling (all `num_pairs`
  /// slots must be written before Build()).
  int32_t* worker_col() { return pool_.worker_col_; }
  int32_t* task_col() { return pool_.task_col_; }
  double* cost_mean_col() { return pool_.cost_mean_col_; }
  double* cost_var_col() { return pool_.cost_var_col_; }
  double* cost_lb_col() { return pool_.cost_lb_col_; }
  double* cost_ub_col() { return pool_.cost_ub_col_; }
  double* fixed_quality_col() { return pool_.fixed_quality_col_; }
  uint8_t* qkind_col() { return pool_.qkind_col_; }

  /// Finalizes: builds the CSR adjacency (and the lazy table in column
  /// mode). The builder is consumed.
  PairPool Build() &&;

 private:
  void AllocateColumns(size_t num_pairs, bool with_explicit_refs);
  void BuildCsr();

  PairPool pool_;
  std::vector<CandidatePair> staged_;  // hand-build mode only
  bool hand_mode_ = false;
  bool lazy_stats_ = false;
};

}  // namespace mqa

#endif  // MQA_CORE_PAIR_POOL_H_
