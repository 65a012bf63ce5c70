#ifndef MQA_INDEX_TASK_INDEX_CACHE_H_
#define MQA_INDEX_TASK_INDEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "index/spatial_index.h"
#include "model/task.h"

namespace mqa {

/// What one TaskIndexCache::BeginInstance call did to its index, for the
/// epoch telemetry (mqa.index.* counters).
struct IndexChurnStats {
  /// Tasks matched to a live entry (kept their bucket).
  int64_t carried = 0;
  /// Arrivals (no live match) and departures (live entry not matched).
  int64_t inserted = 0;
  int64_t erased = 0;
  /// True when the insert+erase volume crossed the rebuild threshold and
  /// the cache bulk-rebuilt instead of churning entries one by one.
  bool bulk_rebuilt = false;
};

/// Maintains a task spatial index *across* the simulator's epochs so
/// BuildPairPool does not re-bucket every task every epoch: the per-epoch
/// index cost is proportional to the churn, not the pool. Tasks are
/// bucketed by their location box and carry their deadline as the
/// QueryReachable pruning bound, so worker-centric reachability scans can
/// skip entries (and, in GridIndex, whole cells) a worker cannot reach in
/// time.
///
/// Tasks carried over between epochs keep their buckets: on each
/// BeginInstance the incoming task vector is matched against the live
/// entries by (id, location box); only arrivals are inserted and only
/// departures erased. Entries are stored under stable internal slots;
/// view() exposes a read-only SpatialIndex whose ids are positions in the
/// task vector most recently passed to BeginInstance — exactly the id
/// convention ProblemInstance::task_index expects.
///
/// Deadlines: entries are inserted with the deadline at first sight. A
/// carried-over task's remaining deadline shrinks each epoch while its
/// entry keeps the inserted value — a stale *upper bound*, which
/// QueryReachable pruning tolerates by design (stale maxima only weaken
/// pruning; the exact CanReach filter downstream stays authoritative).
///
/// Rebuild break-even: per-entry churn beats a rebuild only while the
/// churn is small. Past rebuild_threshold() (default: insert+erase volume
/// above 50% of the incoming vector) BeginInstance bulk-rebuilds the warm
/// index instead — one BulkLoad at the right grid resolution, with
/// *refreshed* deadlines (refreshing only sharpens pruning; query result
/// sets are unchanged because the downstream exact filter is
/// authoritative either way). The decision is made from a pure matching
/// pass, so the mutation cost is paid exactly once either way.
///
/// Concurrency: BeginInstance mutates the cache and must be exclusive;
/// between BeginInstance calls, view() queries are const pass-throughs
/// and safe from any number of threads concurrently.
class TaskIndexCache {
 public:
  /// kAuto resolves to the grid backend (the cache only pays off at the
  /// scales where the grid wins); any concrete backend — grid, brute,
  /// R*-tree — passes through, so the streaming engine's incremental
  /// maintenance gets new backends for free.
  explicit TaskIndexCache(IndexBackend backend = IndexBackend::kAuto);
  ~TaskIndexCache();

  /// Syncs the cache to `tasks` (the full epoch vector, current plus
  /// predicted). Invalidates the previous view().
  void BeginInstance(const std::vector<Task>& tasks);

  /// What the last BeginInstance did (churn counts, rebuild decision).
  const IndexChurnStats& last_churn() const { return last_churn_; }

  /// Churn volume (inserts + erases) as a fraction of the incoming task
  /// vector above which BeginInstance bulk-rebuilds. 0 rebuilds on any
  /// churn; anything >= 2 never rebuilds a warm index (volume is bounded
  /// by tasks + previous entries).
  double rebuild_threshold() const { return rebuild_threshold_; }
  void set_rebuild_threshold(double threshold) {
    rebuild_threshold_ = threshold;
  }

  /// Index over the tasks of the last BeginInstance call; entry ids are
  /// indices into that vector. Valid until the next BeginInstance.
  const SpatialIndex* view() const;

  /// Entries currently bucketed in the underlying index.
  size_t size() const { return index_->size(); }

 private:
  class View;

  /// One bulk build at the right resolution instead of incremental
  /// insert/rebalance churn: replaces the slot store (slot j = task j)
  /// and loads every task with a *fresh* deadline. Callers must clear
  /// live_ first (or have it empty).
  void BulkRebuild(const std::vector<Task>& tasks);

  int32_t AllocateSlot(const BBox& box);

  std::unique_ptr<SpatialIndex> index_;  // entry ids are internal slots
  std::vector<BBox> slot_boxes_;
  std::vector<int32_t> free_slots_;
  // Live (id -> slot) entries of the previous epoch; multimap so a
  // malformed stream with duplicate ids degrades to churn, not corruption.
  std::unordered_multimap<int64_t, int32_t> live_;
  std::vector<int32_t> slot_to_index_;
  std::vector<int32_t> match_;  // pass-1 scratch, capacity recycled
  std::unique_ptr<View> view_;
  IndexChurnStats last_churn_;
  double rebuild_threshold_ = 0.5;
};

}  // namespace mqa

#endif  // MQA_INDEX_TASK_INDEX_CACHE_H_
