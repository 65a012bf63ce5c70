#include "index/task_index_cache.h"

#include <utility>

#include "common/logging.h"

namespace mqa {

/// Read-only adapter translating internal slots to epoch task indices.
/// Queries are const pass-throughs to the underlying index, so the view
/// inherits its concurrency guarantee: any number of threads may query
/// one view concurrently between BeginInstance calls.
class TaskIndexCache::View final : public SpatialIndex {
 public:
  void Reset(const SpatialIndex* index,
             const std::vector<int32_t>* slot_to_index, size_t num_tasks) {
    index_ = index;
    slot_to_index_ = slot_to_index;
    num_tasks_ = num_tasks;
  }

  void BulkLoad(const std::vector<IndexEntry>&) override {
    MQA_CHECK(false) << "TaskIndexCache view is read-only";
  }
  using SpatialIndex::Insert;
  void Insert(const IndexEntry&) override {
    MQA_CHECK(false) << "TaskIndexCache view is read-only";
  }
  bool Erase(int64_t, const BBox&) override {
    MQA_CHECK(false) << "TaskIndexCache view is read-only";
    return false;
  }

  void QueryRadius(const BBox& query, double radius,
                   const RadiusVisitor& visit) const override {
    index_->QueryRadius(
        query, radius, [&](int64_t slot, const BBox& box, double min_dist) {
          visit((*slot_to_index_)[static_cast<size_t>(slot)], box, min_dist);
        });
  }

  void QueryReachable(const BBox& query, double velocity, double max_deadline,
                      const RadiusVisitor& visit) const override {
    index_->QueryReachable(
        query, velocity, max_deadline,
        [&](int64_t slot, const BBox& box, double min_dist) {
          visit((*slot_to_index_)[static_cast<size_t>(slot)], box, min_dist);
        });
  }

  void QueryRect(const BBox& rect, const RectVisitor& visit) const override {
    index_->QueryRect(rect, [&](int64_t slot, const BBox& box) {
      visit((*slot_to_index_)[static_cast<size_t>(slot)], box);
    });
  }

  size_t size() const override { return num_tasks_; }
  const char* name() const override { return index_->name(); }

 private:
  const SpatialIndex* index_ = nullptr;
  const std::vector<int32_t>* slot_to_index_ = nullptr;
  size_t num_tasks_ = 0;
};

TaskIndexCache::TaskIndexCache(IndexBackend backend)
    : index_(CreateSpatialIndex(backend == IndexBackend::kAuto
                                    ? IndexBackend::kGrid
                                    : backend)),
      view_(std::make_unique<View>()) {}

TaskIndexCache::~TaskIndexCache() = default;

const SpatialIndex* TaskIndexCache::view() const { return view_.get(); }

void TaskIndexCache::BeginInstance(const std::vector<Task>& tasks) {
  if (live_.empty()) {
    // Nothing to carry over (first epoch, or the no-reuse baseline).
    last_churn_ = IndexChurnStats{};
    last_churn_.inserted = static_cast<int64_t>(tasks.size());
    BulkRebuild(tasks);
    return;
  }

  // Pass 1 — pure matching (no index mutation): resolve every task to a
  // live slot or -1, and count the churn the sync would cost. Every live
  // slot was allocated before this call, so `claimed` sized to the
  // current slot store covers them all.
  std::vector<char> claimed(slot_boxes_.size(), 0);
  match_.assign(tasks.size(), -1);
  size_t matched = 0;
  for (size_t j = 0; j < tasks.size(); ++j) {
    const Task& t = tasks[j];
    auto range = live_.equal_range(t.id);
    for (auto it = range.first; it != range.second; ++it) {
      const int32_t s = it->second;
      if (!claimed[static_cast<size_t>(s)] &&
          slot_boxes_[static_cast<size_t>(s)] == t.location) {
        match_[j] = s;
        claimed[static_cast<size_t>(s)] = 1;
        ++matched;
        break;
      }
    }
  }
  const size_t inserts = tasks.size() - matched;
  const size_t erases = live_.size() - matched;
  last_churn_ = IndexChurnStats{};
  last_churn_.carried = static_cast<int64_t>(matched);
  last_churn_.inserted = static_cast<int64_t>(inserts);
  last_churn_.erased = static_cast<int64_t>(erases);

  // Break-even: past the threshold, per-entry Insert/Erase (plus the grid
  // imbalance a drifted population accumulates) costs more than one bulk
  // build at a freshly tuned resolution.
  if (static_cast<double>(inserts + erases) >
      rebuild_threshold_ * static_cast<double>(tasks.size())) {
    last_churn_.bulk_rebuilt = true;
    live_.clear();
    BulkRebuild(tasks);
    return;
  }

  // Pass 2 — apply: insert arrivals, then erase departures (in that order
  // so freed slots are never handed to this epoch's arrivals, matching
  // the historical slot-numbering behavior).
  std::unordered_multimap<int64_t, int32_t> next_live;
  next_live.reserve(tasks.size());
  slot_to_index_.assign(slot_boxes_.size(), -1);
  for (size_t j = 0; j < tasks.size(); ++j) {
    const Task& t = tasks[j];
    int32_t slot = match_[j];
    if (slot < 0) {
      slot = AllocateSlot(t.location);
      // Carried-over tasks keep the deadline they were inserted with even
      // as the true deadline shrinks — a stale *upper bound*, which
      // QueryReachable's pruning tolerates by design (it only ever makes
      // pruning less sharp, never wrong).
      index_->Insert({slot, t.location, t.deadline});
      if (static_cast<size_t>(slot) < claimed.size()) {
        claimed[static_cast<size_t>(slot)] = 1;  // reused a freed slot
      }
    }
    next_live.emplace(t.id, slot);
    if (static_cast<size_t>(slot) >= slot_to_index_.size()) {
      slot_to_index_.resize(static_cast<size_t>(slot) + 1, -1);
    }
    slot_to_index_[static_cast<size_t>(slot)] = static_cast<int32_t>(j);
  }

  // Departures: live entries nothing claimed this epoch.
  for (const auto& [id, slot] : live_) {
    if (claimed[static_cast<size_t>(slot)]) continue;
    const bool erased =
        index_->Erase(slot, slot_boxes_[static_cast<size_t>(slot)]);
    MQA_CHECK(erased) << "task index cache out of sync at slot " << slot;
    free_slots_.push_back(slot);
  }
  live_ = std::move(next_live);

  view_->Reset(index_.get(), &slot_to_index_, tasks.size());
}

void TaskIndexCache::BulkRebuild(const std::vector<Task>& tasks) {
  slot_boxes_.clear();
  free_slots_.clear();
  slot_to_index_.assign(tasks.size(), -1);
  std::vector<IndexEntry> entries;
  entries.reserve(tasks.size());
  for (size_t j = 0; j < tasks.size(); ++j) {
    const Task& t = tasks[j];
    slot_boxes_.push_back(t.location);
    entries.push_back({static_cast<int64_t>(j), t.location, t.deadline});
    live_.emplace(t.id, static_cast<int32_t>(j));
    slot_to_index_[j] = static_cast<int32_t>(j);
  }
  index_->BulkLoad(entries);
  view_->Reset(index_.get(), &slot_to_index_, tasks.size());
}

int32_t TaskIndexCache::AllocateSlot(const BBox& box) {
  if (!free_slots_.empty()) {
    const int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slot_boxes_[static_cast<size_t>(slot)] = box;
    return slot;
  }
  slot_boxes_.push_back(box);
  return static_cast<int32_t>(slot_boxes_.size() - 1);
}

}  // namespace mqa
