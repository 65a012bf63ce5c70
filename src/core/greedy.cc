#include "core/greedy.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "core/comparators.h"
#include "core/selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mqa {

namespace {
constexpr size_t kBlock = 16;
constexpr size_t kNone = static_cast<size_t>(-1);
constexpr double kDead = std::numeric_limits<double>::infinity();
}  // namespace

SkylineWalk::SkylineWalk(const PairPool& pool,
                         const std::vector<int32_t>& pair_ids)
    : pool_(pool) {
  // Contiguous keys with each quality mean read once: a comparator that
  // looks quality up in the pool's (lazy) tables is slow. Rounding to
  // float is monotone, so unequal cost hints order two costs exactly and
  // only equal hints need the pool's double.
  keys_.reserve(pair_ids.size());
  for (const int32_t id : pair_ids) {
    keys_.push_back(
        {pool.QualityMean(id), id, static_cast<float>(pool.CostMean(id))});
  }
  std::sort(keys_.begin(), keys_.end(), [&pool](const Key& a, const Key& b) {
    if (a.value != b.value) return a.value > b.value;
    if (a.cost_hint != b.cost_hint) return a.cost_hint < b.cost_hint;
    const double ca = pool.CostMean(a.id);
    const double cb = pool.CostMean(b.id);
    if (ca != cb) return ca < cb;
    return a.id < b.id;
  });
  for (Key& key : keys_) key.value = pool.CostMean(key.id);

  const size_t blocks = (keys_.size() + kBlock - 1) / kBlock;
  while (leaves_ < blocks) leaves_ *= 2;
  live_.assign(blocks, 0xFFFF);
  if (const size_t tail = keys_.size() % kBlock; tail != 0) {
    live_.back() = static_cast<uint16_t>((1u << tail) - 1);
  }
  tree_.assign(2 * leaves_, kDead);
  for (size_t p = 0; p < keys_.size(); ++p) {
    double& leaf = tree_[leaves_ + p / kBlock];
    leaf = std::min(leaf, keys_[p].value);
  }
  for (size_t i = leaves_ - 1; i >= 1; --i) {
    tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
  }
}

// First live position >= pos whose cost mean is <= threshold, or kNone.
size_t SkylineWalk::NextAtMost(size_t pos, double threshold) const {
  uint32_t from = 0xFFFFu << (pos % kBlock);  // the first block starts at pos
  for (size_t b = pos / kBlock; b < live_.size(); from = 0xFFFFu) {
    for (uint32_t m = live_[b] & from; m != 0; m &= m - 1) {
      const size_t p = b * kBlock + static_cast<size_t>(__builtin_ctz(m));
      if (keys_[p].value <= threshold) return p;
    }
    // Climb to the first subtree right of block b whose minimum
    // qualifies, then descend to its leftmost qualifying block.
    size_t i = leaves_ + b;
    do {
      while (i & 1) i >>= 1;
      if (i == 0) return kNone;
      ++i;
    } while (tree_[i] > threshold);
    while (i < leaves_) i = tree_[2 * i] <= threshold ? 2 * i : 2 * i + 1;
    b = i - leaves_;
  }
  return kNone;
}

void SkylineWalk::Kill(size_t pos) {
  const size_t b = pos / kBlock;
  live_[b] &= static_cast<uint16_t>(~(1u << (pos % kBlock)));
  double block_min = kDead;
  for (uint32_t m = live_[b]; m != 0; m &= m - 1) {
    const size_t p = b * kBlock + static_cast<size_t>(__builtin_ctz(m));
    block_min = std::min(block_min, keys_[p].value);
  }
  for (size_t i = leaves_ + b; i >= 1 && tree_[i] != block_min; i /= 2) {
    tree_[i] = block_min;
    if (i > 1) block_min = std::min(block_min, tree_[i ^ 1]);
  }
}

int64_t SkylineWalk::Walk(const std::vector<char>& worker_used,
                          const std::vector<char>& task_used,
                          const BudgetTracker& budget,
                          std::vector<int32_t>* skyline) {
  skyline->clear();
  int64_t steps = 0;
  // Cost means are finite, so the first live pair always qualifies while
  // fully dead blocks (kDead) never do.
  double threshold = std::numeric_limits<double>::max();
  size_t group = 0;  // first skyline entry of the current equal-cost run
  size_t pos = 0;
  while ((pos = NextAtMost(pos, threshold)) != kNone) {
    ++steps;
    const PairRef pair = pool_.pair(keys_[pos].id);
    if (worker_used[static_cast<size_t>(pair.worker_index())] ||
        task_used[static_cast<size_t>(pair.task_index())] ||
        budget.QuickReject(pair)) {
      Kill(pos);
      continue;
    }
    const double cost = keys_[pos].value;
    ++pos;
    if (cost < threshold) {
      threshold = cost;
      group = skyline->size();
    }
    // On a cost tie only the equal-cost run is cheap enough to prune.
    if (std::none_of(skyline->begin() + static_cast<long>(group),
                     skyline->end(), [&](int32_t id) {
                       return WeaklyDominatesForPruning(pool_.pair(id), pair);
                     })) {
      skyline->push_back(pair.id());
    }
  }
  return steps;
}

namespace {

// Number of distinct tasks of `pair_ids` not yet used: marks each one
// used as it is found, then clears exactly those marks.
size_t CountOpenTasks(const PairPool& pool,
                      const std::vector<int32_t>& pair_ids,
                      std::vector<char>* task_used) {
  std::vector<int32_t> open;
  for (const int32_t id : pair_ids) {
    const int32_t task = pool.TaskIndex(id);
    char& used = (*task_used)[static_cast<size_t>(task)];
    if (used == 0) {
      used = 1;
      open.push_back(task);
    }
  }
  for (const int32_t task : open) (*task_used)[static_cast<size_t>(task)] = 0;
  return open.size();
}

}  // namespace

void GreedySelect(const PairPool& pool, const std::vector<int32_t>& pair_ids,
                  std::vector<char>* worker_used, std::vector<char>* task_used,
                  BudgetTracker* budget, std::vector<int32_t>* selected) {
  // Span only above a real working set: GreedySelect is also the D&C leaf
  // solver, and a span per leaf would explode the trace.
  MQA_TRACE_SPAN_IF(pair_ids.size() >= 1024, "greedy/select",
                    static_cast<int64_t>(pair_ids.size()));
  // With every open task picked, no live pair is left to select.
  const size_t open_tasks = CountOpenTasks(pool, pair_ids, task_used);
  if (open_tasks == 0) return;
  SkylineWalk walk(pool, pair_ids);
  std::vector<int32_t> skyline;
  // Work counters stay local and reach the registry once per call, so
  // concurrent D&C leaves do not contend on them.
  int64_t iterations = 0, skyline_pairs = 0, walk_steps = 0, capped = 0;
  for (size_t picked = 0; picked < open_tasks; ++picked) {
    ++iterations;
    walk_steps += walk.Walk(*worker_used, *task_used, *budget, &skyline);
    skyline_pairs += static_cast<int64_t>(skyline.size());
    bool eq10_capped = false;
    // Lines 11-12: Eq. 9 + Eq. 10 selection.
    const int32_t best = SelectBestPair(pool, skyline, *budget, &eq10_capped);
    capped += eq10_capped;
    if (best < 0) break;

    const PairRef chosen = pool.pair(best);
    budget->Commit(chosen);
    (*worker_used)[static_cast<size_t>(chosen.worker_index())] = 1;
    (*task_used)[static_cast<size_t>(chosen.task_index())] = 1;
    selected->push_back(best);
  }
  MQA_METRIC_COUNT("mqa.greedy.iterations", iterations);
  MQA_METRIC_COUNT("mqa.greedy.skyline_pairs", skyline_pairs);
  MQA_METRIC_COUNT("mqa.greedy.walk_steps", walk_steps);
  MQA_METRIC_COUNT("mqa.greedy.eq10_capped", capped);
}

AssignmentResult EmitCurrentPairs(const ProblemInstance& instance,
                                  const PairPool& pool,
                                  const std::vector<int32_t>& selected) {
  (void)instance;
  AssignmentResult result;
  for (const int32_t id : selected) {
    const PairRef pair = pool.pair(id);
    if (pair.involves_predicted()) continue;  // line 14
    result.pairs.push_back({pair.worker_index(), pair.task_index()});
    result.total_cost += pair.cost_mean();
    result.total_quality += pair.quality_mean();
  }
  return result;
}

AssignmentResult RunGreedy(const ProblemInstance& instance, double delta,
                           const PairPoolOptions& pool_options) {
  PairPoolOptions options = pool_options;
  options.include_predicted = true;
  const PairPool pool = BuildPairPool(instance, options);
  std::vector<char> worker_used(instance.workers().size(), 0);
  std::vector<char> task_used(instance.tasks().size(), 0);
  BudgetTracker budget(instance.budget(), delta);

  std::vector<int32_t> ids(pool.size());
  std::iota(ids.begin(), ids.end(), 0);

  std::vector<int32_t> selected;
  GreedySelect(pool, ids, &worker_used, &task_used, &budget, &selected);
  return EmitCurrentPairs(instance, pool, selected);
}

}  // namespace mqa
