#include "core/merge.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "core/comparators.h"

namespace mqa {

namespace {

// True when pair `a` should win a head-to-head conflict against `b`.
bool PairBeats(const PairRef& a, const PairRef& b) {
  if (Dominates(a, b)) return true;
  if (Dominates(b, a)) return false;
  const double pr = ProbQualityGreater(a, b);
  if (pr > 0.5) return true;
  if (pr < 0.5) return false;
  return a.cost_mean() <= b.cost_mean();
}

// Per-worker merge state, indexed by pool worker index: kFree, kUsed, or
// the worker's position in the accumulated assignment (which implies
// used). Thread-local and all kFree between calls: a call resets exactly
// the workers it touched, so concurrent D&C nodes each merge in their own
// scratch.
constexpr int32_t kFree = -1;
constexpr int32_t kUsed = -2;

struct MergeScratch {
  std::vector<int32_t> state;
  std::vector<int32_t> touched;  // workers whose state left kFree

  void Use(int32_t worker) {
    int32_t& s = state[static_cast<size_t>(worker)];
    if (s == kFree) {
      s = kUsed;
      touched.push_back(worker);
    }
  }
  void Place(int32_t worker, size_t pos) {
    Use(worker);
    state[static_cast<size_t>(worker)] = static_cast<int32_t>(pos);
  }
  void Clear() {
    for (const int32_t worker : touched) {
      state[static_cast<size_t>(worker)] = kFree;
    }
    touched.clear();
  }
};

// Best replacement pair for `task` whose worker is still free; -1 when
// none exists.
int32_t BestAvailablePairForTask(const PairPool& pool, int32_t task,
                                 const MergeScratch& scratch) {
  int32_t best = -1;
  for (const int32_t id : pool.PairsByTask(task)) {
    if (scratch.state[static_cast<size_t>(pool.WorkerIndex(id))] != kFree) {
      continue;
    }
    if (best < 0) {
      best = id;
      continue;
    }
    const double q_cand = pool.QualityMean(id);
    const double q_cur = pool.QualityMean(best);
    if (q_cand > q_cur ||
        (q_cand == q_cur && pool.CostMean(id) < pool.CostMean(best))) {
      best = id;
    }
  }
  return best;
}

}  // namespace

MergeWork MergeResults(const PairPool& pool, std::vector<int32_t>* merged,
                       const std::vector<int32_t>& incoming) {
  thread_local MergeScratch scratch;
  if (scratch.state.size() < pool.num_workers()) {
    scratch.state.resize(pool.num_workers(), kFree);
  }
  // Index the accumulated assignment by worker.
  for (size_t pos = 0; pos < merged->size(); ++pos) {
    scratch.Place(pool.WorkerIndex((*merged)[pos]), pos);
  }
  std::vector<int32_t> incoming_mut = incoming;

  // Conflicting workers, most expensive incoming pair first (Fig. 8
  // line 3).
  std::vector<size_t> conflict_positions;
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    const int32_t worker = pool.WorkerIndex(incoming_mut[pos]);
    if (scratch.state[static_cast<size_t>(worker)] >= 0) {
      conflict_positions.push_back(pos);
    }
    scratch.Use(worker);
  }
  std::sort(conflict_positions.begin(), conflict_positions.end(),
            [&](size_t a, size_t b) {
              const double ca = pool.CostMean(incoming_mut[a]);
              const double cb = pool.CostMean(incoming_mut[b]);
              if (ca != cb) return ca > cb;
              return a < b;
            });

  MergeWork work;
  work.conflicts = static_cast<int64_t>(conflict_positions.size());
  std::vector<char> drop_incoming(incoming_mut.size(), 0);
  for (const size_t pos : conflict_positions) {
    const int32_t incoming_id = incoming_mut[pos];
    const PairRef pair_s = pool.pair(incoming_id);
    int32_t& slot = scratch.state[static_cast<size_t>(pair_s.worker_index())];
    MQA_CHECK(slot >= 0) << "conflict disappeared";
    const size_t merged_pos = static_cast<size_t>(slot);
    const int32_t merged_id = (*merged)[merged_pos];
    const PairRef pair_m = pool.pair(merged_id);

    if (PairBeats(pair_s, pair_m)) {
      // Incoming wins: reassign the merged pair's task to another worker.
      const int32_t repl =
          BestAvailablePairForTask(pool, pair_m.task_index(), scratch);
      slot = kUsed;
      if (repl >= 0) {
        ++work.replacements;
        (*merged)[merged_pos] = repl;
        scratch.Place(pool.WorkerIndex(repl), merged_pos);
      } else {
        // No replacement: the task goes unassigned this instance.
        (*merged)[merged_pos] = -1;
      }
    } else {
      // Merged wins: reassign the incoming pair's task.
      const int32_t repl =
          BestAvailablePairForTask(pool, pair_s.task_index(), scratch);
      if (repl >= 0) {
        ++work.replacements;
        incoming_mut[pos] = repl;
        scratch.Use(pool.WorkerIndex(repl));
      } else {
        drop_incoming[pos] = 1;
      }
    }
  }
  scratch.Clear();

  // Union (Fig. 8 line 10), skipping dropped entries.
  merged->erase(std::remove(merged->begin(), merged->end(), -1),
                merged->end());
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    if (!drop_incoming[pos]) merged->push_back(incoming_mut[pos]);
  }
  return work;
}

}  // namespace mqa
