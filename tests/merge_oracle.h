#ifndef MQA_TESTS_MERGE_ORACLE_H_
#define MQA_TESTS_MERGE_ORACLE_H_

// The reference MQA_Merge (paper Fig. 8) with hash-table bookkeeping: an
// unordered_map from worker to merged position and an unordered_set of
// used workers, rebuilt on every call. Kept only as the oracle the dense
// per-worker scratch of core/merge.cc is differentially tested against.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/comparators.h"
#include "core/pair_pool.h"

namespace mqa {
namespace testing_util {

// True when pair `a` should win a head-to-head conflict against `b`.
inline bool OraclePairBeats(const PairRef& a, const PairRef& b) {
  if (Dominates(a, b)) return true;
  if (Dominates(b, a)) return false;
  const double pr = ProbQualityGreater(a, b);
  if (pr > 0.5) return true;
  if (pr < 0.5) return false;
  return a.cost_mean() <= b.cost_mean();
}

// Best replacement pair for `task` whose worker is not in `used_workers`;
// -1 when none exists.
inline int32_t OracleBestAvailablePairForTask(
    const PairPool& pool, int32_t task,
    const std::unordered_set<int32_t>& used_workers) {
  int32_t best = -1;
  for (const int32_t id : pool.PairsByTask(task)) {
    if (used_workers.count(pool.WorkerIndex(id)) > 0) continue;
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

/// Same contract as MergeResults (core/merge.h).
inline void OracleMergeResults(const PairPool& pool,
                               std::vector<int32_t>* merged,
                               const std::vector<int32_t>& incoming) {
  // Index the accumulated assignment by worker.
  std::unordered_map<int32_t, size_t> merged_by_worker;
  std::unordered_set<int32_t> used_workers;
  for (size_t pos = 0; pos < merged->size(); ++pos) {
    const int32_t worker = pool.WorkerIndex((*merged)[pos]);
    merged_by_worker[worker] = pos;
    used_workers.insert(worker);
  }
  std::vector<int32_t> incoming_mut = incoming;
  for (const int32_t id : incoming_mut) {
    used_workers.insert(pool.WorkerIndex(id));
  }

  // Conflicting workers, most expensive incoming pair first (Fig. 8
  // line 3).
  std::vector<size_t> conflict_positions;
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    if (merged_by_worker.count(pool.WorkerIndex(incoming_mut[pos])) > 0) {
      conflict_positions.push_back(pos);
    }
  }
  std::sort(conflict_positions.begin(), conflict_positions.end(),
            [&](size_t a, size_t b) {
              const double ca = pool.CostMean(incoming_mut[a]);
              const double cb = pool.CostMean(incoming_mut[b]);
              if (ca != cb) return ca > cb;
              return a < b;
            });

  std::vector<char> drop_incoming(incoming_mut.size(), 0);
  for (const size_t pos : conflict_positions) {
    const int32_t incoming_id = incoming_mut[pos];
    const PairRef pair_s = pool.pair(incoming_id);
    const auto it = merged_by_worker.find(pair_s.worker_index());
    MQA_CHECK(it != merged_by_worker.end()) << "conflict disappeared";
    const size_t merged_pos = it->second;
    const int32_t merged_id = (*merged)[merged_pos];
    const PairRef pair_m = pool.pair(merged_id);

    if (OraclePairBeats(pair_s, pair_m)) {
      // Incoming wins: reassign the merged pair's task to another worker.
      const int32_t repl = OracleBestAvailablePairForTask(
          pool, pair_m.task_index(), used_workers);
      merged_by_worker.erase(it);
      if (repl >= 0) {
        (*merged)[merged_pos] = repl;
        merged_by_worker[pool.WorkerIndex(repl)] = merged_pos;
        used_workers.insert(pool.WorkerIndex(repl));
      } else {
        // No replacement: the task goes unassigned this instance.
        (*merged)[merged_pos] = -1;
      }
    } else {
      // Merged wins: reassign the incoming pair's task.
      const int32_t repl = OracleBestAvailablePairForTask(
          pool, pair_s.task_index(), used_workers);
      if (repl >= 0) {
        incoming_mut[pos] = repl;
        used_workers.insert(pool.WorkerIndex(repl));
      } else {
        drop_incoming[pos] = 1;
      }
    }
  }

  // Union (Fig. 8 line 10), skipping dropped entries.
  merged->erase(std::remove(merged->begin(), merged->end(), -1),
                merged->end());
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    if (!drop_incoming[pos]) merged->push_back(incoming_mut[pos]);
  }
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_MERGE_ORACLE_H_
