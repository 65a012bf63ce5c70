#ifndef MQA_TESTS_GREEDY_ORACLE_H_
#define MQA_TESTS_GREEDY_ORACLE_H_

// The reference greedy loop: paper Fig. 5 as written, rebuilding the
// pruned candidate set S_p from every active pair on every iteration.
// O(iterations x pairs) — kept only as the oracle the skyline walk of
// core/greedy.h is differentially tested against.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/budget.h"
#include "core/comparators.h"
#include "core/pair_pool.h"
#include "core/selection.h"

namespace mqa {
namespace testing_util {

/// S_p of Fig. 5 lines 7-10: a pair enters only if no present candidate
/// prunes it, and on entry it evicts the candidates it prunes.
class OracleCandidateSet {
 public:
  explicit OracleCandidateSet(const PairPool& pool) : pool_(pool) {}

  bool Offer(int32_t pair_id) {
    const PairRef pair = pool_.pair(pair_id);
    for (const int32_t cand_id : ids_) {
      const PairRef cand = pool_.pair(cand_id);
      if (Dominates(cand, pair) || WeaklyDominatesForPruning(cand, pair)) {
        return false;
      }
    }
    size_t kept = 0;
    for (size_t k = 0; k < ids_.size(); ++k) {
      const PairRef cand = pool_.pair(ids_[k]);
      if (Dominates(pair, cand) || WeaklyDominatesForPruning(pair, cand)) {
        continue;  // evicted
      }
      ids_[kept++] = ids_[k];
    }
    ids_.resize(kept);
    ids_.push_back(pair_id);
    return true;
  }

  const std::vector<int32_t>& candidates() const { return ids_; }
  size_t size() const { return ids_.size(); }
  void Clear() { ids_.clear(); }

 private:
  const PairPool& pool_;
  std::vector<int32_t> ids_;
};

/// `ids` sorted the way the greedy loop offers pairs: quality mean desc,
/// cost mean asc, id asc.
inline std::vector<int32_t> OracleOfferOrder(const PairPool& pool,
                                             std::vector<int32_t> ids) {
  std::sort(ids.begin(), ids.end(), [&pool](int32_t a, int32_t b) {
    const double qa = pool.QualityMean(a);
    const double qb = pool.QualityMean(b);
    if (qa != qb) return qa > qb;
    const double ca = pool.CostMean(a);
    const double cb = pool.CostMean(b);
    if (ca != cb) return ca < cb;
    return a < b;
  });
  return ids;
}

/// True when the pair's endpoints are free and its lower-bound cost
/// still fits its budget pot (Fig. 5 line 6).
inline bool OracleLive(const PairPool& pool, int32_t id,
                       const std::vector<char>& worker_used,
                       const std::vector<char>& task_used,
                       const BudgetTracker& budget) {
  const PairRef pair = pool.pair(id);
  return !worker_used[static_cast<size_t>(pair.worker_index())] &&
         !task_used[static_cast<size_t>(pair.task_index())] &&
         !budget.QuickReject(pair);
}

/// S_p over the live pairs of `ids`, in offer order.
inline std::vector<int32_t> OracleCandidates(
    const PairPool& pool, const std::vector<int32_t>& ids,
    const std::vector<char>& worker_used, const std::vector<char>& task_used,
    const BudgetTracker& budget) {
  OracleCandidateSet sp(pool);
  for (const int32_t id : OracleOfferOrder(pool, ids)) {
    if (OracleLive(pool, id, worker_used, task_used, budget)) sp.Offer(id);
  }
  return sp.candidates();
}

/// Same contract as GreedySelect (core/greedy.h).
inline void OracleGreedySelect(const PairPool& pool,
                               const std::vector<int32_t>& pair_ids,
                               std::vector<char>* worker_used,
                               std::vector<char>* task_used,
                               BudgetTracker* budget,
                               std::vector<int32_t>* selected) {
  std::vector<int32_t> active = OracleOfferOrder(pool, pair_ids);
  OracleCandidateSet sp(pool);
  while (!active.empty()) {
    size_t kept = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      if (OracleLive(pool, active[k], *worker_used, *task_used, *budget)) {
        active[kept++] = active[k];
      }
    }
    active.resize(kept);
    if (active.empty()) break;

    sp.Clear();
    for (const int32_t id : active) sp.Offer(id);

    const int32_t best = SelectBestPair(pool, sp.candidates(), *budget);
    if (best < 0) break;

    const PairRef chosen = pool.pair(best);
    budget->Commit(chosen);
    (*worker_used)[static_cast<size_t>(chosen.worker_index())] = 1;
    (*task_used)[static_cast<size_t>(chosen.task_index())] = 1;
    selected->push_back(best);
  }
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_GREEDY_ORACLE_H_
