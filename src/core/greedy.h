#ifndef MQA_CORE_GREEDY_H_
#define MQA_CORE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "core/budget.h"
#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// The pruned candidate set S_p of paper Fig. 5 lines 4-10, kept across
/// greedy iterations: the (quality mean up, cost mean down) Pareto
/// skyline of the live pairs. Pairs are sorted once by (quality mean
/// desc, cost mean asc, id asc) as 16-byte keys; a min-cost tree over
/// 16-pair blocks then yields S_p as the run of prefix-minimum costs in
/// O(|S_p| log P) (tie rule: src/core/README.md). `pool` must outlive the
/// walk.
class SkylineWalk {
 public:
  SkylineWalk(const PairPool& pool, const std::vector<int32_t>& pair_ids);

  /// Replaces `*skyline` with S_p in sorted order and returns the number
  /// of positions visited. A reached pair whose worker or task is used,
  /// or that the budget quick-rejects (line 6), is deleted for good.
  int64_t Walk(const std::vector<char>& worker_used,
               const std::vector<char>& task_used, const BudgetTracker& budget,
               std::vector<int32_t>* skyline);

 private:
  size_t NextAtMost(size_t pos, double threshold) const;
  void Kill(size_t pos);

  // One sorted position, 16 bytes: `value` is the quality mean while
  // sorting, then the cost mean, so the walk reads costs without touching
  // the pool's columns. `cost_hint` (the cost mean as a float) fills the
  // padding and breaks most quality ties without a pool lookup.
  struct Key {
    double value;
    int32_t id;
    float cost_hint;
  };

  const PairPool& pool_;
  std::vector<Key> keys_;       // pairs in sort order
  std::vector<uint16_t> live_;  // per block: bit k = position 16b+k alive
  std::vector<double> tree_;    // min live cost per block, leaves from leaves_
  size_t leaves_ = 1;           // power of two >= number of blocks
};

/// The greedy selection loop shared by MQA_Greedy (paper Fig. 5), the
/// divide-and-conquer leaf case, and MQA_Budget_Constrained_Selection
/// (paper Fig. 9 lines 17-28).
///
/// Each iteration walks S_p over the still-active pairs of `pair_ids`
/// (SkylineWalk), selects the Eq. 10 best admissible pair, commits it
/// against `budget`, and marks its endpoints used. Stops when no pair is
/// admissible, or once every distinct task of `pair_ids` that was unused
/// on entry has its pair: the next walk would then delete every pair and
/// select nothing, so a single-task D&C leaf ends after its one pick.
/// Adds its work to the mqa.greedy.* counters once per call.
///
/// Selected pair ids are appended to `selected`. `worker_used` /
/// `task_used` must be sized to the instance's worker/task vectors.
void GreedySelect(const PairPool& pool, const std::vector<int32_t>& pair_ids,
                  std::vector<char>* worker_used, std::vector<char>* task_used,
                  BudgetTracker* budget, std::vector<int32_t>* selected);

/// Converts selected pool pairs into an AssignmentResult, keeping only
/// current-current pairs (paper Fig. 5 line 14) and accumulating their
/// fixed costs and qualities.
AssignmentResult EmitCurrentPairs(const ProblemInstance& instance,
                                  const PairPool& pool,
                                  const std::vector<int32_t>& selected);

/// MQA_Greedy end-to-end: build the pair pool over current and predicted
/// entities, run the greedy loop with a fresh budget tracker (two pots of
/// B, Eq. 9 confidence `delta`), and emit the current-current pairs.
/// `pool_options.include_predicted` is overridden to true; the remaining
/// fields pick the candidate-generation index (see valid_pairs.h).
AssignmentResult RunGreedy(const ProblemInstance& instance, double delta,
                           const PairPoolOptions& pool_options = {});

}  // namespace mqa

#endif  // MQA_CORE_GREEDY_H_
