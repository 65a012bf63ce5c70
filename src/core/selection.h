#ifndef MQA_CORE_SELECTION_H_
#define MQA_CORE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "core/budget.h"
#include "core/pair_pool.h"

namespace mqa {

/// Selects the best pair among the candidate set S_p (paper Fig. 5
/// line 11):
///   1. rule out candidates violating the Eq. 9 chance-constrained budget
///      (BudgetTracker::Admits);
///   2. among the survivors pick the pair maximizing the Eq. 10 product
///      of pairwise quality-increase probabilities (computed in log space
///      to avoid underflow);
///   3. ties break toward the lower expected traveling cost, then the
///      lower pair id (determinism).
/// Returns the chosen pair id, or -1 when no candidate is admissible.
/// `eq10_capped` (optional) is set to true when step 2 ran over only the
/// kMaxEq10Candidates strongest admissible pairs.
int32_t SelectBestPair(const PairPool& pool,
                       const std::vector<int32_t>& candidate_ids,
                       const BudgetTracker& budget,
                       bool* eq10_capped = nullptr);

}  // namespace mqa

#endif  // MQA_CORE_SELECTION_H_
