#include "core/selection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/comparators.h"

namespace mqa {

int32_t SelectBestPair(const PairPool& pool,
                       const std::vector<int32_t>& candidate_ids,
                       const BudgetTracker& budget, bool* eq10_capped) {
  // Eq. 9 budget filter.
  std::vector<int32_t> admissible;
  admissible.reserve(candidate_ids.size());
  for (const int32_t id : candidate_ids) {
    if (budget.Admits(pool.pair(id))) {
      admissible.push_back(id);
    }
  }
  if (admissible.empty()) return -1;
  if (admissible.size() == 1) return admissible[0];

  // The Eq. 10 product is quadratic in the candidate count. Restrict the
  // evaluation to the strongest candidates by expected quality: a pair
  // far down the quality ranking accumulates many product terms below
  // 0.5, so the winner is always near the top. kMaxEq10Candidates = 48
  // keeps per-iteration selection cost bounded without measurable effect
  // on outcomes.
  constexpr size_t kMaxEq10Candidates = 48;
  if (admissible.size() > kMaxEq10Candidates) {
    std::partial_sort(
        admissible.begin(),
        admissible.begin() + static_cast<long>(kMaxEq10Candidates),
        admissible.end(), [&pool](int32_t a, int32_t b) {
          const double qa = pool.QualityMean(a);
          const double qb = pool.QualityMean(b);
          if (qa != qb) return qa > qb;
          return a < b;
        });
    admissible.resize(kMaxEq10Candidates);
    if (eq10_capped != nullptr) *eq10_capped = true;
  }

  // Eq. 10 in log space: log Pr_q,max = sum_log Pr{q_i > q_other}.
  int32_t best_id = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const int32_t id : admissible) {
    const PairRef pair = pool.pair(id);
    double log_score = 0.0;
    for (const int32_t other_id : admissible) {
      if (other_id == id) continue;
      const double pr = ProbQualityGreater(pair, pool.pair(other_id));
      if (pr <= 0.0) {
        log_score = -std::numeric_limits<double>::infinity();
        break;
      }
      log_score += std::log(pr);
    }
    const double cost = pair.cost_mean();
    const bool better =
        log_score > best_score ||
        (log_score == best_score &&
         (cost < best_cost || (cost == best_cost && id < best_id)));
    if (better) {
      best_score = log_score;
      best_cost = cost;
      best_id = id;
    }
  }
  return best_id;
}

}  // namespace mqa
