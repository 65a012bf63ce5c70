#include "core/budget.h"

#include <cmath>

#include "common/logging.h"
#include "stats/normal.h"

namespace mqa {

namespace {
// Absolute slack for floating-point budget comparisons.
constexpr double kEps = 1e-9;
}  // namespace

BudgetTracker::BudgetTracker(double budget, double delta)
    : budget_(budget), delta_(delta) {
  MQA_CHECK(budget >= 0.0) << "negative budget";
  MQA_CHECK(delta >= 0.0 && delta < 1.0) << "delta must lie in [0, 1)";
}

bool BudgetTracker::QuickReject(const PairRef& pair) const {
  const double spent =
      pair.involves_predicted() ? future_lb_spent_ : current_spent_;
  return pair.cost_lb() > budget_ - spent + kEps;
}

bool BudgetTracker::Admits(const PairRef& pair) const {
  const double cost_mean = pair.cost_mean();
  if (!pair.involves_predicted()) {
    return current_spent_ + cost_mean <= budget_ + kEps;
  }
  const double cost_variance = pair.cost_variance();
  const double headroom = budget_ - future_lb_spent_;
  if (cost_variance <= 0.0) {
    return cost_mean <= headroom + kEps;
  }
  // Eq. 9: rule the pair out when Pr{sum lb + c̃ <= B} <= delta.
  const double pr =
      StdNormalCdf((headroom - cost_mean) / std::sqrt(cost_variance));
  return pr > delta_;
}

void BudgetTracker::Commit(const PairRef& pair) {
  if (!pair.involves_predicted()) {
    current_spent_ += pair.cost_mean();
  } else {
    future_lb_spent_ += pair.cost_lb();
  }
}

}  // namespace mqa
