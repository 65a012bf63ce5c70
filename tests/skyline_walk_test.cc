// The skyline walk behind GreedySelect (core/greedy.h), checked against
// the rebuild-every-iteration oracle (tests/greedy_oracle.h):
//
//   * skyline and tie cases of S_p, on the oracle and on the walk;
//   * SelectBestPair over the sets either produces;
//   * the premise the walk rests on — cost/quality lb <= mean <= ub, and
//     Dominates(a, b) => WeaklyDominatesForPruning(a, b);
//   * differential equality of the selected sequences on random pools
//     with forced ties and on every epoch pool of the trace corpus, for
//     greedy and for the D&C leaf and budget-reselect subsets — which
//     also checks the stop rule (a call ends once every open task of its
//     input has its pair);
//   * the mqa.greedy.* and mqa.dc.* work counters, pinned on the golden
//     trace.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/budget.h"
#include "core/comparators.h"
#include "core/cost_model.h"
#include "core/decomposition.h"
#include "core/greedy.h"
#include "core/merge.h"
#include "core/selection.h"
#include "greedy_oracle.h"
#include "obs/metrics.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "trace/trace.h"

namespace mqa {
namespace {

using testing_util::OracleCandidates;
using testing_util::OracleCandidateSet;
using testing_util::OracleGreedySelect;

PairPool FixedPool(const std::vector<std::pair<double, double>>& cost_quality) {
  PairPoolBuilder builder(cost_quality.size(), cost_quality.size());
  int32_t k = 0;
  for (const auto& [c, q] : cost_quality) {
    CandidatePair p;
    p.worker_index = k;
    p.task_index = k;
    ++k;
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
    builder.Add(p);
  }
  return std::move(builder).Build();
}

std::vector<int32_t> AllIds(const PairPool& pool) {
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return ids;
}

// Upper bound on endpoint indices in the hand-built pools below.
constexpr size_t kMaxEndpoints = 64;

/// S_p of a fresh walk (no endpoint used, ample budget), checked equal to
/// the oracle's candidate set on the way.
std::vector<int32_t> FreshSkyline(const PairPool& pool) {
  const std::vector<char> free_endpoints(kMaxEndpoints, 0);
  const BudgetTracker budget(1e9, 0.5);
  SkylineWalk walk(pool, AllIds(pool));
  std::vector<int32_t> skyline;
  walk.Walk(free_endpoints, free_endpoints, budget, &skyline);
  EXPECT_EQ(skyline, OracleCandidates(pool, AllIds(pool), free_endpoints,
                                      free_endpoints, budget));
  return skyline;
}

bool Contains(const std::vector<int32_t>& ids, int32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// ------------------------------------------------- skyline and tie cases

TEST(SkylineCaseTest, KeepsSkyline) {
  // (cost, quality): pair 1 dominates pair 0 probabilistically; pair 2 is
  // incomparable with pair 1 (cheaper, lower quality).
  const auto pool = FixedPool({{3.0, 2.0}, {1.0, 5.0}, {0.5, 1.0}});
  OracleCandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));  // evicts 0
  EXPECT_TRUE(set.Offer(2));
  EXPECT_FALSE(Contains(set.candidates(), 0));
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{1, 2}));
}

TEST(SkylineCaseTest, RejectsDominatedNewcomer) {
  const auto pool = FixedPool({{1.0, 5.0}, {3.0, 2.0}});
  OracleCandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_FALSE(set.Offer(1));
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{0}));
}

TEST(SkylineCaseTest, ExactDuplicatesDeduplicate) {
  // Identical moments: the second pair is interchangeable with the first
  // and is dropped (weak-dominance rule, DESIGN.md §3.8).
  const auto pool = FixedPool({{2.0, 3.0}, {2.0, 3.0}});
  OracleCandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_FALSE(set.Offer(1));
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{0}));
}

TEST(SkylineCaseTest, EqualQualityCheaperCostPrunes) {
  // Same quality, strictly cheaper: the cheap pair replaces the pricey
  // one (weak dominance with a strict cost edge).
  const auto pool = FixedPool({{2.0, 3.0}, {1.0, 3.0}});
  OracleCandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));
  EXPECT_EQ(set.candidates(), (std::vector<int32_t>{1}));
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{1}));
}

TEST(SkylineCaseTest, EqualCostHigherQualityPrunes) {
  // Same cost, strictly better quality: the equal-cost run prunes.
  const auto pool = FixedPool({{2.0, 2.0}, {2.0, 3.0}});
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{1}));
}

PairPool EqualMeansPool() {
  // Pairs 0 and 1: equal means, different quality spread — neither a
  // duplicate nor strictly better on either dimension. Pair 2 has their
  // cost and a lower quality mean.
  PairPoolBuilder builder(3, 3);
  const Uncertain qualities[] = {Uncertain(3.0, 0.5, 1.0, 5.0),
                                 Uncertain(3.0, 2.0, 0.0, 6.0),
                                 Uncertain(2.5, 0.5, 1.0, 4.0)};
  for (int32_t k = 0; k < 3; ++k) {
    CandidatePair p;
    p.worker_index = k;
    p.task_index = k;
    p.cost = Uncertain::Fixed(2.0);
    p.quality = qualities[k];
    p.involves_predicted = true;
    p.existence = 1.0;
    builder.Add(p);
  }
  return std::move(builder).Build();
}

TEST(SkylineCaseTest, EqualMeansDifferentVarianceCoexist) {
  const PairPool pool = EqualMeansPool();
  OracleCandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));
  EXPECT_FALSE(set.Offer(2));
  // The walk keeps the whole equal-cost run and checks pair 2 against it.
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{0, 1}));
}

TEST(SkylineCaseTest, SurvivorsAreMutuallyNonDominated) {
  const auto pool = FixedPool({{1.0, 1.0},
                               {2.0, 2.0},
                               {3.0, 3.0},
                               {1.5, 0.5},
                               {2.5, 2.6},
                               {0.5, 2.9}});
  // Pair 5 (cost 0.5, q 2.9) prunes 0, 1, 3 and 4; pair 2 has the top
  // quality. Emitted in sorted (quality desc) order.
  EXPECT_EQ(FreshSkyline(pool), (std::vector<int32_t>{2, 5}));
}

TEST(SkylineCaseTest, DeletedPairsUncoverTheirShadow) {
  // Pair 0 hides pair 1 until its worker is used; then pair 1 fails the
  // budget quick-reject and is deleted as well, uncovering pair 2.
  const auto pool = FixedPool({{1.0, 5.0}, {3.0, 2.0}, {2.0, 1.0}});
  std::vector<char> worker_used(kMaxEndpoints, 0);
  const std::vector<char> task_used(kMaxEndpoints, 0);
  BudgetTracker budget(2.5, 0.5);
  SkylineWalk walk(pool, AllIds(pool));
  std::vector<int32_t> skyline;
  EXPECT_EQ(walk.Walk(worker_used, task_used, budget, &skyline), 1);
  EXPECT_EQ(skyline, (std::vector<int32_t>{0}));
  worker_used[0] = 1;
  EXPECT_EQ(walk.Walk(worker_used, task_used, budget, &skyline), 3);
  EXPECT_EQ(skyline, (std::vector<int32_t>{2}));
  // Deleted pairs are not visited again.
  EXPECT_EQ(walk.Walk(worker_used, task_used, budget, &skyline), 1);
  EXPECT_EQ(skyline, (std::vector<int32_t>{2}));
}

TEST(SkylineCaseTest, EmptyInput) {
  const auto pool = FixedPool({});
  EXPECT_TRUE(FreshSkyline(pool).empty());
}

// ------------------------------------------------------- SelectBestPair

TEST(SelectBestPairTest, PicksHighestQualityUnderBudget) {
  const auto pool = FixedPool({{1.0, 5.0}, {0.5, 3.0}, {9.0, 8.0}});
  BudgetTracker budget(5.0, 0.5);
  // Pair 2 has the best quality but exceeds the budget.
  EXPECT_EQ(SelectBestPair(pool, FreshSkyline(pool), budget), 0);
}

TEST(SelectBestPairTest, TieBreaksTowardCheaper) {
  const auto pool = FixedPool({{2.0, 3.0}, {1.0, 3.0}});
  BudgetTracker budget(10.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, FreshSkyline(pool), budget), 1);
  // Also when both reach the selection step.
  EXPECT_EQ(SelectBestPair(pool, {0, 1}, budget), 1);
}

TEST(SelectBestPairTest, NoAdmissibleReturnsMinusOne) {
  const auto pool = FixedPool({{7.0, 5.0}});
  BudgetTracker budget(5.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, FreshSkyline(pool), budget), -1);
}

TEST(SelectBestPairTest, EmptyCandidates) {
  const auto pool = FixedPool({});
  BudgetTracker budget(5.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, {}, budget), -1);
}

TEST(SelectBestPairTest, TopKCapStillFindsMaxQuality) {
  // More candidates than the Eq. 10 evaluation cap (48): the winner must
  // still be the highest-quality admissible pair.
  std::vector<std::pair<double, double>> specs;
  for (int i = 0; i < 200; ++i) {
    specs.push_back({1.0 + 0.01 * i, 1.0 + 0.01 * i});
  }
  specs.push_back({0.5, 9.0});  // the clear winner, id 200
  const auto pool = FixedPool(specs);
  BudgetTracker budget(100.0, 0.5);
  bool capped = false;
  EXPECT_EQ(SelectBestPair(pool, AllIds(pool), budget, &capped), 200);
  EXPECT_TRUE(capped);
  capped = false;
  EXPECT_EQ(SelectBestPair(pool, {3, 200}, budget, &capped), 200);
  EXPECT_FALSE(capped);
}

TEST(SelectBestPairTest, CapRespectsBudgetFilterFirst) {
  // The best-quality candidates violate the budget; the winner is the
  // best *admissible* one even past the cap boundary.
  std::vector<std::pair<double, double>> specs;
  for (int i = 0; i < 100; ++i) {
    specs.push_back({50.0, 5.0 + 0.01 * i});  // inadmissible (budget 10)
  }
  specs.push_back({1.0, 2.0});  // admissible, id 100
  const auto pool = FixedPool(specs);
  BudgetTracker budget(10.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, AllIds(pool), budget), 100);
}

// ------------------------------------------------------------- premise

/// lb <= mean <= ub on both dimensions, for every pair of the pool.
/// Returns the number of predicted pairs (lazy Case 1-3 statistics).
int64_t ExpectBoundsBracketMeans(const PairPool& pool) {
  int64_t predicted = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(pool.size()); ++id) {
    predicted += pool.InvolvesPredicted(id);
    const PairRef p = pool.pair(id);
    EXPECT_LE(p.cost_lb(), p.cost_mean()) << "pair " << id;
    EXPECT_LE(p.cost_mean(), p.cost_ub()) << "pair " << id;
    const Uncertain q = p.EffectiveQuality();
    EXPECT_LE(q.lb(), q.mean()) << "pair " << id;
    EXPECT_LE(q.mean(), q.ub()) << "pair " << id;
  }
  return predicted;
}

/// Random pools that force every tie the walk has to reproduce: means on
/// a coarse grid (equal quality, equal cost), repeated moments (exact
/// duplicates), equal means with a different spread, narrow and wide
/// bounds (Lemma 4.1 bound dominance fires only between narrow ones),
/// predicted pairs on the Eq. 9 pot, and few endpoints (conflicts).
PairPool TiedPool(Rng* rng, int n, int endpoints) {
  PairPoolBuilder builder(static_cast<size_t>(endpoints),
                          static_cast<size_t>(endpoints));
  CandidatePair prev;
  for (int i = 0; i < n; ++i) {
    CandidatePair p;
    if (i > 0 && rng->Bernoulli(0.15)) {
      p = prev;  // exact moment duplicate
    } else {
      const double c = 0.5 * static_cast<double>(rng->UniformInt(1, 8));
      const double q = 0.25 * static_cast<double>(rng->UniformInt(1, 8));
      const double spread = rng->Bernoulli(0.5) ? 0.05 : 0.6;
      const double var = rng->Bernoulli(0.5) ? 0.01 : 0.09;
      p.involves_predicted = rng->Bernoulli(0.4);
      if (p.involves_predicted) {
        p.cost = Uncertain(c, var, c - spread, c + spread);
        p.quality = Uncertain(q, var, q - spread, q + spread);
        p.existence = 0.8;
      } else {
        p.cost = Uncertain::Fixed(c);
        p.quality = Uncertain::Fixed(q);
      }
    }
    p.worker_index = static_cast<int32_t>(rng->UniformInt(0, endpoints - 1));
    p.task_index = static_cast<int32_t>(rng->UniformInt(0, endpoints - 1));
    builder.Add(p);
    prev = p;
  }
  return std::move(builder).Build();
}

TEST(SkylinePremiseTest, BoundDominanceImpliesWeakDominance) {
  Rng rng(41);
  int64_t bound_dominance = 0;
  for (int round = 0; round < 30; ++round) {
    const PairPool pool = TiedPool(&rng, 40, 12);
    ExpectBoundsBracketMeans(pool);
    for (int32_t a = 0; a < static_cast<int32_t>(pool.size()); ++a) {
      for (int32_t b = 0; b < static_cast<int32_t>(pool.size()); ++b) {
        if (!Dominates(pool.pair(a), pool.pair(b))) continue;
        ++bound_dominance;
        EXPECT_TRUE(WeaklyDominatesForPruning(pool.pair(a), pool.pair(b)))
            << "round " << round << " pairs " << a << " " << b;
      }
    }
  }
  EXPECT_GT(bound_dominance, 0);  // the generator exercises Lemma 4.1
}

// --------------------------------------------------------- differential

/// Runs GreedySelect and the oracle from the same state; expects the
/// same selected sequence element by element and returns it.
std::vector<int32_t> ExpectSameSelection(const PairPool& pool,
                                         const std::vector<int32_t>& ids,
                                         const std::vector<char>& worker_used,
                                         const std::vector<char>& task_used,
                                         double budget_b) {
  std::vector<char> w1 = worker_used, t1 = task_used;
  std::vector<char> w2 = worker_used, t2 = task_used;
  BudgetTracker b1(budget_b, 0.5), b2(budget_b, 0.5);
  std::vector<int32_t> walked, oracle;
  GreedySelect(pool, ids, &w1, &t1, &b1, &walked);
  OracleGreedySelect(pool, ids, &w2, &t2, &b2, &oracle);
  EXPECT_EQ(walked, oracle);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(t1, t2);
  return oracle;
}

TEST(SkylineDifferentialTest, RandomPoolsWithForcedTies) {
  Rng rng(7);
  int64_t selections = 0;
  for (int round = 0; round < 200; ++round) {
    const int endpoints = static_cast<int>(rng.UniformInt(2, 24));
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    const PairPool pool = TiedPool(&rng, n, endpoints);
    const std::vector<char> none(static_cast<size_t>(endpoints), 0);
    const double budget_b = 0.5 * static_cast<double>(rng.UniformInt(0, 40));
    selections +=
        static_cast<int64_t>(ExpectSameSelection(pool, AllIds(pool), none,
                                                 none, budget_b)
                                 .size());

    // A random subset (D&C-style), with some endpoints already taken.
    std::vector<int32_t> subset;
    for (int32_t id = 0; id < static_cast<int32_t>(pool.size()); ++id) {
      if (rng.Bernoulli(0.5)) subset.push_back(id);
    }
    std::vector<char> worker_used = none, task_used = none;
    for (size_t k = 0; k < none.size(); ++k) {
      worker_used[k] = rng.Bernoulli(0.25);
      task_used[k] = rng.Bernoulli(0.25);
    }
    ExpectSameSelection(pool, subset, worker_used, task_used, budget_b);

    // Zero budget: only zero-cost pairs could fit; nothing here does.
    EXPECT_TRUE(ExpectSameSelection(pool, AllIds(pool), none, none, 0.0)
                    .empty());
  }
  EXPECT_GT(selections, 1000);
}

// The stop rule: GreedySelect ends once every task of its input that was
// open on entry has its pair, where the oracle walks on until nothing is
// live. Both must select the same pairs on the sets D&C hands it: single
// task rows (leaves, at most one pick) and reselect-shaped sets (one pair
// per task, workers shared), with and without a task already used.
TEST(SkylineDifferentialTest, StopRuleOnLeafRowsAndReselectSets) {
  Rng rng(29);
  int64_t leaf_picks = 0;
  int64_t reselect_picks = 0;
  for (int round = 0; round < 200; ++round) {
    const int endpoints = static_cast<int>(rng.UniformInt(2, 16));
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    const PairPool pool = TiedPool(&rng, n, endpoints);
    const std::vector<char> none(static_cast<size_t>(endpoints), 0);
    const double budget_b = 0.5 * static_cast<double>(rng.UniformInt(1, 40));
    std::vector<int32_t> reselect;
    for (int32_t task = 0; task < endpoints; ++task) {
      const PairIdSpan row = pool.PairsByTask(task);
      if (row.empty()) continue;
      const std::vector<int32_t> ids(row.begin(), row.end());
      const std::vector<int32_t> picked =
          ExpectSameSelection(pool, ids, none, none, budget_b);
      EXPECT_LE(picked.size(), 1u);
      leaf_picks += static_cast<int64_t>(picked.size());
      reselect.push_back(ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
    }
    reselect_picks += static_cast<int64_t>(
        ExpectSameSelection(pool, reselect, none, none, budget_b).size());
    std::vector<char> task_used = none;
    task_used[static_cast<size_t>(rng.UniformInt(0, endpoints - 1))] = 1;
    ExpectSameSelection(pool, reselect, none, task_used, budget_b);
  }
  EXPECT_GT(leaf_picks, 1000);
  EXPECT_GT(reselect_picks, 500);
}

// A leaf stops after its one pick instead of walking (and deleting) the
// rest of its row; a two-task input stops after its second pick.
TEST(GreedyStopRuleTest, EndsAfterEveryOpenTaskIsPicked) {
#if defined(MQA_OBS_DISABLED)
  GTEST_SKIP() << "metrics compiled out";
#endif
  PairPoolBuilder builder(8, 2);
  for (int32_t w = 0; w < 8; ++w) {
    for (int32_t t = 0; t < 2; ++t) {
      CandidatePair p;
      p.worker_index = w;
      p.task_index = t;
      p.cost = Uncertain::Fixed(1.0 + 0.1 * w);
      p.quality = Uncertain::Fixed(2.0 - 0.1 * w + 0.05 * t);
      builder.Add(p);
    }
  }
  const PairPool pool = std::move(builder).Build();
  Counter* iterations =
      MetricsRegistry::Get().counter("mqa.greedy.iterations");
  for (const size_t tasks : {size_t{1}, size_t{2}}) {
    const PairIdSpan row = pool.PairsByTask(0);
    std::vector<int32_t> ids(row.begin(), row.end());
    if (tasks == 2) {
      const PairIdSpan second = pool.PairsByTask(1);
      ids.insert(ids.end(), second.begin(), second.end());
    }
    std::vector<char> worker_used(8, 0), task_used(2, 0);
    BudgetTracker budget(100.0, 0.5);
    std::vector<int32_t> selected;
    const int64_t before = iterations->value();
    GreedySelect(pool, ids, &worker_used, &task_used, &budget, &selected);
    EXPECT_EQ(selected.size(), tasks);
    EXPECT_EQ(iterations->value() - before, static_cast<int64_t>(tasks));
  }
}

const RangeQualityModel& CorpusQuality() {
  static const RangeQualityModel quality(1.0, 2.0, 13);
  return quality;
}

// Tallies for the corpus sweep.
struct CorpusCounts {
  int64_t pools = 0;
  int64_t predicted_pairs = 0;
  int64_t greedy_selected = 0;
  int64_t dc_leaves = 0;
  int64_t dc_reselects = 0;
};

/// GreedyOver of core/divide_conquer.cc: fresh state, instance budget.
std::vector<int32_t> CheckedGreedyOver(const ProblemInstance& instance,
                                       const PairPool& pool,
                                       const std::vector<int32_t>& ids) {
  const std::vector<char> workers(instance.workers().size(), 0);
  const std::vector<char> tasks(instance.tasks().size(), 0);
  return ExpectSameSelection(pool, ids, workers, tasks, instance.budget());
}

bool WithinBudgetUpperBound(const PairPool& pool,
                            const std::vector<int32_t>& selected,
                            double budget) {
  double current_ub = 0.0;
  double future_ub = 0.0;
  for (const int32_t id : selected) {
    (pool.InvolvesPredicted(id) ? future_ub : current_ub) += pool.CostUb(id);
  }
  return current_ub <= budget + 1e-9 && future_ub <= budget + 1e-9;
}

/// The MQA_D&C recursion (core/divide_conquer.cc, sequential), with the
/// differential check at every leaf solve and budget reselection.
std::vector<int32_t> CheckedDivideConquer(const ProblemInstance& instance,
                                          const PairPool& pool,
                                          const Subproblem& problem,
                                          CorpusCounts* counts) {
  if (problem.task_indices.empty()) return {};
  if (problem.num_tasks() == 1) {
    ++counts->dc_leaves;
    return CheckedGreedyOver(instance, pool, problem.pair_ids);
  }
  const double degree = static_cast<double>(problem.pair_ids.size()) /
                        static_cast<double>(problem.num_tasks());
  const int g = EstimateBestBranching(
      static_cast<int64_t>(problem.num_tasks()), degree);
  std::vector<int32_t> merged;
  for (const Subproblem& sub :
       DecomposeTasks(instance, pool, problem.task_indices, g)) {
    std::vector<int32_t> result;
    if (sub.num_tasks() > 1) {
      result = CheckedDivideConquer(instance, pool, sub, counts);
    } else {
      ++counts->dc_leaves;
      result = CheckedGreedyOver(instance, pool, sub.pair_ids);
    }
    MergeResults(pool, &merged, result);
  }
  if (WithinBudgetUpperBound(pool, merged, instance.budget())) return merged;
  ++counts->dc_reselects;
  return CheckedGreedyOver(instance, pool, merged);
}

/// Pass-through assigner that, on every epoch's instance, builds the
/// greedy/D&C pool and runs the premise and differential checks on it.
class CheckingAssigner : public Assigner {
 public:
  CheckingAssigner(std::unique_ptr<Assigner> inner, CorpusCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    {
      PairPoolOptions options;
      options.include_predicted = true;
      const PairPool pool = BuildPairPool(instance, options);
      ++counts_->pools;
      counts_->predicted_pairs += ExpectBoundsBracketMeans(pool);
      counts_->greedy_selected += static_cast<int64_t>(
          CheckedGreedyOver(instance, pool, AllIds(pool)).size());

      Subproblem root;
      for (size_t j = 0; j < instance.tasks().size(); ++j) {
        const PairIdSpan ids = pool.PairsByTask(static_cast<int32_t>(j));
        if (ids.empty()) continue;
        root.task_indices.push_back(static_cast<int32_t>(j));
        root.pair_ids.insert(root.pair_ids.end(), ids.begin(), ids.end());
      }
      CheckedDivideConquer(instance, pool, root, counts_);
    }
    return inner_->Assign(instance);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Assigner> inner_;
  CorpusCounts* counts_;
};

class CorpusDifferentialTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(CorpusDifferentialTest, EveryEpochPoolMatchesTheOracle) {
  const auto loaded = TraceReader::ReadFile(std::string(MQA_TEST_DATA_DIR) +
                                            "/" + GetParam());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  CorpusCounts counts;
  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
    Simulator sim(testing_util::PropertySimConfig(), &CorpusQuality());
    CheckingAssigner assigner(CreateAssigner(kind), &counts);
    const auto summary = sim.Run(loaded.value().ToArrivalStream(), &assigner);
    ASSERT_TRUE(summary.ok()) << summary.status();
  }
  EXPECT_GT(counts.pools, 0);
  EXPECT_GT(counts.predicted_pairs, 0);
  EXPECT_GT(counts.greedy_selected, 0);
  EXPECT_GT(counts.dc_leaves, 0);
  EXPECT_GT(counts.dc_reselects, 0);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusDifferentialTest,
                         ::testing::Values("golden_small.trace.csv",
                                           "bursty_small.trace.csv"));

// -------------------------------------------------------- work counters

struct GreedyWork {
  int64_t iterations, skyline_pairs, walk_steps, eq10_capped;
  bool operator==(const GreedyWork& o) const {
    return iterations == o.iterations && skyline_pairs == o.skyline_pairs &&
           walk_steps == o.walk_steps && eq10_capped == o.eq10_capped;
  }
};

std::ostream& operator<<(std::ostream& out, const GreedyWork& w) {
  return out << "{" << w.iterations << ", " << w.skyline_pairs << ", "
             << w.walk_steps << ", " << w.eq10_capped << "}";
}

GreedyWork GoldenTraceWork(AssignerKind kind, int threads) {
  const auto loaded = TraceReader::ReadFile(std::string(MQA_TEST_DATA_DIR) +
                                            "/golden_small.trace.csv");
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return {};
  SimulatorConfig config = testing_util::PropertySimConfig();
  config.num_threads = threads;
  Simulator sim(config, &CorpusQuality());
  auto assigner = CreateAssigner(kind);
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.Reset();
  EXPECT_TRUE(sim.Run(loaded.value().ToArrivalStream(), assigner.get()).ok());
  return {registry.counter("mqa.greedy.iterations")->value(),
          registry.counter("mqa.greedy.skyline_pairs")->value(),
          registry.counter("mqa.greedy.walk_steps")->value(),
          registry.counter("mqa.greedy.eq10_capped")->value()};
}

// Pins the deterministic work of the greedy loop on the golden trace. A
// regression to per-iteration rescans of the pool moves walk_steps by
// orders of magnitude; a change to S_p, the Eq. 10 cap or the stop rule
// moves the rest. Intentional changes update the constants
// (docs/OBSERVABILITY.md).
TEST(GreedyWorkCounterTest, PinnedOnGoldenTraceAtAnyThreadCount) {
#if defined(MQA_OBS_DISABLED)
  GTEST_SKIP() << "metrics compiled out";
#endif
  const GreedyWork greedy{72, 219, 1399, 0};
  const GreedyWork dc{197, 461, 577, 0};
  for (const int threads : {1, 4}) {
    EXPECT_EQ(GoldenTraceWork(AssignerKind::kGreedy, threads), greedy)
        << threads << " threads";
    EXPECT_EQ(GoldenTraceWork(AssignerKind::kDivideConquer, threads), dc)
        << threads << " threads";
  }
}

struct DcWork {
  int64_t nodes, leaves, merge_conflicts, replacements, reselects;
  bool operator==(const DcWork& o) const {
    return nodes == o.nodes && leaves == o.leaves &&
           merge_conflicts == o.merge_conflicts &&
           replacements == o.replacements && reselects == o.reselects;
  }
};

std::ostream& operator<<(std::ostream& out, const DcWork& w) {
  return out << "{" << w.nodes << ", " << w.leaves << ", "
             << w.merge_conflicts << ", " << w.replacements << ", "
             << w.reselects << "}";
}

// Pins the D&C recursion's work on the golden trace: the decomposition
// (nodes, leaves), MQA_Merge's conflict resolution and the Fig. 9 budget
// reselections. The subproblem fan-out must not change any of them.
TEST(DcWorkCounterTest, PinnedOnGoldenTraceAtAnyThreadCount) {
#if defined(MQA_OBS_DISABLED)
  GTEST_SKIP() << "metrics compiled out";
#endif
  const DcWork expected{80, 77, 57, 53, 4};
  for (const int threads : {1, 4}) {
    GoldenTraceWork(AssignerKind::kDivideConquer, threads);
    MetricsRegistry& registry = MetricsRegistry::Get();
    const DcWork work{registry.counter("mqa.dc.nodes")->value(),
                      registry.counter("mqa.dc.leaves")->value(),
                      registry.counter("mqa.dc.merge_conflicts")->value(),
                      registry.counter("mqa.dc.replacements")->value(),
                      registry.counter("mqa.dc.reselects")->value()};
    EXPECT_EQ(work, expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace mqa
