#include "core/merge.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "merge_oracle.h"

namespace mqa {
namespace {

// Pool with explicit pairs: (worker, task, cost, quality).
PairPool HandPool(int num_workers, int num_tasks,
                  const std::vector<std::tuple<int, int, double, double>>&
                      specs) {
  PairPoolBuilder builder(static_cast<size_t>(num_workers),
                          static_cast<size_t>(num_tasks));
  for (const auto& [w, t, c, q] : specs) {
    CandidatePair p;
    p.worker_index = w;
    p.task_index = t;
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
    builder.Add(p);
  }
  return std::move(builder).Build();
}

void ExpectNoWorkerConflicts(const PairPool& pool,
                             const std::vector<int32_t>& merged) {
  std::set<int32_t> workers;
  std::set<int32_t> tasks;
  for (const int32_t id : merged) {
    EXPECT_TRUE(workers.insert(pool.WorkerIndex(id)).second)
        << "worker " << pool.WorkerIndex(id) << " duplicated";
    EXPECT_TRUE(tasks.insert(pool.TaskIndex(id)).second)
        << "task " << pool.TaskIndex(id) << " duplicated";
  }
}

TEST(MergeTest, DisjointSetsConcatenate) {
  const PairPool pool =
      HandPool(2, 2, {{0, 0, 1.0, 2.0}, {1, 1, 1.0, 3.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  EXPECT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
}

TEST(MergeTest, ConflictKeepsBetterPairAndReassignsLoser) {
  // Worker 0 valid for both tasks; worker 1 valid for task 1 only
  // (the paper's Example 5 shape).
  const PairPool pool = HandPool(
      2, 2,
      {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}, {1, 1, 2.0, 3.0}});
  std::vector<int32_t> merged = {0};  // <w0, t0> from subproblem M1
  MergeResults(pool, &merged, {1});   // <w0, t1> from subproblem M2
  // <w0,t0> (q5) beats <w0,t1> (q2); t1 falls back to worker 1.
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  std::set<int32_t> ids(merged.begin(), merged.end());
  EXPECT_TRUE(ids.count(0) > 0);
  EXPECT_TRUE(ids.count(2) > 0);
}

TEST(MergeTest, ConflictIncomingWinsRewritesMerged) {
  const PairPool pool = HandPool(
      2, 2,
      {{0, 0, 1.0, 2.0}, {0, 1, 1.0, 5.0}, {1, 0, 2.0, 3.0}});
  std::vector<int32_t> merged = {0};  // <w0, t0> (q2)
  MergeResults(pool, &merged, {1});   // <w0, t1> (q5) wins
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  std::set<int32_t> ids(merged.begin(), merged.end());
  EXPECT_TRUE(ids.count(1) > 0);  // incoming kept
  EXPECT_TRUE(ids.count(2) > 0);  // t0 reassigned to w1
}

TEST(MergeTest, LoserTaskDroppedWhenNoWorkerLeft) {
  // Single worker valid for both tasks; no replacement exists.
  const PairPool pool =
      HandPool(1, 2, {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], 0);  // better pair survives, t1 unassigned
}

TEST(MergeTest, ReplacementPicksHighestQualityAvailable) {
  const PairPool pool = HandPool(
      3, 2,
      {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}, {1, 1, 2.0, 3.0},
       {2, 1, 2.0, 4.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  // t1's replacement should be worker 2 (q4 > q3).
  bool found = false;
  for (const int32_t id : merged) {
    if (pool.TaskIndex(id) == 1) {
      EXPECT_EQ(pool.WorkerIndex(id), 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MergeTest, MultipleConflictsResolvedInCostOrder) {
  // Workers 0 and 1 both conflict; each has a fallback worker.
  const PairPool pool = HandPool(
      4, 4,
      {{0, 0, 1.0, 5.0}, {1, 1, 1.0, 5.0},            // merged
       {0, 2, 3.0, 4.0}, {1, 3, 2.0, 4.0},            // incoming conflicts
       {2, 2, 1.0, 1.0}, {3, 3, 1.0, 1.0},            // fallbacks
       {2, 0, 1.0, 0.5}, {3, 1, 1.0, 0.5}});
  std::vector<int32_t> merged = {0, 1};
  MergeResults(pool, &merged, {2, 3});
  EXPECT_EQ(merged.size(), 4u);
  ExpectNoWorkerConflicts(pool, merged);
}

TEST(MergeTest, EmptyIncoming) {
  const PairPool pool = HandPool(1, 1, {{0, 0, 1.0, 1.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {});
  EXPECT_EQ(merged, (std::vector<int32_t>{0}));
}

TEST(MergeTest, EmptyMerged) {
  const PairPool pool = HandPool(1, 1, {{0, 0, 1.0, 1.0}});
  std::vector<int32_t> merged;
  MergeResults(pool, &merged, {0});
  EXPECT_EQ(merged, (std::vector<int32_t>{0}));
}

TEST(MergeTest, RandomizedStressNoConflictsEver) {
  // Random bipartite pools, random disjoint-task partial assignments with
  // deliberately overlapping workers; the merged result must always be a
  // valid partial matching and must not lose assignable tasks when a
  // replacement exists.
  Rng rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    const int num_workers = 4 + static_cast<int>(rng.UniformInt(0, 6));
    const int num_tasks = 4 + static_cast<int>(rng.UniformInt(0, 6));
    std::vector<std::tuple<int, int, double, double>> specs;
    for (int w = 0; w < num_workers; ++w) {
      for (int t = 0; t < num_tasks; ++t) {
        if (rng.Bernoulli(0.5)) {
          specs.emplace_back(w, t, rng.Uniform(0.5, 5.0),
                             rng.Uniform(0.5, 4.0));
        }
      }
    }
    const PairPool pool = HandPool(num_workers, num_tasks, specs);

    // Split tasks in two halves and pick one random pair per task.
    std::vector<int32_t> merged;
    std::vector<int32_t> incoming;
    for (int t = 0; t < num_tasks; ++t) {
      const PairIdSpan options = pool.PairsByTask(t);
      if (options.empty()) continue;
      const int32_t pick = options[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
      (t < num_tasks / 2 ? merged : incoming).push_back(pick);
    }
    // Deduplicate workers *within* each side (valid partial matchings).
    const auto dedupe = [&](std::vector<int32_t>* side) {
      std::set<int32_t> seen;
      std::vector<int32_t> out;
      for (const int32_t id : *side) {
        if (seen.insert(pool.WorkerIndex(id)).second) out.push_back(id);
      }
      *side = out;
    };
    dedupe(&merged);
    dedupe(&incoming);
    const size_t before = merged.size() + incoming.size();

    MergeResults(pool, &merged, incoming);
    ExpectNoWorkerConflicts(pool, merged);
    // Merging never grows the assignment beyond the input union.
    EXPECT_LE(merged.size(), before) << "trial " << trial;
  }
}

// ------------------------------------------------ dense == hash oracle

/// Random pool with forced ties: means on a coarse grid (equal quality,
/// equal cost), a share of uncertain pairs (the Eq. 7 branch of the
/// conflict rule), and few workers, so subproblem results collide.
PairPool TiedMergePool(Rng* rng, int num_workers, int num_tasks) {
  PairPoolBuilder builder(static_cast<size_t>(num_workers),
                          static_cast<size_t>(num_tasks));
  for (int w = 0; w < num_workers; ++w) {
    for (int t = 0; t < num_tasks; ++t) {
      if (!rng->Bernoulli(0.4)) continue;
      CandidatePair p;
      p.worker_index = w;
      p.task_index = t;
      const double c = 0.5 * static_cast<double>(rng->UniformInt(1, 6));
      const double q = 0.25 * static_cast<double>(rng->UniformInt(1, 8));
      p.involves_predicted = rng->Bernoulli(0.3);
      if (p.involves_predicted) {
        p.cost = Uncertain(c, 0.04, c - 0.3, c + 0.3);
        p.quality = Uncertain(q, 0.04, q - 0.3, q + 0.3);
        p.existence = 0.8;
      } else {
        p.cost = Uncertain::Fixed(c);
        p.quality = Uncertain::Fixed(q);
      }
      builder.Add(p);
    }
  }
  return std::move(builder).Build();
}

/// One subproblem's result over `tasks`: a random partial matching.
std::vector<int32_t> RandomResult(const PairPool& pool, Rng* rng,
                                  const std::vector<int32_t>& tasks) {
  std::set<int32_t> workers;
  std::vector<int32_t> result;
  for (const int32_t task : tasks) {
    const PairIdSpan row = pool.PairsByTask(task);
    if (row.empty() || rng->Bernoulli(0.1)) continue;
    const int32_t id = row[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(row.size()) - 1))];
    if (workers.insert(pool.WorkerIndex(id)).second) result.push_back(id);
  }
  return result;
}

// The dense per-worker scratch of MergeResults against the hash-table
// merge it replaced (tests/merge_oracle.h): identical merged sequences,
// element by element. Each trial merges up to 12 subproblem results in a
// row, as one D&C node merges its children, and pool sizes go up and
// down between trials, so scratch left stale by any earlier call on
// this thread would show.
TEST(MergeDifferentialTest, DenseScratchMatchesHashOracle) {
  Rng rng(2024);
  int64_t conflicts = 0;
  int64_t replacements = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int num_workers = static_cast<int>(rng.UniformInt(1, 40));
    const int num_tasks = static_cast<int>(rng.UniformInt(1, 60));
    const PairPool pool = TiedMergePool(&rng, num_workers, num_tasks);
    std::vector<int32_t> order(static_cast<size_t>(num_tasks));
    std::iota(order.begin(), order.end(), 0);
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(k) - 1))]);
    }
    const size_t groups = static_cast<size_t>(rng.UniformInt(1, 12));
    std::vector<int32_t> merged;
    std::vector<int32_t> oracle;
    for (size_t g = 0; g < groups; ++g) {
      const std::vector<int32_t> tasks(
          order.begin() + static_cast<long>(order.size() * g / groups),
          order.begin() + static_cast<long>(order.size() * (g + 1) / groups));
      const std::vector<int32_t> incoming = RandomResult(pool, &rng, tasks);
      std::set<int32_t> merged_workers;
      for (const int32_t id : merged) {
        merged_workers.insert(pool.WorkerIndex(id));
      }
      const int64_t expected_conflicts = std::count_if(
          incoming.begin(), incoming.end(), [&](int32_t id) {
            return merged_workers.count(pool.WorkerIndex(id)) > 0;
          });

      const MergeWork work = MergeResults(pool, &merged, incoming);
      testing_util::OracleMergeResults(pool, &oracle, incoming);
      ASSERT_EQ(merged, oracle) << "trial " << trial << " group " << g;
      EXPECT_EQ(work.conflicts, expected_conflicts);
      EXPECT_LE(work.replacements, work.conflicts);
      conflicts += work.conflicts;
      replacements += work.replacements;
    }
  }
  EXPECT_GT(conflicts, 1000);
  EXPECT_GT(replacements, 500);
}

}  // namespace
}  // namespace mqa
