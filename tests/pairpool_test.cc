// The columnar arena-backed PairPool and its lazy-statistics contract:
//
//  * lazy vs. eager materialization of the Cases 1-3 quality/existence
//    statistics is byte-identical at the pool level and for greedy's
//    assignment, and every assigner {greedy, D&C, random, exact} gives
//    the same assignment whichever of {1, 2, 4, 8} threads x index
//    backends first touches the lazy statistics;
//  * a PairArena reused across "epochs" (Reset between builds, the
//    simulator's pattern) never leaks stale data into a later pool and
//    stops allocating once warm;
//  * the lazy counters report what the consuming algorithm touched, and
//    the covered-task count only current-current pairs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/divide_conquer.h"
#include "core/exact_assigner.h"
#include "core/greedy.h"
#include "core/random_assigner.h"
#include "core/valid_pairs.h"
#include "exec/pair_arena.h"
#include "exec/parallel_runner.h"
#include "index/spatial_index.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

void ExpectSamePair(const CandidatePair& a, const CandidatePair& b,
                    size_t k) {
  EXPECT_EQ(a.worker_index, b.worker_index) << "pair " << k;
  EXPECT_EQ(a.task_index, b.task_index) << "pair " << k;
  EXPECT_EQ(a.involves_predicted, b.involves_predicted) << "pair " << k;
  EXPECT_EQ(a.existence, b.existence) << "pair " << k;
  EXPECT_EQ(a.cost.mean(), b.cost.mean()) << "pair " << k;
  EXPECT_EQ(a.cost.variance(), b.cost.variance()) << "pair " << k;
  EXPECT_EQ(a.cost.lb(), b.cost.lb()) << "pair " << k;
  EXPECT_EQ(a.cost.ub(), b.cost.ub()) << "pair " << k;
  EXPECT_EQ(a.quality.mean(), b.quality.mean()) << "pair " << k;
  EXPECT_EQ(a.quality.variance(), b.quality.variance()) << "pair " << k;
  EXPECT_EQ(a.quality.lb(), b.quality.lb()) << "pair " << k;
  EXPECT_EQ(a.quality.ub(), b.quality.ub()) << "pair " << k;
}

void ExpectSamePool(const PairPool& a, const PairPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ExpectSamePair(a.GetPair(static_cast<int32_t>(k)),
                   b.GetPair(static_cast<int32_t>(k)), k);
  }
}

void ExpectSameAssignment(const AssignmentResult& a,
                          const AssignmentResult& b, const char* what) {
  EXPECT_EQ(a.pairs, b.pairs) << what;
  EXPECT_EQ(a.total_quality, b.total_quality) << what;
  EXPECT_EQ(a.total_cost, b.total_cost) << what;
}

/// Mixed current/predicted instance (worker and task side both).
ProblemInstance MixedInstance(Rng* rng, const QualityModel* quality,
                              int num_current, int num_pred, double budget) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_current; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.05, 0.5)));
  }
  for (int i = 0; i < num_pred; ++i) {
    workers.push_back(MakePredictedWorker(
        5000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.05, 0.5)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_current; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.2, 2.0)));
  }
  for (int j = 0; j < num_pred; ++j) {
    tasks.push_back(MakePredictedTask(
        5000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.2, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(num_current),
                         std::move(tasks), static_cast<size_t>(num_current),
                         quality, 1.0, budget);
}

// ------------------------------------------------- lazy == eager, pools

TEST(LazyStatsProperty, PoolValuesMatchEagerAcrossBackends) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(211);
  for (int trial = 0; trial < 10; ++trial) {
    const ProblemInstance inst =
        MixedInstance(&rng, &quality, static_cast<int>(rng.UniformInt(5, 40)),
                      static_cast<int>(rng.UniformInt(0, 12)),
                      rng.Uniform(1.0, 10.0));
    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid}) {
      PairPoolOptions options;
      options.backend = backend;
      const PairPool lazy = BuildPairPool(inst, options);
      const PairPool eager = BuildPairPool(inst, options);
      eager.MaterializeAllStats();
      ExpectSamePool(lazy, eager);
    }
  }
}

// -------------------------------------- lazy == eager, all assigners

/// Mixed instance for one assigner trial; the exact oracle is
/// exponential, so its instances stay tiny and current-only.
ProblemInstance AssignerTrialInstance(Rng* rng, const QualityModel* quality,
                                      bool exact) {
  const int num_current = exact ? static_cast<int>(rng->UniformInt(2, 8))
                                : static_cast<int>(rng->UniformInt(40, 120));
  const int num_pred = exact ? 0 : static_cast<int>(rng->UniformInt(0, 25));
  return MixedInstance(rng, quality, num_current, num_pred,
                       rng->Uniform(1.0, 10.0));
}

// Greedy's selection over a pool whose statistics were all materialized
// up front is the lazy run's selection, at every thread count.
TEST(LazyVsEagerGreedyProperty, AssignmentMatchesPreMaterializedPool) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  Rng rng(47);
  for (int trial = 0; trial < 4; ++trial) {
    const ProblemInstance inst = AssignerTrialInstance(&rng, &quality, false);
    const PairPool pool = BuildPairPool(inst, /*include_predicted=*/true);
    pool.MaterializeAllStats();
    std::vector<int32_t> ids(pool.size());
    for (size_t k = 0; k < ids.size(); ++k) ids[k] = static_cast<int32_t>(k);
    std::vector<char> worker_used(inst.workers().size(), 0);
    std::vector<char> task_used(inst.tasks().size(), 0);
    BudgetTracker budget(inst.budget(), 0.5);
    std::vector<int32_t> selected;
    GreedySelect(pool, ids, &worker_used, &task_used, &budget, &selected);
    const AssignmentResult eager = EmitCurrentPairs(inst, pool, selected);
    for (const int threads : {1, 2, 4, 8}) {
      ParallelRunner runner(threads);
      PairPoolOptions options;
      options.thread_pool = runner.pool();
      ExpectSameAssignment(RunGreedy(inst, 0.5, options), eager, "greedy");
    }
  }
}

// Every assigner: the lazy statistics are first touched by different
// threads in a different order per backend and thread count; the
// assignment must not change.
class LazyStatsAssignerProperty
    : public ::testing::TestWithParam<AssignerKind> {};

TEST_P(LazyStatsAssignerProperty, AssignmentsByteIdentical) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  Rng rng(47);
  const bool exact = GetParam() == AssignerKind::kExact;
  for (int trial = 0; trial < (exact ? 6 : 4); ++trial) {
    const ProblemInstance inst = AssignerTrialInstance(&rng, &quality, exact);
    const auto run = [&](const PairPoolOptions& options) {
      switch (GetParam()) {
        case AssignerKind::kGreedy:
          return RunGreedy(inst, 0.5, options);
        case AssignerKind::kDivideConquer:
          return RunDivideConquer(inst, 0.5, 0, options);
        case AssignerKind::kRandom:
          return RunRandom(inst, 0.5, 99, options);
        case AssignerKind::kExact:
          break;
      }
      const auto result = RunExact(inst, kExactMaxEntities, options);
      EXPECT_TRUE(result.ok()) << result.status();
      return result.ok() ? result.value() : AssignmentResult{};
    };
    PairPoolOptions reference_options;
    reference_options.backend = IndexBackend::kBruteForce;
    const AssignmentResult reference = run(reference_options);
    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid}) {
      for (const int threads : {1, 2, 4, 8}) {
        ParallelRunner runner(threads);
        PairPoolOptions options;
        options.backend = backend;
        options.thread_pool = runner.pool();
        ExpectSameAssignment(run(options), reference,
                             AssignerKindToString(GetParam()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, LazyStatsAssignerProperty,
                         ::testing::Values(AssignerKind::kGreedy,
                                           AssignerKind::kDivideConquer,
                                           AssignerKind::kRandom,
                                           AssignerKind::kExact),
                         [](const ::testing::TestParamInfo<AssignerKind>& i) {
                           std::string name = AssignerKindToString(i.param);
                           for (char& c : name) {
                             if (c == '&') c = 'n';
                           }
                           return name;
                         });

// ------------------------------------------------------- lazy counters

TEST(LazyStatsCounters, RandomNeverSamples) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(5);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  {
    // RANDOM touches only indices and cost moments.
    const AssignmentResult result = RunRandom(inst, 0.5, 7, options);
    (void)result;
  }
  ASSERT_GT(stats.predicted_pairs, 0);
  EXPECT_FALSE(stats.stats_materialized);
  EXPECT_DOUBLE_EQ(stats.lazy_skipped_fraction, 1.0);
}

TEST(LazyStatsCounters, GreedySamplesWhatItCompares) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(6);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  {
    const AssignmentResult result = RunGreedy(inst, 0.5, options);
    (void)result;
  }
  ASSERT_GT(stats.predicted_pairs, 0);
  // The greedy quality sort touches every pair's distribution.
  EXPECT_TRUE(stats.stats_materialized);
  EXPECT_DOUBLE_EQ(stats.lazy_skipped_fraction, 0.0);
  EXPECT_GT(stats.pool_bytes, 0);
  EXPECT_GT(stats.arena_slabs, 0);
}

// ----------------------------------------------------- arena lifecycle

TEST(PairArenaTest, AllocateAlignAndReset) {
  PairArena arena(/*min_slab_bytes=*/128);
  void* a = arena.Allocate(100, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  // Larger than any slab: gets its own.
  void* b = arena.Allocate(1000, 8);
  ASSERT_NE(b, nullptr);
  const size_t capacity = arena.capacity_bytes();
  EXPECT_GE(arena.allocated_bytes(), 1100u);

  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), capacity) << "slabs are retained";
  EXPECT_GE(arena.peak_bytes(), 1100u) << "peak survives Reset";

  // Warm re-allocation reuses the retained slabs.
  (void)arena.Allocate(100, 8);
  (void)arena.Allocate(1000, 8);
  EXPECT_EQ(arena.capacity_bytes(), capacity) << "no growth when warm";
}

TEST(PairArenaTest, ShardArenasResetWithParent) {
  PairArena arena(/*min_slab_bytes=*/128);
  PairArena* shard = arena.shard(2);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(arena.num_shards(), 3u);
  (void)shard->Allocate(64, 8);
  EXPECT_GT(arena.allocated_bytes(), 0u) << "shard bytes aggregate";
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.shard(2), shard) << "shard arenas are stable";
}

TEST(ArenaReuse, NoStaleDataAcrossEpochs) {
  // The simulator pattern: one arena, Reset between epochs, a different
  // instance each epoch. Every reused-arena pool must equal a pool built
  // with a private arena from scratch.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng reuse_rng(33);
  Rng fresh_rng(33);  // identical instance stream
  PairArena arena;
  size_t warm_capacity = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const ProblemInstance inst_a = MixedInstance(
        &reuse_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);
    const ProblemInstance inst_b = MixedInstance(
        &fresh_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);

    arena.Reset();
    PairPoolOptions reuse_options;
    reuse_options.arena = &arena;
    const PairPool reused = BuildPairPool(inst_a, reuse_options);
    const PairPool fresh = BuildPairPool(inst_b, PairPoolOptions{});
    ExpectSamePool(reused, fresh);

    // Also exercise the lazy path fully on the reused pool.
    reused.MaterializeAllStats();
    fresh.MaterializeAllStats();
    ExpectSamePool(reused, fresh);

    if (epoch == 5) warm_capacity = arena.capacity_bytes();
    if (epoch > 5) {
      EXPECT_GE(arena.capacity_bytes(), warm_capacity);
    }
  }
}

TEST(ArenaReuse, SteadyStateStopsAllocating) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(91);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 60, 10, 6.0);
  PairArena arena;
  PairPoolOptions options;
  options.arena = &arena;
  size_t capacity_after_first = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    arena.Reset();
    const PairPool pool = BuildPairPool(inst, options);
    pool.MaterializeAllStats();
    if (epoch == 0) {
      capacity_after_first = arena.capacity_bytes();
    } else {
      EXPECT_EQ(arena.capacity_bytes(), capacity_after_first)
          << "same workload must not grow a warm arena (epoch " << epoch
          << ")";
    }
  }
}

// -------------------------------------------------- pool move + sink

TEST(PairPoolTest, MoveTransfersSinkOnce) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(17);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 20, 4, 6.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  int64_t pairs = 0;
  {
    PairPool pool = BuildPairPool(inst, options);
    pairs = static_cast<int64_t>(pool.size());
    PairPool moved = std::move(pool);
    // The moved-from pool dying must not clobber the sink...
    EXPECT_EQ(stats.pairs, 0);
    (void)moved;
  }
  // ...the owner flushes it exactly once, at destruction.
  EXPECT_EQ(stats.pairs, pairs);
}

TEST(PairPoolTest, HandBuiltPoolRoundTrips) {
  PairPoolBuilder builder(3, 2);
  CandidatePair p;
  p.worker_index = 2;
  p.task_index = 1;
  p.cost = Uncertain(2.0, 0.5, 1.0, 3.0);
  p.quality = Uncertain(1.5, 0.25, 1.0, 2.0);
  p.existence = 0.75;
  p.involves_predicted = true;
  builder.Add(p);
  const PairPool pool = std::move(builder).Build();
  ASSERT_EQ(pool.size(), 1u);
  const CandidatePair back = pool.GetPair(0);
  ExpectSamePair(p, back, 0);
  EXPECT_EQ(pool.PairsByTask(1).size(), 1u);
  EXPECT_TRUE(pool.PairsByTask(0).empty());
  EXPECT_EQ(pool.PairsByWorker(2).size(), 1u);
  // The thinned variant still works through the view.
  const Uncertain thinned = pool.pair(0).ExistenceThinnedQuality();
  EXPECT_DOUBLE_EQ(thinned.mean(), 1.5 * 0.75);
}

// ------------------------------------------------ covered current tasks

// The coverable-backlog count: current tasks with at least one valid
// current-current pair. Task 1's only pair is with a predicted worker,
// task 2 is out of reach, and predicted task 3 does not count, so only
// task 0 is covered.
TEST(PairPoolStatsTest, CoveredCurrentTasksSkipPredictedOnlyRows) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  std::vector<Worker> workers = {
      MakeWorker(0, 0.1, 0.1, 0.3),
      MakePredictedWorker(1, BBox::KernelBox({0.9, 0.9}, 0.05, 0.05), 0.3)};
  std::vector<Task> tasks = {
      MakeTask(0, 0.2, 0.1, 1.5),   // 0.1 from worker 0, reach 0.45
      MakeTask(1, 0.9, 0.85, 2.0),  // inside worker 1's box only
      MakeTask(2, 0.1, 0.9, 1.5),   // 0.8 from worker 0
      MakePredictedTask(3, BBox::KernelBox({0.1, 0.15}, 0.05, 0.05), 1.5)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 3,
                             &quality, 1.0, 10.0);
  const PairPool pool = BuildPairPool(inst);
  ASSERT_EQ(pool.PairsByTask(1).size(), 1u);
  EXPECT_TRUE(pool.InvolvesPredicted(pool.PairsByTask(1)[0]));
  EXPECT_TRUE(pool.PairsByTask(2).empty());
  EXPECT_FALSE(pool.PairsByTask(3).empty());
  EXPECT_EQ(pool.Stats().covered_current_tasks, 1);
}

// Hand-built rows have no worker order, so the count scans them: task 0's
// current pair sits behind a predicted one and still covers it.
TEST(PairPoolStatsTest, HandBuiltRowsAreScanned) {
  PairPoolBuilder builder(3, 3);
  CandidatePair p;
  p.involves_predicted = true;
  p.worker_index = 2;
  p.task_index = 0;
  builder.Add(p);
  p.involves_predicted = false;
  p.worker_index = 0;
  builder.Add(p);
  p.involves_predicted = true;
  p.worker_index = 1;
  p.task_index = 1;
  builder.Add(p);
  const PairPool pool = std::move(builder).Build();
  EXPECT_EQ(pool.Stats().covered_current_tasks, 1);
}

// Pair ids and CSR offsets are int32: a pool one past that range must
// fail loudly in the builder, before AllocateColumns asks for ~120 GB.
TEST(PairPoolDeathTest, PairCountPastInt32Aborts) {
  const size_t num_pairs = size_t{1} << 31;
  EXPECT_DEATH(PairPoolBuilder(/*num_workers=*/1, /*num_tasks=*/1,
                               /*num_current_workers=*/1,
                               /*num_current_tasks=*/1, num_pairs,
                               /*arena=*/nullptr, /*lazy_stats=*/false),
               "int32 pair-id range");
}

}  // namespace
}  // namespace mqa
