// Property tests for index-backed candidate generation: on randomized
// instances across velocity/deadline/budget/gamma ranges, BuildPairPool
// must produce the *identical* pair pool (same pair order, indices,
// costs, qualities, existence, adjacency) whichever backend enumerates
// the candidates — brute force, grid, or R*-tree, sequential or parallel
// across any thread count — including through the simulator's
// incrementally maintained TaskIndexCache.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "index/grid_index.h"
#include "index/spatial_index.h"
#include "index/task_index_cache.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "workload/spatial_dist.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

using testing_util::ConstantQualityModel;
using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

void ExpectSameUncertain(const Uncertain& a, const Uncertain& b) {
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.lb(), b.lb());
  EXPECT_EQ(a.ub(), b.ub());
}

void ExpectSameSpan(const PairIdSpan& a, const PairIdSpan& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
}

void ExpectSamePool(const PairPool& a, const PairPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    const CandidatePair pa = a.GetPair(static_cast<int32_t>(k));
    const CandidatePair pb = b.GetPair(static_cast<int32_t>(k));
    EXPECT_EQ(pa.worker_index, pb.worker_index) << "pair " << k;
    EXPECT_EQ(pa.task_index, pb.task_index) << "pair " << k;
    EXPECT_EQ(pa.involves_predicted, pb.involves_predicted) << "pair " << k;
    EXPECT_EQ(pa.existence, pb.existence) << "pair " << k;
    ExpectSameUncertain(pa.cost, pb.cost);
    ExpectSameUncertain(pa.quality, pb.quality);
  }
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (size_t j = 0; j < a.num_tasks(); ++j) {
    ExpectSameSpan(a.PairsByTask(static_cast<int32_t>(j)),
                   b.PairsByTask(static_cast<int32_t>(j)));
  }
  ASSERT_EQ(a.num_workers(), b.num_workers());
  for (size_t i = 0; i < a.num_workers(); ++i) {
    ExpectSameSpan(a.PairsByWorker(static_cast<int32_t>(i)),
                   b.PairsByWorker(static_cast<int32_t>(i)));
  }
}

PairPool BuildWith(const ProblemInstance& instance, IndexBackend backend,
                   bool include_predicted = true) {
  PairPoolOptions options;
  options.backend = backend;
  options.include_predicted = include_predicted;
  return BuildPairPool(instance, options);
}

/// A randomized instance with current and (optionally) predicted
/// entities spanning the given parameter ranges.
ProblemInstance RandomMixedInstance(Rng* rng, const QualityModel* quality,
                                    int num_current_workers,
                                    int num_current_tasks, int num_pred_workers,
                                    int num_pred_tasks, double velocity_hi,
                                    double deadline_hi, double unit_price,
                                    double budget) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_current_workers; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.01, velocity_hi)));
  }
  for (int i = 0; i < num_pred_workers; ++i) {
    workers.push_back(MakePredictedWorker(
        1000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.2), rng->Uniform(0.0, 0.2)),
        rng->Uniform(0.01, velocity_hi)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_current_tasks; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.1, deadline_hi)));
  }
  for (int j = 0; j < num_pred_tasks; ++j) {
    tasks.push_back(MakePredictedTask(
        1000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.2), rng->Uniform(0.0, 0.2)),
        rng->Uniform(0.1, deadline_hi)));
  }
  return ProblemInstance(std::move(workers),
                         static_cast<size_t>(num_current_workers),
                         std::move(tasks),
                         static_cast<size_t>(num_current_tasks), quality,
                         unit_price, budget);
}

TEST(PairPoolBackendProperty, GridMatchesBruteForceCurrentOnly) {
  const ConstantQualityModel quality(1.5);
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    // Sweep velocity/deadline/budget so reach radii range from "nothing
    // reachable" to "everything reachable".
    const double velocity_hi = rng.Uniform(0.02, 1.0);
    const double deadline_hi = rng.Uniform(0.2, 3.0);
    const double budget = rng.Uniform(0.0, 10.0);
    const double unit_price = rng.Uniform(0.1, 10.0);
    const ProblemInstance inst = RandomMixedInstance(
        &rng, &quality, static_cast<int>(rng.UniformInt(0, 40)),
        static_cast<int>(rng.UniformInt(0, 40)), 0, 0, velocity_hi,
        deadline_hi, unit_price, budget);
    const PairPool base = BuildWith(inst, IndexBackend::kBruteForce);
    ExpectSamePool(base, BuildWith(inst, IndexBackend::kGrid));
    ExpectSamePool(base, BuildWith(inst, IndexBackend::kRTree));
  }
}

TEST(PairPoolBackendProperty, GridMatchesBruteForceWithPredicted) {
  Rng rng(1234);
  // Sweep the quality range [q-, q+] alongside the geometry parameters.
  for (const double q_hi : {1.5, 2.0, 5.0}) {
    const RangeQualityModel quality(1.0, q_hi);
    for (int trial = 0; trial < 20; ++trial) {
      const ProblemInstance inst = RandomMixedInstance(
          &rng, &quality, static_cast<int>(rng.UniformInt(1, 25)),
          static_cast<int>(rng.UniformInt(1, 25)),
          static_cast<int>(rng.UniformInt(0, 10)),
          static_cast<int>(rng.UniformInt(0, 10)), rng.Uniform(0.05, 0.6),
          rng.Uniform(0.5, 2.5), rng.Uniform(0.5, 5.0), rng.Uniform(1.0, 8.0));
      const PairPool base = BuildWith(inst, IndexBackend::kBruteForce);
      ExpectSamePool(base, BuildWith(inst, IndexBackend::kGrid));
      ExpectSamePool(base, BuildWith(inst, IndexBackend::kRTree));
      // WoP variant: only current entities participate.
      const PairPool base_wop =
          BuildWith(inst, IndexBackend::kBruteForce, /*include_predicted=*/false);
      ExpectSamePool(base_wop, BuildWith(inst, IndexBackend::kGrid,
                                         /*include_predicted=*/false));
      ExpectSamePool(base_wop, BuildWith(inst, IndexBackend::kRTree,
                                         /*include_predicted=*/false));
    }
  }
}

/// A mixed instance whose current locations follow `dist` — uniform,
/// Zipf or Gaussian-cluster — the Fig. 18/19 regimes the R*-tree backend
/// exists for.
ProblemInstance SkewedMixedInstance(Rng* rng, const QualityModel* quality,
                                    const SpatialDistConfig& dist,
                                    int num_workers, int num_tasks,
                                    int num_predicted) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    const Point c = SampleLocation(dist, rng);
    workers.push_back(MakeWorker(i, c.x, c.y, rng->Uniform(0.05, 0.4)));
  }
  for (int i = 0; i < num_predicted; ++i) {
    workers.push_back(MakePredictedWorker(
        1000 + i,
        BBox::KernelBox(SampleLocation(dist, rng), rng->Uniform(0.0, 0.15),
                        rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.05, 0.4)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_tasks; ++j) {
    const Point c = SampleLocation(dist, rng);
    tasks.push_back(MakeTask(j, c.x, c.y, rng->Uniform(0.1, 2.0)));
  }
  for (int j = 0; j < num_predicted; ++j) {
    tasks.push_back(MakePredictedTask(
        1000 + j,
        BBox::KernelBox(SampleLocation(dist, rng), rng->Uniform(0.0, 0.15),
                        rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.1, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(num_workers),
                         std::move(tasks), static_cast<size_t>(num_tasks),
                         quality, /*unit_price=*/1.0, /*budget=*/5.0);
}

TEST(PairPoolBackendProperty, AllBackendsMatchOnSkewedWorkloadsAcrossThreads) {
  // The acceptance property of the R*-tree PR: BuildPairPool output is
  // byte-identical across {brute, grid, rtree} on uniform, Zipf and
  // Gaussian-cluster workloads, sequential and parallel over {2, 4, 8}
  // threads (80 workers clears the parallel builder's 32-worker
  // threshold, so >1-thread pools take the parallel builder for real).
  const RangeQualityModel quality(1.0, 2.0);
  SpatialDistConfig uniform;
  SpatialDistConfig zipf;
  zipf.kind = SpatialDistribution::kZipf;
  zipf.zipf_skew = 0.9;
  SpatialDistConfig cluster;
  cluster.kind = SpatialDistribution::kGaussian;
  cluster.gaussian_sigma = 0.05;

  Rng rng(24680);
  for (const SpatialDistConfig& dist : {uniform, zipf, cluster}) {
    for (int trial = 0; trial < 3; ++trial) {
      const ProblemInstance inst =
          SkewedMixedInstance(&rng, &quality, dist, 80, 80,
                              static_cast<int>(rng.UniformInt(0, 12)));
      const PairPool base = BuildWith(inst, IndexBackend::kBruteForce);
      for (const int threads : {1, 2, 4, 8}) {
        ParallelRunner runner(threads);
        for (const IndexBackend backend :
             {IndexBackend::kBruteForce, IndexBackend::kGrid,
              IndexBackend::kRTree}) {
          PairPoolOptions options;
          options.backend = backend;
          options.thread_pool = runner.pool();
          ExpectSamePool(base, BuildPairPool(inst, options));
        }
      }
    }
  }
}

TEST(PairPoolBackendProperty, ExternalIndexMatchesInternal) {
  const ConstantQualityModel quality(1.0);
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const ProblemInstance inst = RandomMixedInstance(
        &rng, &quality, 20, 20, 5, 5, rng.Uniform(0.05, 0.5),
        rng.Uniform(0.5, 2.0), 1.0, 5.0);
    GridIndex external(7);
    std::vector<IndexEntry> entries;
    for (size_t j = 0; j < inst.tasks().size(); ++j) {
      entries.push_back(
          {static_cast<int64_t>(j), inst.tasks()[j].location});
    }
    external.BulkLoad(entries);

    PairPoolOptions options;
    options.task_index = &external;
    // The external index covers predicted tasks too; the builder must
    // filter them out when include_predicted is off.
    for (const bool include_predicted : {true, false}) {
      options.include_predicted = include_predicted;
      ExpectSamePool(
          BuildWith(inst, IndexBackend::kBruteForce, include_predicted),
          BuildPairPool(inst, options));
    }
  }
}

TEST(TaskIndexCacheProperty, TracksEvolvingTaskSets) {
  const ConstantQualityModel quality(1.0);
  // The cache's churn pattern must hold for every incremental backend —
  // the R*-tree gets TaskIndexCache maintenance for free through the
  // same Insert/Erase contract the grid satisfies.
  for (const IndexBackend backend :
       {IndexBackend::kGrid, IndexBackend::kRTree}) {
  Rng rng(777);
  TaskIndexCache cache(backend);

  // An evolving task pool: each "instance" removes a random subset
  // (assigned/expired), carries the rest, appends arrivals, and tacks on
  // fresh predicted tasks — the simulator's exact mutation pattern.
  std::vector<Task> current;
  TaskId next_id = 0;
  for (int instance = 0; instance < 25; ++instance) {
    std::vector<Task> carried;
    for (const Task& t : current) {
      if (rng.Bernoulli(0.6)) carried.push_back(t);
    }
    const int arrivals = static_cast<int>(rng.UniformInt(0, 12));
    for (int a = 0; a < arrivals; ++a) {
      carried.push_back(
          MakeTask(next_id++, rng.Uniform(), rng.Uniform(), 1.5));
    }
    current = carried;

    std::vector<Task> with_predicted = current;
    const int predicted = static_cast<int>(rng.UniformInt(0, 6));
    for (int q = 0; q < predicted; ++q) {
      with_predicted.push_back(MakePredictedTask(
          q, BBox::KernelBox({rng.Uniform(), rng.Uniform()}, 0.1, 0.1), 1.5));
    }

    cache.BeginInstance(with_predicted);
    ASSERT_EQ(cache.view()->size(), with_predicted.size());

    std::vector<Worker> workers;
    for (int i = 0; i < 15; ++i) {
      workers.push_back(
          MakeWorker(i, rng.Uniform(), rng.Uniform(), rng.Uniform(0.05, 0.4)));
    }
    std::vector<Task> tasks_copy = with_predicted;
    ProblemInstance inst(std::move(workers), 15, std::move(tasks_copy),
                         current.size(), &quality, 1.0, 4.0);
    const PairPool brute = BuildWith(inst, IndexBackend::kBruteForce);
    inst.set_task_index(cache.view());
    ExpectSamePool(brute, BuildPairPool(inst, PairPoolOptions{}));
  }
  }
}

// Reachable task set of `worker` through `index`: the raw QueryReachable
// visits, then the exact reachability filter against the tasks' *current*
// deadlines (the cache's entries may hold stale, larger ones).
std::set<int64_t> ReachableTasks(const SpatialIndex& index,
                                 const std::vector<Task>& tasks,
                                 const Worker& worker, double max_deadline) {
  std::set<int64_t> ids;
  index.QueryReachable(worker.location, worker.velocity, max_deadline,
                       [&](int64_t id, const BBox&, double min_dist) {
                         const Task& t = tasks[static_cast<size_t>(id)];
                         if (min_dist <= worker.velocity * t.deadline) {
                           ids.insert(id);
                         }
                       });
  return ids;
}

TEST(TaskIndexCacheProperty, IncrementalMatchesFromScratchRebuild) {
  // Carried tasks' deadlines shrink every epoch, as in the streaming
  // engine, so the incremental entries go stale; after the exact filter
  // the answers must still equal a from-scratch cache and the definition.
  // Thresholds 0 and 2 pin the always-rebuild and never-rebuild paths.
  for (const IndexBackend backend :
       {IndexBackend::kBruteForce, IndexBackend::kGrid, IndexBackend::kRTree}) {
    for (const double threshold : {0.0, 0.5, 2.0}) {
      Rng rng(321);
      std::vector<Task> pool;
      TaskId next_id = 0;
      TaskIndexCache cache(backend);
      cache.set_rebuild_threshold(threshold);
      for (int epoch = 0; epoch < 25; ++epoch) {
        std::vector<Task> survivors;
        for (Task t : pool) {
          t.deadline -= 0.2;
          if (t.deadline > 0.0 && !rng.Bernoulli(0.3)) survivors.push_back(t);
        }
        pool = std::move(survivors);
        const int64_t arrivals = rng.UniformInt(0, 40);
        for (int64_t k = 0; k < arrivals; ++k) {
          pool.push_back(MakeTask(next_id++, rng.Uniform(), rng.Uniform(),
                                  rng.Uniform(0.5, 2.5)));
        }

        cache.BeginInstance(pool);
        ASSERT_EQ(cache.size(), pool.size());
        ASSERT_EQ(cache.view()->size(), pool.size());
        TaskIndexCache fresh(backend);
        fresh.BeginInstance(pool);

        double max_deadline = 0.0;
        for (const Task& t : pool) {
          max_deadline = std::max(max_deadline, t.deadline);
        }
        for (int q = 0; q < 10; ++q) {
          const Worker w = MakeWorker(q, rng.Uniform(), rng.Uniform(),
                                      rng.Uniform(0.05, 0.5));
          const auto incremental =
              ReachableTasks(*cache.view(), pool, w, max_deadline);
          ASSERT_EQ(incremental,
                    ReachableTasks(*fresh.view(), pool, w, max_deadline))
              << "epoch " << epoch << " query " << q << " diverged";
          std::set<int64_t> expected;
          for (size_t j = 0; j < pool.size(); ++j) {
            if (w.location.MinDistance(pool[j].location) <=
                w.velocity * pool[j].deadline) {
              expected.insert(static_cast<int64_t>(j));
            }
          }
          ASSERT_EQ(incremental, expected)
              << "epoch " << epoch << " query " << q << " wrong vs definition";
        }
      }
    }
  }
}

TEST(SimulatorIndexProperty, BackendsProduceIdenticalRuns) {
  SyntheticConfig workload;
  workload.num_workers = 220;
  workload.num_tasks = 220;
  workload.num_instances = 6;
  workload.seed = 31;
  const ArrivalStream stream = GenerateSynthetic(workload);
  const ConstantQualityModel quality(2.0);

  auto run = [&](IndexBackend backend, bool reuse) {
    SimulatorConfig config;
    config.budget = 50.0;
    config.unit_price = 1.0;
    config.index_backend = backend;
    config.reuse_task_index = reuse;
    Simulator sim(config, &quality);
    auto assigner = CreateAssigner(AssignerKind::kGreedy);
    auto summary = sim.Run(stream, assigner.get());
    EXPECT_TRUE(summary.ok());
    return summary.value();
  };

  const SimulationSummary base = run(IndexBackend::kBruteForce, false);
  for (const bool reuse : {false, true}) {
    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid,
          IndexBackend::kRTree, IndexBackend::kAuto}) {
      const SimulationSummary other = run(backend, reuse);
      EXPECT_EQ(base.total_assigned, other.total_assigned);
      EXPECT_EQ(base.total_quality, other.total_quality);
      EXPECT_EQ(base.total_cost, other.total_cost);
      ASSERT_EQ(base.per_instance.size(), other.per_instance.size());
      for (size_t p = 0; p < base.per_instance.size(); ++p) {
        EXPECT_EQ(base.per_instance[p].assigned, other.per_instance[p].assigned);
        EXPECT_EQ(base.per_instance[p].quality, other.per_instance[p].quality);
        EXPECT_EQ(base.per_instance[p].cost, other.per_instance[p].cost);
      }
    }
  }
}

}  // namespace
}  // namespace mqa
