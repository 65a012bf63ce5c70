// Google-benchmark microbenchmarks for the core primitives: closed-form
// distance statistics, Eq. 7 comparison probabilities, the greedy
// selection loop (whole pools and single-task D&C leaves), the D&C merge,
// pair-pool construction, grid prediction, and one greedy assignment
// round. These quantify the per-operation costs behind the
// figure-level benches.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/budget.h"
#include "core/comparators.h"
#include "core/greedy.h"
#include "core/merge.h"
#include "core/valid_pairs.h"
#include "prediction/predictor.h"
#include "quality/range_quality.h"
#include "stats/distance_stats.h"
#include "stats/normal.h"
#include "workload/synthetic.h"

namespace {

using namespace mqa;

void BM_StdNormalCdf(benchmark::State& state) {
  double x = -4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StdNormalCdf(x));
    x += 1e-6;
  }
}
BENCHMARK(BM_StdNormalCdf);

void BM_SquaredDistanceMoments(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSquaredDistanceMoments(a, b));
  }
}
BENCHMARK(BM_SquaredDistanceMoments);

void BM_DistanceBetweenBoxes(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceBetween(a, b));
  }
}
BENCHMARK(BM_DistanceBetweenBoxes);

// The per-pair half alone, as the pool build runs it: both moment tables
// precomputed once per entity. Arg 0 is box-point, arg 1 box-box.
void BM_DistanceBetweenHoisted(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b = state.range(0) == 0 ? BBox::FromPoint({0.6, 0.5})
                                     : BBox({0.6, 0.5}, {0.9, 0.8});
  const BoxMoments am = ComputeBoxMoments(a);
  const BoxMoments bm = ComputeBoxMoments(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceBetween(a, am, b, bm));
  }
}
BENCHMARK(BM_DistanceBetweenHoisted)->Arg(0)->Arg(1);

CandidatePair RandomPair(Rng* rng) {
  CandidatePair p;
  const double c = rng->Uniform(0.5, 5.0);
  const double q = rng->Uniform(0.5, 2.5);
  if (rng->Bernoulli(0.5)) {
    p.cost = Uncertain(c, 0.05, c - 0.4, c + 0.4);
    p.quality = Uncertain(q, 0.1, q - 0.4, q + 0.4);
    p.involves_predicted = true;
    p.existence = rng->Uniform(0.3, 1.0);
  } else {
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
  }
  return p;
}

PairPool RandomPool(Rng* rng, int n) {
  PairPoolBuilder builder(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    CandidatePair p = RandomPair(rng);
    p.worker_index = i;
    p.task_index = i;
    builder.Add(p);
  }
  return std::move(builder).Build();
}

void BM_ProbQualityGreater(benchmark::State& state) {
  Rng rng(7);
  const PairPool pool = RandomPool(&rng, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbQualityGreater(pool.pair(0), pool.pair(1)));
  }
}
BENCHMARK(BM_ProbQualityGreater);

// One full greedy selection loop (skyline walk + Eq. 10 per iteration)
// over n random pairs on `tasks` tasks. With several tasks the pairs sit
// on n/8 workers — eight candidate pairs per worker, as in the paper's
// dense regime; one task is a D&C leaf, one task row with a pair per
// worker. The budget is ample, so the loop runs until every reachable
// endpoint is used.
void BM_GreedySelect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int tasks = static_cast<int>(state.range(1));
  const int workers = tasks == 1 ? n : n / 8;
  Rng rng(11);
  PairPoolBuilder builder(static_cast<size_t>(workers),
                          static_cast<size_t>(tasks));
  for (int i = 0; i < n; ++i) {
    CandidatePair p = RandomPair(&rng);
    p.worker_index = i % workers;
    p.task_index = static_cast<int32_t>(rng.UniformInt(0, tasks - 1));
    builder.Add(p);
  }
  const PairPool pool = std::move(builder).Build();
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  for (auto _ : state) {
    std::vector<char> worker_used(static_cast<size_t>(workers), 0);
    std::vector<char> task_used(static_cast<size_t>(tasks), 0);
    BudgetTracker budget(1e9, 0.5);
    std::vector<int32_t> selected;
    GreedySelect(pool, ids, &worker_used, &task_used, &budget, &selected);
    benchmark::DoNotOptimize(selected.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedySelect)
    ->Args({64, 1})
    ->Args({1000, 125})
    ->Args({10000, 1250})
    ->Args({100000, 12500})
    ->Unit(benchmark::kMicrosecond);

// One D&C node's merge: `tasks` tasks split into 8 disjoint groups, each
// group's result a random partial matching on a shared set of tasks/4
// workers, merged in decomposition order into an empty assignment, so
// workers collide across groups (MQA_Merge's conflict path).
void BM_MergeResults(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int workers = tasks / 4;
  constexpr int kGroups = 8;
  Rng rng(17);
  PairPoolBuilder builder(static_cast<size_t>(workers),
                          static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    for (int k = 0; k < 8; ++k) {
      CandidatePair p = RandomPair(&rng);
      p.worker_index = static_cast<int32_t>(rng.UniformInt(0, workers - 1));
      p.task_index = t;
      builder.Add(p);
    }
  }
  const PairPool pool = std::move(builder).Build();
  std::vector<std::vector<int32_t>> results(kGroups);
  int64_t incoming = 0;
  for (int g = 0; g < kGroups; ++g) {
    std::vector<char> taken(static_cast<size_t>(workers), 0);
    for (int t = tasks * g / kGroups; t < tasks * (g + 1) / kGroups; ++t) {
      const PairIdSpan row = pool.PairsByTask(t);
      const int32_t id = row[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(row.size()) - 1))];
      char& used = taken[static_cast<size_t>(pool.WorkerIndex(id))];
      if (used) continue;
      used = 1;
      results[static_cast<size_t>(g)].push_back(id);
      ++incoming;
    }
  }
  for (auto _ : state) {
    std::vector<int32_t> merged;
    for (const std::vector<int32_t>& result : results) {
      MergeResults(pool, &merged, result);
    }
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(state.iterations() * incoming);
}
BENCHMARK(BM_MergeResults)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

ProblemInstance BenchInstance(int n, const RangeQualityModel* quality,
                              std::vector<Worker>* workers,
                              std::vector<Task>* tasks) {
  Rng rng(13);
  workers->clear();
  tasks->clear();
  for (int i = 0; i < n; ++i) {
    Worker w;
    w.id = i;
    w.location = BBox::FromPoint({rng.Uniform(), rng.Uniform()});
    w.velocity = rng.Uniform(0.2, 0.3);
    workers->push_back(w);
    Task t;
    t.id = i;
    t.location = BBox::FromPoint({rng.Uniform(), rng.Uniform()});
    t.deadline = rng.Uniform(1.0, 2.0);
    tasks->push_back(t);
  }
  return ProblemInstance(*workers, workers->size(), *tasks, tasks->size(),
                         quality, 10.0, 75.0);
}

void BM_BuildPairPool(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                                  &workers, &tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPairPool(inst));
  }
}
BENCHMARK(BM_BuildPairPool)->Arg(100)->Arg(300);

// Same pool, but candidate tasks come from each backend explicitly
// (kAuto switches between them at kAutoBruteForceMaxPairs entities;
// bench/index_bench.cc covers the large-scale comparison).
void BM_BuildPairPoolBackend(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                                  &workers, &tasks);
  PairPoolOptions options;
  options.backend = state.range(1) == 0 ? IndexBackend::kBruteForce
                                        : IndexBackend::kGrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPairPool(inst, options));
  }
}
BENCHMARK(BM_BuildPairPoolBackend)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_GreedyAssignment(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                                  &workers, &tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunGreedy(inst, 0.5));
  }
}
BENCHMARK(BM_GreedyAssignment)->Arg(50)->Arg(100)->Arg(200);

void BM_GridPrediction(benchmark::State& state) {
  SyntheticConfig config;
  config.num_workers = 2000;
  config.num_tasks = 2000;
  config.num_instances = 5;
  const ArrivalStream stream = GenerateSynthetic(config);
  PredictionConfig pconfig;
  pconfig.gamma = 20;
  pconfig.window = 3;
  for (auto _ : state) {
    GridPredictor predictor(pconfig);
    for (int p = 0; p < stream.num_instances(); ++p) {
      predictor.Observe(stream.workers[static_cast<size_t>(p)],
                        stream.tasks[static_cast<size_t>(p)]);
      benchmark::DoNotOptimize(predictor.PredictNext());
    }
  }
}
BENCHMARK(BM_GridPrediction);

}  // namespace

BENCHMARK_MAIN();
