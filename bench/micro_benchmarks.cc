// Google-benchmark microbenchmarks for the core primitives: closed-form
// distance statistics, Eq. 7 comparison probabilities, the greedy
// selection loop, pair-pool construction, grid prediction, and one greedy
// assignment round. These quantify the per-operation costs behind the
// figure-level benches.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/budget.h"
#include "core/comparators.h"
#include "core/greedy.h"
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
// over n random pairs on n/8 workers and tasks — eight candidate pairs
// per worker, as in the paper's dense regime. The budget is ample, so the
// loop runs until every reachable endpoint is used.
void BM_GreedySelect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = n / 8;
  Rng rng(11);
  PairPoolBuilder builder(static_cast<size_t>(m), static_cast<size_t>(m));
  for (int i = 0; i < n; ++i) {
    CandidatePair p = RandomPair(&rng);
    p.worker_index = i % m;
    p.task_index = static_cast<int32_t>(rng.UniformInt(0, m - 1));
    builder.Add(p);
  }
  const PairPool pool = std::move(builder).Build();
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  for (auto _ : state) {
    std::vector<char> worker_used(static_cast<size_t>(m), 0);
    std::vector<char> task_used(static_cast<size_t>(m), 0);
    BudgetTracker budget(1e9, 0.5);
    std::vector<int32_t> selected;
    GreedySelect(pool, ids, &worker_used, &task_used, &budget, &selected);
    benchmark::DoNotOptimize(selected.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedySelect)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

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
