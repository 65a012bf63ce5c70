// Edge cases and failure injection across the public API: degenerate
// workloads, zero budgets, misbehaving assigners, extreme parameters.

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "core/decomposition.h"
#include "core/valid_pairs.h"
#include "prediction/predictor.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

using testing_util::ConstantQualityModel;
using testing_util::MakeTask;
using testing_util::MakeWorker;

TEST(EdgeTest, ZeroBudgetYieldsOnlyFreePairs) {
  const ConstantQualityModel quality(1.0);
  // Worker exactly at the task location: cost 0 -> assignable even with
  // budget 0.
  std::vector<Worker> workers = {MakeWorker(0, 0.5, 0.5, 0.5),
                                 MakeWorker(1, 0.1, 0.1, 0.5)};
  std::vector<Task> tasks = {MakeTask(0, 0.5, 0.5, 1.0),
                             MakeTask(1, 0.2, 0.1, 1.0)};
  const ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2,
                             &quality, 10.0, 0.0);
  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
        AssignerKind::kRandom, AssignerKind::kExact}) {
    auto assigner = CreateAssigner(kind);
    const auto result = assigner->Assign(inst);
    ASSERT_TRUE(result.ok()) << assigner->name();
    ASSERT_EQ(result.value().pairs.size(), 1u) << assigner->name();
    EXPECT_EQ(result.value().pairs[0].worker_index, 0) << assigner->name();
    EXPECT_DOUBLE_EQ(result.value().total_cost, 0.0) << assigner->name();
  }
}

TEST(EdgeTest, EmptyStreamProducesEmptySummary) {
  const ConstantQualityModel quality(1.0);
  SimulatorConfig config;
  Simulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(ArrivalStream{}, assigner.get());
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary.value().per_instance.empty());
  EXPECT_EQ(summary.value().total_assigned, 0);
  // The assigner check precedes the empty-stream early return.
  const auto no_assigner = sim.Run(ArrivalStream{}, nullptr);
  ASSERT_FALSE(no_assigner.ok());
  EXPECT_EQ(no_assigner.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeTest, WorkersOnlyStreamAssignsNothing) {
  const ConstantQualityModel quality(1.0);
  ArrivalStream stream;
  stream.workers.resize(3);
  stream.tasks.resize(3);
  for (int p = 0; p < 3; ++p) {
    Worker w = MakeWorker(p, 0.5, 0.5, 0.3);
    w.arrival = p;
    stream.workers[static_cast<size_t>(p)].push_back(w);
  }
  SimulatorConfig config;
  config.prediction.gamma = 4;
  Simulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(stream, assigner.get());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().total_assigned, 0);
  // Workers accumulate across instances (nothing consumes them).
  EXPECT_EQ(summary.value().per_instance[2].workers_available, 3);
}

TEST(EdgeTest, TasksOnlyStreamExpiresTasks) {
  const ConstantQualityModel quality(1.0);
  ArrivalStream stream;
  stream.workers.resize(3);
  stream.tasks.resize(3);
  Task t = MakeTask(0, 0.5, 0.5, 1.5);
  t.arrival = 0;
  stream.tasks[0].push_back(t);
  SimulatorConfig config;
  config.use_prediction = false;
  Simulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(stream, assigner.get());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().per_instance[1].tasks_available, 1);
  EXPECT_EQ(summary.value().per_instance[2].tasks_available, 0);  // expired
}

// An assigner that reports an overspent, conflicting assignment; the
// simulator's validation layer must reject it.
class RogueAssigner : public Assigner {
 public:
  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    AssignmentResult result;
    if (instance.num_current_workers() > 0 &&
        instance.num_current_tasks() > 1) {
      // Assign the same worker twice.
      result.pairs.push_back({0, 0});
      result.pairs.push_back({0, 1});
    }
    return result;
  }
  const char* name() const override { return "ROGUE"; }
};

TEST(EdgeTest, SimulatorRejectsRogueAssigner) {
  const ConstantQualityModel quality(1.0);
  ArrivalStream stream;
  stream.workers.resize(1);
  stream.tasks.resize(1);
  Worker w = MakeWorker(0, 0.5, 0.5, 5.0);
  stream.workers[0].push_back(w);
  Task t0 = MakeTask(0, 0.5, 0.45, 1.0);
  Task t1 = MakeTask(1, 0.5, 0.55, 1.0);
  stream.tasks[0] = {t0, t1};

  SimulatorConfig config;
  config.use_prediction = false;
  Simulator sim(config, &quality);
  RogueAssigner rogue;
  const auto summary = sim.Run(stream, &rogue);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EdgeTest, PredictorKindsAllRunThroughSimulator) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  SyntheticConfig wconfig;
  wconfig.num_workers = 120;
  wconfig.num_tasks = 120;
  wconfig.num_instances = 5;
  const ArrivalStream stream = GenerateSynthetic(wconfig);
  for (const CountPredictorKind kind :
       {CountPredictorKind::kLinearRegression, CountPredictorKind::kLastValue,
        CountPredictorKind::kMovingAverage}) {
    SimulatorConfig config;
    config.prediction.gamma = 4;
    config.prediction.predictor = kind;
    Simulator sim(config, &quality);
    auto assigner = CreateAssigner(AssignerKind::kGreedy);
    const auto summary = sim.Run(stream, assigner.get());
    EXPECT_TRUE(summary.ok());
  }
}

TEST(EdgeTest, DecomposeMoreGroupsThanTasks) {
  const ConstantQualityModel quality(1.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.5, 0.5, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.4, 0.5, 1.0),
                             MakeTask(1, 0.6, 0.5, 1.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 2,
                             &quality, 1.0, 10.0);
  const PairPool pool = BuildPairPool(inst);
  const auto subs = DecomposeTasks(inst, pool, {0, 1}, 10);
  EXPECT_EQ(subs.size(), 2u);  // one task per group, no empty groups
  for (const auto& sub : subs) EXPECT_EQ(sub.num_tasks(), 1u);
}

TEST(EdgeTest, SingleCellGrid) {
  PredictionConfig config;
  config.gamma = 1;
  config.window = 2;
  GridPredictor predictor(config);
  std::vector<Worker> workers = {MakeWorker(0, 0.3, 0.3, 0.2),
                                 MakeWorker(1, 0.9, 0.9, 0.2)};
  predictor.Observe(workers, {});
  predictor.Observe(workers, {});
  const Prediction pred = predictor.PredictNext();
  EXPECT_EQ(pred.worker_cell_counts.size(), 1u);
  EXPECT_EQ(pred.worker_cell_counts[0], 2);
  EXPECT_EQ(pred.workers.size(), 2u);
}

TEST(EdgeTest, HugeVelocityMakesEverythingValid) {
  const ConstantQualityModel quality(1.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 100.0)};
  std::vector<Task> tasks = {MakeTask(0, 1.0, 1.0, 0.05)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1,
                             &quality, 1.0, 100.0);
  const PairPool pool = BuildPairPool(inst);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(EdgeTest, ZeroDeadlineNeverValid) {
  const ConstantQualityModel quality(1.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.5, 0.5, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.6, 0.5, 0.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1,
                             &quality, 1.0, 100.0);
  const PairPool pool = BuildPairPool(inst);
  EXPECT_TRUE(pool.empty());
}

TEST(EdgeTest, ZeroDeadlineColocatedIsValid) {
  // dist == 0 <= v * 0: a worker standing on the task can do it at once.
  const ConstantQualityModel quality(1.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.6, 0.5, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.6, 0.5, 0.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1,
                             &quality, 1.0, 100.0);
  const PairPool pool = BuildPairPool(inst);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(EdgeTest, MoreWorkersThanTasksAndViceVersa) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(71);
  for (const auto& [nw, nt] : std::vector<std::pair<int, int>>{{20, 3},
                                                               {3, 20}}) {
    testing_util::RandomInstanceOptions opts;
    opts.num_workers = nw;
    opts.num_tasks = nt;
    opts.budget = 100.0;
    const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
    for (const AssignerKind kind :
         {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
      auto assigner = CreateAssigner(kind);
      const auto result = assigner->Assign(inst);
      ASSERT_TRUE(result.ok());
      EXPECT_LE(result.value().pairs.size(),
                static_cast<size_t>(std::min(nw, nt)));
      EXPECT_TRUE(ValidateAssignment(inst, result.value()).ok());
    }
  }
}

}  // namespace
}  // namespace mqa
