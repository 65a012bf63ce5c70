// The streaming engine's coverable_backlog — pending tasks with at least
// one valid current pair — is read from the epoch's pair pool. This suite
// checks it epoch by epoch against the definition evaluated by brute
// force (every current task against every current worker through
// ProblemInstance::CanReach) across epoch policies, assigners, index
// backends and thread counts, on random scenarios where tasks expire and
// workers rejoin.

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "quality/range_quality.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"

namespace mqa {
namespace {

/// Delegates to `inner` after recording the instance's coverable count by
/// the definition, O(current workers x current tasks).
class CoverageOracle : public Assigner {
 public:
  explicit CoverageOracle(std::unique_ptr<Assigner> inner)
      : inner_(std::move(inner)) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    int64_t covered = 0;
    for (size_t j = 0; j < instance.num_current_tasks(); ++j) {
      for (size_t i = 0; i < instance.num_current_workers(); ++i) {
        if (instance.CanReach(instance.workers()[i], instance.tasks()[j])) {
          ++covered;
          break;
        }
      }
    }
    expected_.push_back(covered);
    return inner_->Assign(instance);
  }
  const char* name() const override { return inner_->name(); }

  const std::vector<int64_t>& expected() const { return expected_; }

 private:
  std::unique_ptr<Assigner> inner_;
  std::vector<int64_t> expected_;
};

/// Assigns nothing and builds no pool.
class NoPoolAssigner : public Assigner {
 public:
  Result<AssignmentResult> Assign(const ProblemInstance&) override {
    return AssignmentResult{};
  }
  const char* name() const override { return "NO-POOL"; }
};

EpochPolicy PolicyOf(EpochPolicyKind kind) {
  EpochPolicy policy;
  policy.kind = kind;
  policy.interval = 0.5;
  policy.k_arrivals = 60;
  policy.backlog_threshold = 40;
  policy.max_interval = 1.0;
  return policy;
}

struct OracleCase {
  EpochPolicyKind policy;
  ScenarioKind scenario;
  AssignerKind kind;
  IndexBackend backend;
  int threads;
};

std::string OracleCaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  std::string name = std::string(EpochPolicyKindToString(c.policy)) + "_" +
                     AssignerKindToString(c.kind) + "_" +
                     IndexBackendToString(c.backend) + "_t" +
                     std::to_string(c.threads);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class CoverableCountOracleTest
    : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CoverableCountOracleTest, MatchesBruteForceCanReach) {
  const OracleCase& c = GetParam();
  // Exact is limited to a dozen entities a side: keep its stream tiny.
  const bool exact = c.kind == AssignerKind::kExact;
  const int64_t n = exact ? 10 : 160;
  const ScenarioStream scenario = testing_util::SmallScenario(
      c.scenario, n, n, 4.0, 17 + static_cast<uint64_t>(c.threads));
  const RangeQualityModel quality(1.0, 2.0, 13);

  StreamingConfig config;
  config.sim = testing_util::PropertySimConfig();
  config.sim.budget = 25.0;
  config.sim.index_backend = c.backend;
  config.sim.num_threads = c.threads;
  config.policy = PolicyOf(c.policy);
  config.horizon = 4.0;

  CoverageOracle oracle(CreateAssigner(c.kind, {.seed = 5}));
  StreamingSimulator sim(config, &quality);
  const auto summary = sim.Run(EventQueue::FromScenario(scenario), &oracle);
  ASSERT_TRUE(summary.ok()) << summary.status();

  const auto& epochs = summary.value().per_epoch;
  ASSERT_EQ(epochs.size(), oracle.expected().size());
  int64_t ingested_workers = 0;
  for (size_t k = 0; k < epochs.size(); ++k) {
    EXPECT_EQ(epochs[k].coverable_backlog, oracle.expected()[k])
        << "epoch " << k;
    EXPECT_LE(epochs[k].coverable_backlog, epochs[k].backlog_before);
    ingested_workers += epochs[k].ingested_workers;
  }
  // The scenario exercised what the count has to survive.
  if (!exact) {
    EXPECT_GT(summary.value().total_expired, 0);
    EXPECT_GT(ingested_workers, n) << "no worker rejoined";
  }
}

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  // Each policy runs on its own arrival pattern.
  const std::pair<EpochPolicyKind, ScenarioKind> policies[] = {
      {EpochPolicyKind::kPerInstance, ScenarioKind::kPaper},
      {EpochPolicyKind::kFixedInterval, ScenarioKind::kRushHour},
      {EpochPolicyKind::kEveryKArrivals, ScenarioKind::kHotspotDrift},
      {EpochPolicyKind::kAdaptiveBacklog, ScenarioKind::kBursty}};
  for (const auto& [policy, scenario] : policies) {
    for (const AssignerKind kind :
         {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
          AssignerKind::kRandom, AssignerKind::kExact}) {
      for (const IndexBackend backend :
           {IndexBackend::kBruteForce, IndexBackend::kGrid,
            IndexBackend::kRTree}) {
        for (const int threads : {1, 4}) {
          cases.push_back({policy, scenario, kind, backend, threads});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, CoverableCountOracleTest,
                         ::testing::ValuesIn(OracleCases()), OracleCaseName);

TEST(CoverableCountTest, MinusOneWhenTheAssignerBuildsNoPool) {
  const ScenarioStream scenario = testing_util::SmallScenario(
      ScenarioKind::kPaper, 40, 40, 3.0, 3);
  const RangeQualityModel quality(1.0, 2.0, 13);
  StreamingConfig config;
  config.sim = testing_util::PropertySimConfig();
  config.horizon = 3.0;
  NoPoolAssigner assigner;
  StreamingSimulator sim(config, &quality);
  const auto summary = sim.Run(EventQueue::FromScenario(scenario), &assigner);
  ASSERT_TRUE(summary.ok()) << summary.status();
  int64_t backlog = 0;
  for (const EpochStreamMetrics& e : summary.value().per_epoch) {
    backlog += e.backlog_before;
    EXPECT_EQ(e.coverable_backlog, -1);
  }
  EXPECT_GT(backlog, 0);
}

}  // namespace
}  // namespace mqa
