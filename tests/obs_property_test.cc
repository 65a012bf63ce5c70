// The observability hard requirement: instrumentation must be
// write-only. A traced run (tracer enabled, spans recording, metrics
// accumulating) must produce byte-identical assignments and scores to an
// untraced run, across {greedy, D&C} x {1, 4} threads x batch/stream.
// Spans only read the clock and write side buffers; if anything ever
// feeds back into the computation, these tests catch it.
//
// Hardware-counter capture extends the same contract: a counted run
// (perf counters enabled — live where the kernel allows, and in the
// forced-unavailable fallback everywhere) must also be byte-identical
// to an uncounted run.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/assigner.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"

namespace mqa {
namespace {

struct ObsCase {
  AssignerKind kind;
  int threads;
};

std::string CaseName(const ::testing::TestParamInfo<ObsCase>& info) {
  std::string name = AssignerKindToString(info.param.kind);
  for (char& ch : name) {
    if (ch == '&') ch = 'n';
  }
  return name + "_t" + std::to_string(info.param.threads);
}

/// The result fields covered by the byte-identity contract. Timing
/// fields (cpu_seconds, the phase laps) are execution state and are
/// deliberately excluded — they differ run to run by construction.
struct ResultFingerprint {
  std::vector<int64_t> ints;
  std::vector<double> doubles;

  bool operator==(const ResultFingerprint& other) const {
    if (ints != other.ints) return false;
    if (doubles.size() != other.doubles.size()) return false;
    for (size_t i = 0; i < doubles.size(); ++i) {
      // Bitwise, not epsilon: the contract is byte-identity.
      if (std::memcmp(&doubles[i], &other.doubles[i], sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
};

void AppendInstance(const InstanceMetrics& m, ResultFingerprint* fp) {
  fp->ints.push_back(m.instance);
  fp->ints.push_back(static_cast<int64_t>(m.assignment_checksum));
  fp->ints.push_back(m.workers_available);
  fp->ints.push_back(m.tasks_available);
  fp->ints.push_back(m.predicted_workers);
  fp->ints.push_back(m.predicted_tasks);
  fp->ints.push_back(m.assigned);
  fp->doubles.push_back(m.quality);
  fp->doubles.push_back(m.cost);
  fp->doubles.push_back(m.worker_prediction_error);
  fp->doubles.push_back(m.task_prediction_error);
}

ResultFingerprint RunBatch(const ObsCase& c) {
  const ArrivalStream stream =
      testing_util::SmallSyntheticStream(250, 250, 5, 31);
  const RangeQualityModel quality(1.0, 2.0, 13);

  SimulatorConfig config = testing_util::PropertySimConfig();
  config.budget = 35.0;
  config.prediction.seed = 31;
  config.num_threads = c.threads;

  Simulator sim(config, &quality);
  auto assigner = CreateAssigner(c.kind, {.seed = 7});
  const auto summary = sim.Run(stream, assigner.get());
  EXPECT_TRUE(summary.ok()) << summary.status();

  ResultFingerprint fp;
  for (const InstanceMetrics& m : summary.value().per_instance) {
    AppendInstance(m, &fp);
  }
  fp.doubles.push_back(summary.value().total_quality);
  fp.doubles.push_back(summary.value().total_cost);
  fp.ints.push_back(summary.value().total_assigned);
  return fp;
}

ResultFingerprint RunStream(const ObsCase& c) {
  const ScenarioStream scenario =
      testing_util::SmallScenario(ScenarioKind::kBursty, 200, 200, 4.0, 23);
  const RangeQualityModel quality(1.0, 2.0, 13);

  StreamingConfig config;
  config.sim = testing_util::PropertySimConfig();
  config.sim.budget = 35.0;
  config.sim.prediction.seed = 23;
  config.sim.num_threads = c.threads;
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.backlog_threshold = 40;
  config.policy.max_interval = 1.0;
  config.horizon = 4.0;

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(c.kind, {.seed = 7});
  const auto summary =
      sim.Run(EventQueue::FromScenario(scenario), assigner.get());
  EXPECT_TRUE(summary.ok()) << summary.status();

  ResultFingerprint fp;
  for (const EpochStreamMetrics& e : summary.value().per_epoch) {
    AppendInstance(e.instance, &fp);
    fp.ints.push_back(e.ingested_workers);
    fp.ints.push_back(e.ingested_tasks);
    fp.ints.push_back(e.backlog_before);
    fp.ints.push_back(e.backlog_after);
    fp.ints.push_back(e.expired);
    fp.ints.push_back(e.coverable_backlog);
    fp.ints.push_back(static_cast<int64_t>(e.fire_reason));
    fp.doubles.push_back(e.epoch_time);
    fp.doubles.push_back(e.mean_queue_wait);
  }
  fp.doubles.push_back(summary.value().total_quality);
  fp.doubles.push_back(summary.value().total_cost);
  fp.ints.push_back(summary.value().total_assigned);
  fp.ints.push_back(summary.value().total_expired);
  return fp;
}

class ObsPropertyTest : public ::testing::TestWithParam<ObsCase> {
 protected:
  void SetUp() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
    MetricsRegistry::Get().Reset();
    PerfCounters::Get().Disable();
    PerfCounters::Get().ForceUnavailableForTesting(false);
    PerfCounters::Get().ResetForTesting();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
    MetricsRegistry::Get().Reset();
    PerfCounters::Get().Disable();
    PerfCounters::Get().ForceUnavailableForTesting(false);
    PerfCounters::Get().ResetForTesting();
  }
};

TEST_P(ObsPropertyTest, TracedBatchRunIsByteIdentical) {
  const ResultFingerprint untraced = RunBatch(GetParam());
  Tracer::Get().Enable();
  const ResultFingerprint traced = RunBatch(GetParam());
  Tracer::Get().Disable();
#if !defined(MQA_OBS_DISABLED)
  EXPECT_GT(Tracer::Get().event_count(), 0) << "tracing was not live";
#endif
  EXPECT_TRUE(traced == untraced)
      << "enabling the tracer changed batch results";
}

TEST_P(ObsPropertyTest, TracedStreamRunIsByteIdentical) {
  const ResultFingerprint untraced = RunStream(GetParam());
  Tracer::Get().Enable();
  const ResultFingerprint traced = RunStream(GetParam());
  Tracer::Get().Disable();
#if !defined(MQA_OBS_DISABLED)
  EXPECT_GT(Tracer::Get().event_count(), 0) << "tracing was not live";
#endif
  EXPECT_TRUE(traced == untraced)
      << "enabling the tracer changed streaming results";
}

TEST_P(ObsPropertyTest, CountedBatchRunIsByteIdentical) {
  const ResultFingerprint uncounted = RunBatch(GetParam());
  Tracer::Get().Enable();
  PerfCounters::Get().Enable();  // live capture where the kernel allows
  const ResultFingerprint counted = RunBatch(GetParam());
  PerfCounters::Get().Disable();
  Tracer::Get().Disable();
  EXPECT_TRUE(counted == uncounted)
      << "enabling perf counters changed batch results";
}

TEST_P(ObsPropertyTest, CountedStreamRunIsByteIdentical) {
  const ResultFingerprint uncounted = RunStream(GetParam());
  Tracer::Get().Enable();
  PerfCounters::Get().Enable();
  const ResultFingerprint counted = RunStream(GetParam());
  PerfCounters::Get().Disable();
  Tracer::Get().Disable();
  EXPECT_TRUE(counted == uncounted)
      << "enabling perf counters changed streaming results";
}

TEST_P(ObsPropertyTest, CounterFallbackBatchRunIsByteIdentical) {
  // The graceful-degradation path (no perf_event access) must be just
  // as invisible as the live path.
  const ResultFingerprint uncounted = RunBatch(GetParam());
  Tracer::Get().Enable();
  PerfCounters::Get().ForceUnavailableForTesting(true);
  PerfCounters::Get().Enable();
  const ResultFingerprint counted = RunBatch(GetParam());
  EXPECT_FALSE(PerfCounters::Get().active());
  PerfCounters::Get().Disable();
  PerfCounters::Get().ForceUnavailableForTesting(false);
  Tracer::Get().Disable();
  EXPECT_TRUE(counted == uncounted)
      << "the counters-unavailable fallback changed batch results";
}

std::vector<ObsCase> MakeCases() {
  std::vector<ObsCase> cases;
  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
    for (const int threads : {1, 4}) {
      cases.push_back({kind, threads});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cross, ObsPropertyTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace mqa
