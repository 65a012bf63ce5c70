#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <optional>
#include <utility>

#include "quality/range_quality.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace mqa {
namespace perfbench {
namespace {

// Table-IV generator settings shared by every workload (mqa_cli defaults).
constexpr int kInstances = 15;
constexpr double kUnitPrice = 10.0;
constexpr double kQualityLo = 1.0;
constexpr double kQualityHi = 2.0;
constexpr int kGridGamma = 20;
constexpr int kPredictionWindow = 3;
constexpr double kStreamEpochInterval = 0.1;
constexpr double kFlashWidth = 0.02;  // fraction of the horizon
constexpr double kFlashAmplitude = 12.0;
constexpr int64_t kTinyEntities = 200;

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> specs(3);
  // The paper's headline algorithm in its default regime (B scaled with
  // n as the paper's 300 per 5000); greedy/select dominates the run.
  specs[0].name = "paper-greedy";
  specs[0].algo = AssignerKind::kGreedy;
  specs[0].entities = 1400;
  specs[0].budget = 84.0;
  specs[0].threads = 1;
  specs[0].replays = 4;
  specs[0].nominal_epochs = kInstances;
  // Full paper scale on four threads; pool build and the D&C fan-out
  // carry the time.
  specs[1].name = "paper-dc-4t";
  specs[1].algo = AssignerKind::kDivideConquer;
  specs[1].entities = 3000;
  specs[1].budget = 180.0;
  specs[1].threads = 4;
  specs[1].replays = 4;
  specs[1].nominal_epochs = kInstances;
  // Many small high-churn epochs plus two flash crowds on the streaming
  // engine: 150 interval ticks and a final flush.
  specs[2].name = "stream-flash";
  specs[2].stream = true;
  specs[2].algo = AssignerKind::kDivideConquer;
  specs[2].entities = 2000;
  specs[2].budget = 12.0;
  specs[2].threads = 1;
  specs[2].replays = 4;
  specs[2].nominal_epochs = 151;
  return specs;
}

/// Decorator that appends the duration of every Assign call to `out`. The
/// simulators call Assign exactly once per epoch, so entry i belongs to
/// epoch i.
class TimedAssigner : public Assigner {
 public:
  TimedAssigner(Assigner* inner, std::vector<double>* out)
      : inner_(inner), out_(out) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    const auto start = std::chrono::steady_clock::now();
    Result<AssignmentResult> result = inner_->Assign(instance);
    out_->push_back(SecondsSince(start));
    return result;
  }

  const char* name() const override { return inner_->name(); }

 private:
  Assigner* inner_;
  std::vector<double>* out_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

}  // namespace

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Status FindWorkload(const std::string& name, bool tiny, WorkloadSpec* spec) {
  for (const WorkloadSpec& candidate : AllWorkloads()) {
    if (candidate.name != name) continue;
    *spec = candidate;
    if (tiny) spec->entities = kTinyEntities;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

Inputs Setup(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  ScenarioStream scenario;
  {
    // Generated on the calling thread: the output is identical for any
    // thread count, and on 4 threads thread start-up and wake-ups set the
    // few milliseconds this takes, which then swing 3x with host load.
    const auto start = std::chrono::steady_clock::now();
    if (spec.stream) {
      // Two flash crowds at fixed times (30% and 75% of the horizon, ~5
      // epochs wide at half height, peaking at 13x the base rate). The
      // bursty generator draws its burst times from the seed instead, and
      // its bursts overlap for about half of all seeds, which makes run
      // time and memory swing by tens of percent from seed to seed.
      ScenarioConfig w;
      w.kind = ScenarioKind::kRushHour;
      w.rush_width = kFlashWidth;
      w.rush_amplitude = kFlashAmplitude;
      w.num_workers = spec.entities;
      w.num_tasks = spec.entities;
      w.horizon = static_cast<double>(kInstances);
      w.seed = seed;
      inputs.max_deadline = w.deadline_hi;
      scenario = GenerateScenario(w);
      inputs.arrivals =
          static_cast<int64_t>(scenario.workers.size() + scenario.tasks.size());
    } else {
      SyntheticConfig w;
      w.num_workers = spec.entities;
      w.num_tasks = spec.entities;
      w.num_instances = kInstances;
      w.seed = seed;
      inputs.max_deadline = w.deadline_hi;
      inputs.batch = GenerateSynthetic(w);
      for (const auto& batch : inputs.batch.workers) {
        inputs.arrivals += static_cast<int64_t>(batch.size());
      }
      for (const auto& batch : inputs.batch.tasks) {
        inputs.arrivals += static_cast<int64_t>(batch.size());
      }
    }
    inputs.generate_s = SecondsSince(start);
  }
  if (spec.stream) inputs.queue = EventQueue::FromScenario(scenario);

  inputs.quality =
      std::make_unique<RangeQualityModel>(kQualityLo, kQualityHi, seed);
  SimulatorConfig config;
  config.budget = spec.budget;
  config.unit_price = kUnitPrice;
  config.prediction.gamma = kGridGamma;
  config.prediction.window = kPredictionWindow;
  config.prediction.seed = seed;
  config.workers_rejoin = false;
  config.validate_assignments = true;
  config.num_threads = spec.threads;

  AssignerOptions options;
  options.seed = seed;
  inputs.assigner = CreateAssigner(spec.algo, options);

  if (spec.stream) {
    StreamingConfig sconfig;
    sconfig.sim = config;
    sconfig.sim.maintain_worker_index = true;
    sconfig.horizon = static_cast<double>(kInstances);
    sconfig.policy.kind = EpochPolicyKind::kFixedInterval;
    sconfig.policy.interval = kStreamEpochInterval;
    inputs.stream_sim =
        std::make_unique<StreamingSimulator>(sconfig, inputs.quality.get());
  } else {
    inputs.batch_sim =
        std::make_unique<Simulator>(config, inputs.quality.get());
  }
  return inputs;
}

RunRecord RunOnce(Inputs* inputs, bool traced) {
  RunRecord record;
  TimedAssigner timed(inputs->assigner.get(), &record.assign_s);
  Assigner* assigner =
      traced ? static_cast<Assigner*>(&timed) : inputs->assigner.get();

  std::optional<Result<StreamSummary>> stream_result;
  std::optional<Result<SimulationSummary>> batch_result;
  const double cpu_start = CpuSeconds();
  const auto wall_start = std::chrono::steady_clock::now();
  if (inputs->stream_sim) {
    stream_result.emplace(
        inputs->stream_sim->Run(std::move(inputs->queue), assigner));
  } else {
    batch_result.emplace(inputs->batch_sim->Run(inputs->batch, assigner));
  }
  record.run_s = SecondsSince(wall_start);
  record.cpu_s = CpuSeconds() - cpu_start;

  if (stream_result) {
    record.status = stream_result->status();
    if (!stream_result->ok()) return record;
    const StreamSummary& s = stream_result->value();
    for (const EpochStreamMetrics& e : s.per_epoch) {
      record.epochs.push_back(e.instance);
      record.events += e.ingested_workers + e.ingested_tasks;
    }
    record.total_quality = s.total_quality;
    record.total_assigned = s.total_assigned;
    record.waits = s.queue_waits;
    record.expired = s.total_expired;
    record.backlog_max = s.max_backlog;
    record.backlog_mean = s.mean_backlog;
  } else {
    record.status = batch_result->status();
    if (!batch_result->ok()) return record;
    const SimulationSummary& s = batch_result->value();
    record.epochs = s.per_instance;
    record.total_quality = s.total_quality;
    record.total_assigned = s.total_assigned;
  }
  return record;
}

}  // namespace perfbench
}  // namespace mqa
