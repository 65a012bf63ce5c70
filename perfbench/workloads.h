#ifndef MQA_PERFBENCH_WORKLOADS_H_
#define MQA_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/assigner.h"
#include "quality/quality_model.h"
#include "sim/arrival_stream.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "stream/event_queue.h"
#include "stream/streaming_simulator.h"

namespace mqa {
namespace perfbench {

/// One named benchmark workload: a closed-loop offline replay (one
/// process, one client, the whole arrival stream generated up front).
struct WorkloadSpec {
  std::string name;
  bool stream = false;  // StreamingSimulator (else the batch Simulator)
  AssignerKind algo = AssignerKind::kGreedy;
  int64_t entities = 0;  // n = m, totals over the horizon
  double budget = 0.0;   // per instance / per epoch
  int threads = 1;
  int replays = 1;  // independent replays per benchmark run
  int nominal_epochs = 0;  // epochs of a complete Run (error accounting)
};

/// Wall seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// The spec for `name`; `tiny` shrinks the entity counts to a
/// sub-second size for the benchmark's self-test.
Status FindWorkload(const std::string& name, bool tiny, WorkloadSpec* spec);

/// Everything a Run consumes, built before its first epoch. Single use:
/// the streaming Run drains the event queue.
struct Inputs {
  ArrivalStream batch;  // batch workloads
  EventQueue queue;     // stream workload
  int64_t arrivals = 0;  // workers + tasks generated
  double generate_s = 0.0;  // wall time of input generation
  double max_deadline = 0.0;  // no task may wait longer than this
  std::unique_ptr<QualityModel> quality;
  std::unique_ptr<Assigner> assigner;
  std::unique_ptr<Simulator> batch_sim;
  std::unique_ptr<StreamingSimulator> stream_sim;
};

/// Generates the workload's inputs from `seed` and constructs the
/// simulator, queue, quality model and assigner.
Inputs Setup(const WorkloadSpec& spec, uint64_t seed);

/// What one Run returned, plus the benchmark's own measurements of it.
struct RunRecord {
  Status status;
  double run_s = 0.0;  // wall time of Run
  double cpu_s = 0.0;  // process user + system CPU time during Run
  std::vector<InstanceMetrics> epochs;
  std::vector<double> assign_s;  // per-epoch Assign time (traced runs)
  double total_quality = 0.0;
  int64_t total_assigned = 0;
  // Streaming engine only.
  std::vector<double> waits;
  int64_t expired = 0;
  int64_t events = 0;  // entities ingested (arrivals + rejoins)
  int64_t backlog_max = 0;
  double backlog_mean = 0.0;
};

/// Runs the simulator once over `inputs` (consumed). A traced Run times
/// each Assign call through a decorator Assigner passed into Run.
RunRecord RunOnce(Inputs* inputs, bool traced);

}  // namespace perfbench
}  // namespace mqa

#endif  // MQA_PERFBENCH_WORKLOADS_H_
