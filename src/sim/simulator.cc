#include "sim/simulator.h"

#include "common/logging.h"
#include "stream/streaming_simulator.h"

namespace mqa {

Simulator::Simulator(const SimulatorConfig& config, const QualityModel* quality)
    : config_(config), quality_(quality) {
  MQA_CHECK(quality != nullptr) << "quality model required";
}

Result<SimulationSummary> Simulator::Run(const ArrivalStream& stream,
                                         Assigner* assigner) {
  MQA_RETURN_NOT_OK(stream.Validate());
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner required");
  }
  SimulationSummary summary;
  const int num_instances = stream.num_instances();
  if (num_instances == 0) return summary;

  // The explicit horizon keeps trailing empty instances as epochs; the
  // derived one (floor of the last arrival + 1) would drop them.
  StreamingConfig stream_config;
  stream_config.sim = config_;
  stream_config.policy.kind = EpochPolicyKind::kPerInstance;
  stream_config.horizon = static_cast<double>(num_instances);
  StreamingSimulator engine(stream_config, quality_);
  StreamSummary run;
  MQA_ASSIGN_OR_RETURN(
      run, engine.Run(EventQueue::FromArrivalStream(stream), assigner));

  // Batch summaries keep the stream-only phase fields at 0 (see
  // InstanceMetrics::ingest_seconds).
  summary.per_instance.reserve(run.per_epoch.size());
  for (const EpochStreamMetrics& em : run.per_epoch) {
    InstanceMetrics& m = summary.per_instance.emplace_back(em.instance);
    m.ingest_seconds = 0.0;
    m.backlog_scan_seconds = 0.0;
  }
  summary.Finalize();
  return summary;
}

}  // namespace mqa
