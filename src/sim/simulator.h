#ifndef MQA_SIM_SIMULATOR_H_
#define MQA_SIM_SIMULATOR_H_

#include <cstdint>

#include "common/result.h"
#include "core/assigner.h"
#include "quality/quality_model.h"
#include "sim/arrival_stream.h"
#include "sim/metrics.h"
#include "sim/simulator_config.h"

namespace mqa {

/// Drives an Assigner through all time instances of an arrival stream:
///   retrieve available workers/tasks -> predict next instance ->
///   assign -> apply (busy workers travel, tasks complete or expire,
///   unassigned entities carry over) -> record metrics.
///
/// A thin adapter over the streaming engine (src/stream/), which owns the
/// one simulation loop: the stream's batches become arrival events at
/// times 0, 1, 2, ..., the engine cuts one epoch per instance
/// (EpochPolicyKind::kPerInstance) up to a horizon of num_instances, and
/// each epoch's InstanceMetrics lands in the summary.
class Simulator {
 public:
  /// `quality` must outlive the simulator.
  Simulator(const SimulatorConfig& config, const QualityModel* quality);

  /// Runs `assigner` over the whole stream. Returns an error when the
  /// stream is malformed, `assigner` is null (checked before an empty
  /// stream returns its empty summary) or an assignment violates the MQA
  /// constraints.
  Result<SimulationSummary> Run(const ArrivalStream& stream,
                                Assigner* assigner);

 private:
  SimulatorConfig config_;
  const QualityModel* quality_;
};

}  // namespace mqa

#endif  // MQA_SIM_SIMULATOR_H_
