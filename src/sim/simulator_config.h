#ifndef MQA_SIM_SIMULATOR_CONFIG_H_
#define MQA_SIM_SIMULATOR_CONFIG_H_

#include "index/spatial_index.h"
#include "prediction/predictor.h"

namespace mqa {

/// Configuration of the MQA_Framework loop (paper Fig. 3): the epoch core
/// (EpochRunner) of the streaming engine, which the batch Simulator runs
/// under the per-instance policy.
struct SimulatorConfig {
  /// Per-instance traveling budget B (per assignment epoch in streaming
  /// mode — one epoch is one budgeted assignment round).
  double budget = 300.0;

  /// Unit price C per distance unit.
  double unit_price = 10.0;

  /// When false, the assigner sees only current entities (the paper's
  /// "WoP" — without prediction — straw man).
  bool use_prediction = true;

  /// Grid predictor settings (used when use_prediction).
  PredictionConfig prediction;

  /// Workers that complete a task rejoin the pool at the task's location
  /// after their travel time ("workers who finished tasks ... are also
  /// treated as new workers", paper Section II-E).
  bool workers_rejoin = true;

  /// Validate every assignment against the Def. 3/4 invariants (cheap
  /// relative to assignment; keep on except in microbenchmarks).
  bool validate_assignments = true;

  /// Spatial-index backend for valid-pair generation; the simulator
  /// always hands the assigner a task index through
  /// ProblemInstance::task_index (kAuto resolves to the grid; pick
  /// kRTree for skewed Zipf/Gaussian-cluster workloads — see
  /// src/index/README.md). With
  /// reuse_task_index the index is maintained across time instances
  /// (insert arrivals / erase departures) so carried-over tasks are
  /// never re-bucketed; without it the index is rebuilt from scratch
  /// every instance (the no-reuse baseline for measurements).
  IndexBackend index_backend = IndexBackend::kAuto;
  bool reuse_task_index = true;

  /// Does nothing. It switched on a worker index whose only reader was
  /// the streaming engine's coverable-backlog count, which the epoch's
  /// pair pool now supplies. Kept because perfbench/workloads.cc still
  /// sets it; delete both together.
  bool maintain_worker_index = false;

  /// Total threads the per-instance assignment work fans across: the
  /// simulator hands each ProblemInstance a pool through
  /// ProblemInstance::set_thread_pool, exactly like it hands the task
  /// index. <= 1 (the default) keeps every path sequential; results are
  /// byte-identical for any value (see src/exec/README.md). An assigner
  /// configured with its own AssignerOptions::num_threads overrides this.
  int num_threads = 1;
};

}  // namespace mqa

#endif  // MQA_SIM_SIMULATOR_CONFIG_H_
