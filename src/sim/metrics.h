#ifndef MQA_SIM_METRICS_H_
#define MQA_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "model/types.h"
#include "obs/run_report.h"

namespace mqa {

/// Per-epoch measurements recorded by the streaming engine; the batch
/// Simulator's summary holds one per instance.
struct InstanceMetrics {
  Timestamp instance = 0;

  /// Available (current) entities after carryover and rejoining.
  int64_t workers_available = 0;
  int64_t tasks_available = 0;

  /// Predicted entities appended to the assigner's input.
  int64_t predicted_workers = 0;
  int64_t predicted_tasks = 0;

  int64_t assigned = 0;
  double quality = 0.0;
  double cost = 0.0;

  /// FNV-1a fingerprint of the epoch's assignment (pair indices plus the
  /// quality/cost bit patterns). A pure function of the computed result,
  /// so it is covered by — and a cheap witness for — the byte-identity
  /// contract; run reports record it per epoch.
  uint64_t assignment_checksum = 0;

  /// Wall-clock seconds spent in prediction + assignment for the
  /// instance (the paper's "running time per time instance").
  double cpu_seconds = 0.0;

  /// Per-phase breakdown of cpu_seconds (epoch lifecycle order; see
  /// docs/OBSERVABILITY.md for the span taxonomy these mirror). Timing
  /// fields describe execution, not the computed assignment — like the
  /// arena fields below they are excluded from the byte-identity
  /// contract.
  double predict_seconds = 0.0;   // prediction scoring + PredictNext
  double assemble_seconds = 0.0;  // instance vector assembly
  double index_seconds = 0.0;     // task index build or churn
  double assign_seconds = 0.0;    // Assigner::Assign (includes pool build)
  double validate_seconds = 0.0;  // ValidateAssignment (0 when disabled)
  double apply_seconds = 0.0;     // consumed marking + rejoin computation

  /// Streaming phases outside the epoch core: event-queue drain into the
  /// epoch, and taking the coverable backlog from the epoch outcome. Run
  /// reports carry them for every run; the batch SimulationSummary keeps
  /// them at 0, so batch measurements count that time (the per-instance
  /// carryover) as loop time outside the epoch.
  double ingest_seconds = 0.0;
  double backlog_scan_seconds = 0.0;

  /// Seconds inside BuildPairPool during Assign (from PairPoolStats).
  double pool_build_seconds = 0.0;

  /// Fig. 10 relative errors of the *previous* instance's prediction
  /// against this instance's actual arrivals (-1 when no prediction was
  /// made, e.g. at instance 0 or when prediction is disabled).
  double worker_prediction_error = -1.0;
  double task_prediction_error = -1.0;

  /// Pair-pool measurements of the epoch's assignment (flushed by the
  /// pool when the assigner finishes with it; see core/pair_pool.h).
  /// Pool size and bytes are deterministic; the arena fields describe
  /// execution state (slab reuse across epochs, per-shard arenas) and may
  /// legitimately differ across thread counts — they are excluded from
  /// the byte-identity contract.
  int64_t pool_pairs = 0;
  int64_t pool_predicted_pairs = 0;
  int64_t pool_bytes = 0;
  int64_t pool_arena_slabs = 0;
  int64_t pool_arena_peak_bytes = 0;

  /// Fraction of predicted pairs whose Case 1-3 sampling was never
  /// materialized by the algorithm (1.0 = the whole statistics phase was
  /// skipped; 0 when the pool had no predicted pairs).
  double pool_lazy_skipped_fraction = 0.0;

  /// Task-index sync churn (TaskIndexCache::BeginInstance);
  /// bulk_rebuilds is 1 when the cache crossed the rebuild break-even
  /// this epoch.
  int64_t index_inserted = 0;
  int64_t index_erased = 0;
  int64_t index_bulk_rebuilds = 0;
};

/// Projects an epoch's metrics onto the run report's layering-clean row
/// (obs must not see sim types). The streaming engine feeds RunReport
/// through this, for batch and streaming runs alike.
EpochReportRow ToEpochReportRow(const InstanceMetrics& m);

/// Whole-run aggregates.
struct SimulationSummary {
  std::vector<InstanceMetrics> per_instance;

  double total_quality = 0.0;
  double total_cost = 0.0;
  int64_t total_assigned = 0;

  /// Mean per-instance wall-clock seconds (prediction + assignment).
  double avg_cpu_seconds = 0.0;

  /// Mean Fig. 10 prediction errors over instances that had predictions.
  double avg_worker_prediction_error = 0.0;
  double avg_task_prediction_error = 0.0;

  /// Recomputes the aggregate fields from per_instance.
  void Finalize();
};

}  // namespace mqa

#endif  // MQA_SIM_METRICS_H_
