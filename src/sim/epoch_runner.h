#ifndef MQA_SIM_EPOCH_RUNNER_H_
#define MQA_SIM_EPOCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/assigner.h"
#include "exec/pair_arena.h"
#include "exec/parallel_runner.h"
#include "index/task_index_cache.h"
#include "prediction/predictor.h"
#include "quality/quality_model.h"
#include "sim/metrics.h"
#include "sim/simulator_config.h"

namespace mqa {

/// Everything one assignment epoch produces besides side effects on the
/// runner's prediction/index state. The caller (the streaming engine)
/// owns the entity pools and applies the outcome to them: remove
/// assigned entities, route rejoin workers.
struct EpochOutcome {
  /// The raw assignment (current-current pairs; indices into the pools
  /// passed to RunEpoch).
  AssignmentResult result;

  /// Per-epoch measurements (instance stamp, availability, prediction
  /// errors, cpu seconds, assigned/quality/cost) — the batch summary
  /// records these as its InstanceMetrics.
  InstanceMetrics metrics;

  /// Available tasks with at least one valid available-worker pair,
  /// read from the epoch's pair pool (PairPoolStats::
  /// covered_current_tasks); -1 when the assigner built no pool.
  int64_t coverable_backlog = -1;

  /// worker_assigned[i] / task_assigned[j] flag the available entities
  /// the assignment consumed (sized to the pool sizes passed in).
  std::vector<char> worker_assigned;
  std::vector<char> task_assigned;

  /// Workers that completed a task and rejoin the pool at the task's
  /// location after their travel time, quantized to the instance grid
  /// ("workers who finished tasks ... are also treated as new workers",
  /// paper Section II-E). `offset >= 1` is in whole instances from the
  /// epoch that produced the outcome; the caller re-stamps `worker.arrival`
  /// at delivery. Empty unless SimulatorConfig::workers_rejoin.
  struct Rejoin {
    Worker worker;
    int64_t offset = 1;
  };
  std::vector<Rejoin> rejoins;
};

/// The per-epoch core of the MQA_Framework loop (paper Fig. 3), driven by
/// the streaming engine (and through it by the batch Simulator adapter):
///
///   score previous prediction -> Observe arrivals -> PredictNext ->
///   assemble ProblemInstance (available entities + predicted, carrying
///   the incrementally maintained task index and thread pool) ->
///   Assign -> validate -> compute rejoins.
///
/// The runner owns all cross-epoch state: the grid predictor, the
/// incrementally maintained TaskIndexCache, and the thread pool. Callers
/// own the entity pools and the clock — which epochs happen when, and
/// how arrivals, carryover and expiry feed the pools, is entirely theirs.
/// Byte-determinism follows: two callers issuing the same sequence of
/// RunEpoch calls with the same pools get bitwise-identical outcomes.
class EpochRunner {
 public:
  /// `quality` must outlive the runner.
  EpochRunner(const SimulatorConfig& config, const QualityModel* quality);
  ~EpochRunner();

  /// Runs one epoch. `new_workers`/`new_tasks` are this epoch's arrivals
  /// (already appended to the pools) used for prediction bookkeeping;
  /// `available_workers`/`available_tasks` are the full current pools the
  /// assigner sees. `predict_next` gates PredictNext — pass false at the
  /// final epoch, where predicting has no consumer (under the
  /// per-instance policy, `p + 1 < num_instances`).
  Result<EpochOutcome> RunEpoch(int64_t epoch_index,
                                const std::vector<Worker>& new_workers,
                                const std::vector<Task>& new_tasks,
                                const std::vector<Worker>& available_workers,
                                const std::vector<Task>& available_tasks,
                                bool predict_next, Assigner* assigner);

 private:
  SimulatorConfig config_;
  const QualityModel* quality_;
  GridPredictor predictor_;
  std::unique_ptr<TaskIndexCache> task_index_cache_;
  ParallelRunner runner_;

  // Per-epoch pair-pool arena, Reset (slabs retained) at the start of
  // every RunEpoch — steady-state pool construction allocates nothing.
  PairArena pair_arena_;

  // The previous epoch's predicted per-cell counts, compared against the
  // current epoch's actual arrivals (Fig. 10).
  std::vector<int64_t> prev_pred_worker_counts_;
  std::vector<int64_t> prev_pred_task_counts_;
};

}  // namespace mqa

#endif  // MQA_SIM_EPOCH_RUNNER_H_
