#include "sim/epoch_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "core/pair_pool.h"
#include "model/assignment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "prediction/grid.h"

namespace mqa {

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a fingerprint of the assignment: the pair list in emission order
/// plus the quality/cost totals bit-for-bit. Deterministic runs agree on
/// it exactly; run reports record it per epoch as a cheap cross-machine
/// byte-identity witness.
uint64_t AssignmentChecksum(const AssignmentResult& result) {
  uint64_t h = 14695981039346656037ULL;
  for (const Assignment& a : result.pairs) {
    h = Fnv1aWord(h, static_cast<uint64_t>(a.worker_index));
    h = Fnv1aWord(h, static_cast<uint64_t>(a.task_index));
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &result.total_quality, sizeof(bits));
  h = Fnv1aWord(h, bits);
  std::memcpy(&bits, &result.total_cost, sizeof(bits));
  h = Fnv1aWord(h, bits);
  return h;
}

}  // namespace

EpochRunner::EpochRunner(const SimulatorConfig& config,
                         const QualityModel* quality)
    : config_(config),
      quality_(quality),
      predictor_(config.prediction,
                 MakeCountPredictor(config.prediction.predictor)),
      // Task index maintained across epochs: arrivals are inserted and
      // departures erased, so steady-state index upkeep costs O(churn),
      // not O(|T|), and BuildPairPool never re-buckets carried-over
      // tasks. Without reuse it is recreated per epoch in RunEpoch.
      task_index_cache_(std::make_unique<TaskIndexCache>(config.index_backend)),
      // Pool shared by all epochs of the run (threads spin up once); the
      // assigner sees it through ProblemInstance::thread_pool, like the
      // task index. Sequential configs carry a null pool.
      runner_(config.num_threads) {
  MQA_CHECK(quality != nullptr) << "quality model required";
}

EpochRunner::~EpochRunner() = default;

Result<EpochOutcome> EpochRunner::RunEpoch(
    int64_t epoch_index, const std::vector<Worker>& new_workers,
    const std::vector<Task>& new_tasks,
    const std::vector<Worker>& available_workers,
    const std::vector<Task>& available_tasks, bool predict_next,
    Assigner* assigner) {
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner required");
  }
  EpochOutcome outcome;
  InstanceMetrics& metrics = outcome.metrics;
  metrics.instance = epoch_index;

  MQA_TRACE_SPAN_ARG("epoch", epoch_index);
  MQA_METRIC_COUNT("mqa.epoch.count", 1);
  // Flight recorder: a wedged epoch dumps every thread's open spans.
  Watchdog::EpochGuard watchdog_guard(epoch_index);

  const auto t_start = std::chrono::steady_clock::now();
  // Phase stopwatch: each TakePhase() returns the seconds since the last
  // call (or t_start) and restarts the lap.
  auto t_phase = t_start;
  const auto TakePhase = [&t_phase] {
    const auto now = std::chrono::steady_clock::now();
    const double lap = std::chrono::duration<double>(now - t_phase).count();
    t_phase = now;
    return lap;
  };

  // --- Prediction bookkeeping + next-epoch prediction (Fig. 3 line 4). ---
  Prediction prediction;
  if (config_.use_prediction) {
    MQA_TRACE_SPAN("epoch/predict");
    // Score the previous epoch's prediction against today's actuals.
    if (!prev_pred_worker_counts_.empty()) {
      std::vector<Point> worker_points;
      worker_points.reserve(new_workers.size());
      for (const Worker& w : new_workers) worker_points.push_back(w.Center());
      std::vector<Point> task_points;
      task_points.reserve(new_tasks.size());
      for (const Task& t : new_tasks) task_points.push_back(t.Center());
      metrics.worker_prediction_error = GridPredictor::AverageRelativeError(
          prev_pred_worker_counts_, predictor_.grid().Histogram(worker_points));
      metrics.task_prediction_error = GridPredictor::AverageRelativeError(
          prev_pred_task_counts_, predictor_.grid().Histogram(task_points));
    }
    predictor_.Observe(new_workers, new_tasks);
    if (predict_next) {
      prediction = predictor_.PredictNext();
      prev_pred_worker_counts_ = prediction.worker_cell_counts;
      prev_pred_task_counts_ = prediction.task_cell_counts;
    } else {
      prev_pred_worker_counts_.clear();
      prev_pred_task_counts_.clear();
    }
  }

  metrics.predict_seconds = TakePhase();

  // --- Assemble the assigner input (current first, then predicted). ---
  std::vector<Worker> inst_workers;
  std::vector<Task> inst_tasks;
  size_t num_current_workers = 0;
  size_t num_current_tasks = 0;
  {
    MQA_TRACE_SPAN("epoch/assemble");
    inst_workers = available_workers;
    inst_tasks = available_tasks;
    num_current_workers = inst_workers.size();
    num_current_tasks = inst_tasks.size();
    inst_workers.insert(inst_workers.end(), prediction.workers.begin(),
                        prediction.workers.end());
    inst_tasks.insert(inst_tasks.end(), prediction.tasks.begin(),
                      prediction.tasks.end());
  }
  metrics.workers_available = static_cast<int64_t>(num_current_workers);
  metrics.tasks_available = static_cast<int64_t>(num_current_tasks);
  metrics.predicted_workers = static_cast<int64_t>(prediction.workers.size());
  metrics.predicted_tasks = static_cast<int64_t>(prediction.tasks.size());
  metrics.assemble_seconds = TakePhase();

  {
    MQA_TRACE_SPAN("epoch/index");
    if (!config_.reuse_task_index) {
      task_index_cache_ =
          std::make_unique<TaskIndexCache>(config_.index_backend);
    }
    task_index_cache_->BeginInstance(inst_tasks);
  }
  {
    const IndexChurnStats& tc = task_index_cache_->last_churn();
    metrics.index_inserted = tc.inserted;
    metrics.index_erased = tc.erased;
    metrics.index_bulk_rebuilds = tc.bulk_rebuilt ? 1 : 0;
    MQA_METRIC_COUNT("mqa.index.inserted", metrics.index_inserted);
    MQA_METRIC_COUNT("mqa.index.erased", metrics.index_erased);
    MQA_METRIC_COUNT("mqa.index.bulk_rebuilds", metrics.index_bulk_rebuilds);
  }
  metrics.index_seconds = TakePhase();

  ProblemInstance instance(
      std::move(inst_workers), num_current_workers, std::move(inst_tasks),
      num_current_tasks, quality_, config_.unit_price, config_.budget);
  instance.set_task_index(task_index_cache_->view());
  instance.set_thread_pool(runner_.pool());
  // Recycle the pair-pool arena: slabs survive across epochs, so in the
  // steady state the assigner's pool construction is allocation-free. The
  // previous epoch's pool (dropped inside the last Assign) must not
  // outlive this Reset — assigners never retain pools.
  pair_arena_.Reset();
  instance.set_pair_arena(&pair_arena_);
  PairPoolStats pool_stats;
  instance.set_pool_stats(&pool_stats);

  // --- Assign (line 5). ---
  {
    MQA_TRACE_SPAN("epoch/assign");
    MQA_ASSIGN_OR_RETURN(outcome.result, assigner->Assign(instance));
  }
  metrics.assign_seconds = TakePhase();
  metrics.cpu_seconds = Seconds(t_start);
  metrics.pool_pairs = pool_stats.pairs;
  metrics.pool_predicted_pairs = pool_stats.predicted_pairs;
  metrics.pool_bytes = pool_stats.pool_bytes;
  metrics.pool_arena_slabs = pool_stats.arena_slabs;
  metrics.pool_arena_peak_bytes = pool_stats.arena_peak_bytes;
  metrics.pool_lazy_skipped_fraction = pool_stats.lazy_skipped_fraction;
  metrics.pool_build_seconds = pool_stats.build_seconds;
  outcome.coverable_backlog = pool_stats.covered_current_tasks;

  if (config_.validate_assignments) {
    MQA_TRACE_SPAN("epoch/validate");
    MQA_RETURN_NOT_OK(ValidateAssignment(instance, outcome.result));
  }
  metrics.validate_seconds = TakePhase();
  metrics.assigned = static_cast<int64_t>(outcome.result.pairs.size());
  metrics.quality = outcome.result.total_quality;
  metrics.cost = outcome.result.total_cost;
  metrics.assignment_checksum = AssignmentChecksum(outcome.result);
  MQA_METRIC_COUNT("mqa.epoch.assigned_total", metrics.assigned);
  MQA_METRIC_RECORD("mqa.epoch.wall_seconds", metrics.cpu_seconds);
  MQA_METRIC_RECORD("mqa.epoch.predict_seconds", metrics.predict_seconds);
  MQA_METRIC_RECORD("mqa.epoch.assign_seconds", metrics.assign_seconds);
  MQA_METRIC_RECORD("mqa.epoch.pool_build_seconds",
                    metrics.pool_build_seconds);
  // Per-phase self-time histograms: p50/p99 phase times without loading
  // a trace (each epoch-level phase span has no sibling overlap, so lap
  // time here IS the span's self time).
  MQA_METRIC_RECORD("mqa.phase.predict.self_seconds",
                    metrics.predict_seconds);
  MQA_METRIC_RECORD("mqa.phase.assemble.self_seconds",
                    metrics.assemble_seconds);
  MQA_METRIC_RECORD("mqa.phase.index.self_seconds", metrics.index_seconds);
  MQA_METRIC_RECORD("mqa.phase.assign.self_seconds", metrics.assign_seconds);
  MQA_METRIC_RECORD("mqa.phase.validate.self_seconds",
                    metrics.validate_seconds);

  // --- Mark consumed entities and compute rejoins (lines 6-7). ---
  MQA_TRACE_SPAN("epoch/apply");
  outcome.worker_assigned.assign(available_workers.size(), 0);
  outcome.task_assigned.assign(available_tasks.size(), 0);
  for (const Assignment& a : outcome.result.pairs) {
    // Assigners only emit current-current pairs, so the indices address
    // the available prefix of the instance vectors. Checked even with
    // validate_assignments off: an out-of-contract index must die loudly
    // here, not corrupt the marking vectors.
    MQA_CHECK(a.worker_index >= 0 &&
              static_cast<size_t>(a.worker_index) < available_workers.size())
        << "assignment names non-current worker " << a.worker_index;
    MQA_CHECK(a.task_index >= 0 &&
              static_cast<size_t>(a.task_index) < available_tasks.size())
        << "assignment names non-current task " << a.task_index;
    outcome.worker_assigned[static_cast<size_t>(a.worker_index)] = 1;
    outcome.task_assigned[static_cast<size_t>(a.task_index)] = 1;

    if (config_.workers_rejoin) {
      const Worker& w =
          instance.workers()[static_cast<size_t>(a.worker_index)];
      const Task& t = instance.tasks()[static_cast<size_t>(a.task_index)];
      const double travel =
          Distance(w.Center(), t.Center()) / std::max(w.velocity, 1e-9);
      EpochOutcome::Rejoin rejoin;
      rejoin.worker = w;
      rejoin.worker.location = BBox::FromPoint(t.Center());
      rejoin.offset = std::max<int64_t>(
          1, static_cast<int64_t>(std::ceil(travel / kInstanceDuration)));
      outcome.rejoins.push_back(std::move(rejoin));
    }
  }
  metrics.apply_seconds = TakePhase();
  MQA_METRIC_RECORD("mqa.phase.apply.self_seconds", metrics.apply_seconds);

  return outcome;
}

}  // namespace mqa
