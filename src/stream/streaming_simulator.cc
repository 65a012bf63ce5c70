#include "stream/streaming_simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "sim/epoch_runner.h"

namespace mqa {

const char* EpochPolicyKindToString(EpochPolicyKind kind) {
  switch (kind) {
    case EpochPolicyKind::kPerInstance:
      return "PER-INSTANCE";
    case EpochPolicyKind::kFixedInterval:
      return "FIXED-INTERVAL";
    case EpochPolicyKind::kEveryKArrivals:
      return "K-ARRIVALS";
    case EpochPolicyKind::kAdaptiveBacklog:
      return "ADAPTIVE-BACKLOG";
  }
  return "?";
}

namespace {

/// The run-scoped state machine behind StreamingSimulator::Run. Pools are
/// kept in arrival order (carryover preserves relative order, new
/// arrivals append) so that the per-instance epoch policy replays the
/// paper's batch loop byte-for-byte; every parallel vector (arrival
/// times, task keys) is compacted in lockstep.
class Engine {
 public:
  Engine(const StreamingConfig& config, const QualityModel* quality,
         EventQueue* queue, Assigner* assigner)
      : policy_(config.policy),
        adaptive_(policy_.kind == EpochPolicyKind::kAdaptiveBacklog),
        runner_(config.sim, quality),
        queue_(queue),
        assigner_(assigner) {}

  Result<StreamSummary> Run(double horizon) {
    horizon_ = horizon;
    switch (policy_.kind) {
      case EpochPolicyKind::kPerInstance:
      case EpochPolicyKind::kFixedInterval: {
        const double dt = policy_.kind == EpochPolicyKind::kPerInstance
                              ? kInstanceDuration
                              : policy_.interval;
        const auto num_epochs = static_cast<int64_t>(
            std::ceil(horizon_ / dt));
        for (int64_t k = 0; k < num_epochs; ++k) {
          const double t = static_cast<double>(k) * dt;
          StageDue(t);
          MQA_RETURN_NOT_OK(RunOneEpoch(t, /*predict_next=*/k + 1 < num_epochs,
                                        EpochFireReason::kGridTick));
        }
        // Arrivals in the fractional window between the last grid epoch
        // and the horizon still get one flush epoch — only events at or
        // past the horizon may be discarded. Grid-timed streams (the
        // batch-equivalence anchor) leave nothing here.
        while (!queue_->empty() && queue_->NextTime() < horizon_) {
          Stage(queue_->Pop());
        }
        if (staged_tasks_ > 0 || (staged_arrivals_ > 0 && !tasks_.empty())) {
          MQA_RETURN_NOT_OK(RunOneEpoch(
              std::max(prev_epoch_time_, last_staged_time_),
              /*predict_next=*/false, EpochFireReason::kFinalFlush));
        }
        break;
      }
      case EpochPolicyKind::kEveryKArrivals:
      case EpochPolicyKind::kAdaptiveBacklog: {
        while (!queue_->empty() && queue_->NextTime() < horizon_) {
          // Failsafe: never let the clock run more than max_interval past
          // the last epoch while tasks wait (a trickling stream must
          // still be served before deadlines burn down). Never earlier
          // than the staged events, though — entities cannot be served
          // before they arrive.
          if (adaptive_ && HasServiceableBacklog() &&
              queue_->NextTime() > prev_epoch_time_ + policy_.max_interval) {
            MQA_RETURN_NOT_OK(RunOneEpoch(
                std::max(prev_epoch_time_ + policy_.max_interval,
                         last_staged_time_),
                /*predict_next=*/true, EpochFireReason::kMaxInterval));
            continue;
          }
          const StreamEvent event = queue_->Pop();
          const double trigger_time = event.time;
          Stage(event);
          const bool fire =
              policy_.kind == EpochPolicyKind::kEveryKArrivals
                  ? staged_arrivals_ >= policy_.k_arrivals
                  : BacklogEstimate() >= policy_.backlog_threshold;
          if (fire) {
            // Triggered epochs always predict: whether a successor epoch
            // exists is unknowable here — the epoch itself may push
            // rejoin events that refill a momentarily empty queue. Only
            // the final flush below is known to be last.
            MQA_RETURN_NOT_OK(RunOneEpoch(
                trigger_time, /*predict_next=*/true,
                policy_.kind == EpochPolicyKind::kEveryKArrivals
                    ? EpochFireReason::kKArrivals
                    : EpochFireReason::kBacklogThreshold));
          }
        }
        // Final flush: whatever is staged or still pending gets one last
        // assignment round at the end of the observed stream.
        if (staged_tasks_ > 0 || !tasks_.empty()) {
          MQA_RETURN_NOT_OK(RunOneEpoch(
              std::max(prev_epoch_time_, last_staged_time_),
              /*predict_next=*/false, EpochFireReason::kFinalFlush));
        }
        break;
      }
    }
    summary_.Finalize();
    return std::move(summary_);
  }

 private:
  // --- Event staging -----------------------------------------------------

  /// Moves every event due at epoch time `t` from the queue to the staged
  /// list (time-driven policies stage and ingest in one go).
  void StageDue(double t) {
    while (!queue_->empty() && queue_->NextTime() <= t) {
      Stage(queue_->Pop());
    }
  }

  /// Appends one popped event to the staged list and updates the trigger
  /// counters. Ingestion into the pools happens at the next epoch.
  void Stage(StreamEvent event) {
    last_staged_time_ = std::max(last_staged_time_, event.time);
    switch (event.kind) {
      case EventKind::kWorkerArrival:
      case EventKind::kWorkerRejoin:
        ++staged_arrivals_;
        break;
      case EventKind::kTaskArrival:
        ++staged_arrivals_;
        ++staged_tasks_;
        break;
      case EventKind::kTaskExpiry:
        // Advisory: keeps the backlog estimate honest between epochs.
        // Authoritative removal happens in AgeTasks.
        live_keys_.erase(event.expiry_key);
        return;  // not kept in the staged list
    }
    staged_.push_back(std::move(event));
  }

  int64_t BacklogEstimate() const {
    return staged_tasks_ + static_cast<int64_t>(live_keys_.size());
  }

  bool HasServiceableBacklog() const {
    return staged_tasks_ > 0 || !tasks_.empty();
  }

  // --- Epoch execution ---------------------------------------------------

  /// Ages pending tasks to epoch time `t`: remaining deadlines shrink by
  /// the time since the previous epoch and fully elapsed tasks expire.
  /// The paper's carryover arithmetic (deadline -= elapsed, drop at
  /// <= 0), applied at the start of the next epoch instead of the end of
  /// the previous one — same drop set, same bits.
  void AgeTasks(double t, EpochStreamMetrics* em) {
    if (!any_epoch_) return;
    const double elapsed = t - prev_epoch_time_;
    size_t kept = 0;
    for (size_t j = 0; j < tasks_.size(); ++j) {
      Task task = tasks_[j];
      task.deadline -= elapsed;
      if (task.deadline > 0.0) {
        tasks_[kept] = task;
        task_arrivals_[kept] = task_arrivals_[j];
        task_keys_[kept] = task_keys_[j];
        ++kept;
      } else {
        ++em->expired;
        if (adaptive_) live_keys_.erase(task_keys_[j]);
      }
    }
    tasks_.resize(kept);
    task_arrivals_.resize(kept);
    task_keys_.resize(kept);
  }

  /// Moves the staged events into the pools. Worker arrivals and rejoins
  /// append in staged (event) order — for an ArrivalStream-fed queue that
  /// is the batch order: the stream batch first, then rejoiners in
  /// scheduling order. Task arrivals are normalized to remaining-as-of-t
  /// deadlines; a task that fully expired strictly between epochs is
  /// dropped before it is ever offered (it was never visible to any
  /// assignment round — the "expiry" leg of the event model).
  Status Ingest(double t, EpochStreamMetrics* em) {
    for (StreamEvent& event : staged_) {
      switch (event.kind) {
        case EventKind::kWorkerRejoin:
          event.worker.arrival = epoch_index_;
          [[fallthrough]];
        case EventKind::kWorkerArrival: {
          MQA_RETURN_NOT_OK(ValidateWorkerShape(event.worker));
          new_workers_.push_back(event.worker);
          workers_.push_back(std::move(event.worker));
          break;
        }
        case EventKind::kTaskArrival: {
          MQA_RETURN_NOT_OK(ValidateTaskShape(event.task));
          const double remaining = event.task.deadline - (t - event.time);
          if (event.time < t && remaining <= 0.0) {
            ++em->expired;
            break;
          }
          event.task.deadline = remaining;
          const int64_t key = next_key_++;
          if (adaptive_) {
            live_keys_.insert(key);
            // Expiry notification for the backlog estimate; removal
            // itself stays epoch-clocked in AgeTasks.
            StreamEvent expiry;
            expiry.time = t + remaining;
            expiry.kind = EventKind::kTaskExpiry;
            expiry.expiry_key = key;
            if (expiry.time < horizon_) queue_->Push(std::move(expiry));
          }
          new_tasks_.push_back(event.task);
          tasks_.push_back(std::move(event.task));
          task_arrivals_.push_back(event.time);
          task_keys_.push_back(key);
          break;
        }
        case EventKind::kTaskExpiry:
          MQA_CHECK(false) << "expiry events are consumed at staging";
      }
    }
    staged_.clear();
    staged_arrivals_ = 0;
    staged_tasks_ = 0;
    return Status::OK();
  }

  /// Counts the firing decision in the registry. The metric macros cache
  /// one handle per call site, so each reason gets its own literal name.
  static void CountFireReason(EpochFireReason reason) {
    switch (reason) {
      case EpochFireReason::kGridTick:
        MQA_METRIC_COUNT("mqa.stream.fire.grid_tick", 1);
        break;
      case EpochFireReason::kKArrivals:
        MQA_METRIC_COUNT("mqa.stream.fire.k_arrivals", 1);
        break;
      case EpochFireReason::kBacklogThreshold:
        MQA_METRIC_COUNT("mqa.stream.fire.backlog_threshold", 1);
        break;
      case EpochFireReason::kMaxInterval:
        MQA_METRIC_COUNT("mqa.stream.fire.max_interval", 1);
        break;
      case EpochFireReason::kFinalFlush:
        MQA_METRIC_COUNT("mqa.stream.fire.final_flush", 1);
        break;
    }
  }

  Status RunOneEpoch(double t, bool predict_next, EpochFireReason reason) {
    MQA_TRACE_SPAN_ARG("stream/epoch", epoch_index_);
    CountFireReason(reason);
    EpochStreamMetrics em;
    em.epoch_time = t;
    em.fire_reason = reason;
    double ingest_seconds = 0.0;
    {
      MQA_TRACE_SPAN("stream/ingest");
      const auto t_ingest = std::chrono::steady_clock::now();
      AgeTasks(t, &em);
      MQA_RETURN_NOT_OK(Ingest(t, &em));
      ingest_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t_ingest)
                           .count();
    }
    em.ingested_workers = static_cast<int64_t>(new_workers_.size());
    em.ingested_tasks = static_cast<int64_t>(new_tasks_.size());
    em.backlog_before = static_cast<int64_t>(tasks_.size());

    EpochOutcome outcome;
    MQA_ASSIGN_OR_RETURN(
        outcome, runner_.RunEpoch(epoch_index_, new_workers_, new_tasks_,
                                  workers_, tasks_, predict_next, assigner_));
    new_workers_.clear();
    new_tasks_.clear();
    em.instance = outcome.metrics;
    {
      // The count came with the epoch's pair pool; this phase is a copy,
      // still timed so run reports and --phase-timing keep the field.
      const auto t_backlog = std::chrono::steady_clock::now();
      em.coverable_backlog = outcome.coverable_backlog;
      em.instance.backlog_scan_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t_backlog)
              .count();
    }
    // Phases outside the epoch core, surfaced so every report stays
    // field-compatible (--phase-timing CSV and run-report rows).
    em.instance.ingest_seconds = ingest_seconds;
    MQA_METRIC_RECORD("mqa.phase.ingest.self_seconds", ingest_seconds);
    MQA_METRIC_RECORD("mqa.phase.backlog_scan.self_seconds",
                      em.instance.backlog_scan_seconds);
    RunReport::Get().RecordEpoch(ToEpochReportRow(em.instance));
    MQA_METRIC_RECORD("mqa.stream.epoch_latency_seconds",
                      outcome.metrics.cpu_seconds);
    MQA_METRIC_GAUGE_SET("mqa.stream.backlog",
                         static_cast<double>(em.backlog_before));

    // Queue waits of the tasks this epoch served (arrival -> assignment).
    double wait_sum = 0.0;
    for (size_t j = 0; j < tasks_.size(); ++j) {
      if (!outcome.task_assigned[j]) continue;
      const double wait = t - task_arrivals_[j];
      summary_.queue_waits.push_back(wait);
      MQA_METRIC_RECORD("mqa.stream.queue_wait", wait);
      wait_sum += wait;
    }
    if (outcome.metrics.assigned > 0) {
      em.mean_queue_wait =
          wait_sum / static_cast<double>(outcome.metrics.assigned);
    }

    // Completions: assigned workers travel, then rejoin as future arrival
    // events on the instance grid. Past-horizon rejoins are discarded: a
    // batch run drops rejoiners past its last instance.
    for (EpochOutcome::Rejoin& rejoin : outcome.rejoins) {
      StreamEvent event;
      event.time = t + static_cast<double>(rejoin.offset) * kInstanceDuration;
      event.kind = EventKind::kWorkerRejoin;
      event.worker = std::move(rejoin.worker);
      if (event.time < horizon_) queue_->Push(std::move(event));
    }

    // Carry over unassigned entities, preserving order (deadline aging
    // happens at the next epoch's AgeTasks).
    size_t kept = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (outcome.worker_assigned[i]) continue;
      workers_[kept] = std::move(workers_[i]);
      ++kept;
    }
    workers_.resize(kept);
    kept = 0;
    for (size_t j = 0; j < tasks_.size(); ++j) {
      if (outcome.task_assigned[j]) {
        if (adaptive_) live_keys_.erase(task_keys_[j]);
        continue;
      }
      tasks_[kept] = std::move(tasks_[j]);
      task_arrivals_[kept] = task_arrivals_[j];
      task_keys_[kept] = task_keys_[j];
      ++kept;
    }
    tasks_.resize(kept);
    task_arrivals_.resize(kept);
    task_keys_.resize(kept);
    em.backlog_after = static_cast<int64_t>(tasks_.size());

    prev_epoch_time_ = t;
    any_epoch_ = true;
    ++epoch_index_;
    summary_.per_epoch.push_back(std::move(em));
    return Status::OK();
  }

  const EpochPolicy policy_;
  const bool adaptive_;
  EpochRunner runner_;
  EventQueue* queue_;
  Assigner* assigner_;
  double horizon_ = 0.0;

  // Pending pools, batch-ordered; the task-side parallel vectors
  // (arrival times for queue waits, keys for expiry tracking) are
  // compacted in lockstep.
  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  std::vector<double> task_arrivals_;
  std::vector<int64_t> task_keys_;
  int64_t next_key_ = 0;

  // Events popped but not yet ingested, plus the trigger counters.
  std::vector<StreamEvent> staged_;
  int64_t staged_arrivals_ = 0;
  int64_t staged_tasks_ = 0;
  double last_staged_time_ = 0.0;

  // Keys of pending-or-staged, not-yet-expired tasks: the adaptive
  // policy's live backlog estimate (maintained only when adaptive_).
  std::unordered_set<int64_t> live_keys_;

  // This epoch's arrivals, for prediction bookkeeping.
  std::vector<Worker> new_workers_;
  std::vector<Task> new_tasks_;

  double prev_epoch_time_ = 0.0;
  bool any_epoch_ = false;
  int64_t epoch_index_ = 0;
  StreamSummary summary_;
};

}  // namespace

StreamingSimulator::StreamingSimulator(const StreamingConfig& config,
                                       const QualityModel* quality)
    : config_(config), quality_(quality) {
  MQA_CHECK(quality != nullptr) << "quality model required";
}

Result<StreamSummary> StreamingSimulator::Run(EventQueue queue,
                                              Assigner* assigner) {
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner required");
  }
  const EpochPolicy& policy = config_.policy;
  if (policy.kind == EpochPolicyKind::kFixedInterval &&
      !(policy.interval > 0.0 && std::isfinite(policy.interval))) {
    return Status::InvalidArgument("epoch interval must be positive");
  }
  if (policy.kind == EpochPolicyKind::kEveryKArrivals &&
      policy.k_arrivals < 1) {
    return Status::InvalidArgument("k_arrivals must be >= 1");
  }
  if (policy.kind == EpochPolicyKind::kAdaptiveBacklog &&
      (policy.backlog_threshold < 1 ||
       !(policy.max_interval > 0.0 && std::isfinite(policy.max_interval)))) {
    return Status::InvalidArgument(
        "adaptive policy needs backlog_threshold >= 1 and a positive "
        "max_interval");
  }
  double horizon = config_.horizon;
  if (horizon <= 0.0) {
    horizon = std::floor(queue.max_arrival_time()) + 1.0;
  }
  if (!std::isfinite(horizon)) {
    return Status::InvalidArgument("horizon must be finite");
  }

  Engine engine(config_, quality_, &queue, assigner);
  return engine.Run(horizon);
}

}  // namespace mqa
