// Unit tests of the streaming engine's building blocks: event queue
// ordering, epoch policies, expiry semantics, stream metrics, and the
// fail-fast rejection of malformed entities.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "quality/range_quality.h"
#include "stream/event_queue.h"
#include "stream/streaming_simulator.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;

TEST(EventQueueTest, OrdersByTimeThenPushOrder) {
  EventQueue queue;
  StreamEvent a;
  a.time = 2.0;
  a.kind = EventKind::kWorkerArrival;
  a.worker = MakeWorker(1, 0.1, 0.1, 0.3);
  StreamEvent b;
  b.time = 1.0;
  b.kind = EventKind::kTaskArrival;
  b.task = MakeTask(7, 0.2, 0.2, 1.0);
  StreamEvent c;
  c.time = 2.0;
  c.kind = EventKind::kTaskArrival;
  c.task = MakeTask(8, 0.3, 0.3, 1.0);
  queue.Push(a);
  queue.Push(b);
  queue.Push(c);

  EXPECT_EQ(queue.Pop().task.id, 7);  // earliest time first
  // Equal times pop in push order: the worker pushed before the task.
  EXPECT_EQ(queue.Pop().kind, EventKind::kWorkerArrival);
  EXPECT_EQ(queue.Pop().task.id, 8);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, FromArrivalStreamPreservesBatchOrder) {
  ArrivalStream stream;
  stream.workers.resize(2);
  stream.tasks.resize(2);
  stream.workers[0] = {MakeWorker(10, 0.1, 0.1, 0.3),
                       MakeWorker(11, 0.2, 0.2, 0.3)};
  stream.tasks[0] = {MakeTask(20, 0.3, 0.3, 1.5)};
  stream.workers[1] = {MakeWorker(12, 0.4, 0.4, 0.3)};
  stream.workers[1][0].arrival = 1;

  EventQueue queue = EventQueue::FromArrivalStream(stream);
  EXPECT_EQ(queue.max_arrival_time(), 1.0);
  // Instance 0: workers in vector order, then tasks; then instance 1.
  EXPECT_EQ(queue.Pop().worker.id, 10);
  EXPECT_EQ(queue.Pop().worker.id, 11);
  EXPECT_EQ(queue.Pop().task.id, 20);
  const StreamEvent last = queue.Pop();
  EXPECT_EQ(last.worker.id, 12);
  EXPECT_EQ(last.time, 1.0);
}

TEST(StreamMetricsTest, PercentileNearestRank) {
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({3.0}, 99.0), 3.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 1.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 99.0), 99.0);
  EXPECT_EQ(Percentile(hundred, 50.0), 50.0);
}

// --- Policy behavior on a hand-built stream --------------------------------

EventQueue TinyQueue(int instances, int workers_per, int tasks_per) {
  ArrivalStream stream;
  stream.workers.resize(static_cast<size_t>(instances));
  stream.tasks.resize(static_cast<size_t>(instances));
  int64_t id = 0;
  for (int p = 0; p < instances; ++p) {
    for (int k = 0; k < workers_per; ++k) {
      Worker w = MakeWorker(id++, 0.1 + 0.2 * k, 0.5, 0.5);
      w.arrival = p;
      stream.workers[static_cast<size_t>(p)].push_back(w);
    }
    for (int k = 0; k < tasks_per; ++k) {
      Task t = MakeTask(id++, 0.15 + 0.2 * k, 0.5, 1.5);
      t.arrival = p;
      stream.tasks[static_cast<size_t>(p)].push_back(t);
    }
  }
  return EventQueue::FromArrivalStream(stream);
}

StreamingConfig TinyConfig() {
  StreamingConfig config;
  config.sim.budget = 100.0;
  config.sim.unit_price = 1.0;
  config.sim.use_prediction = false;
  config.sim.workers_rejoin = false;
  return config;
}

TEST(StreamingPolicyTest, FixedIntervalCutsTheExpectedEpochs) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kFixedInterval;
  config.policy.interval = 0.5;
  config.horizon = 3.0;
  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(TinyQueue(3, 2, 2), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  // Epochs at 0, 0.5, ..., 2.5.
  ASSERT_EQ(summary.value().per_epoch.size(), 6u);
  EXPECT_EQ(summary.value().per_epoch[1].epoch_time, 0.5);
  EXPECT_EQ(summary.value().per_epoch[5].epoch_time, 2.5);
  // Arrivals land on integer times: fractional epochs ingest nothing.
  EXPECT_EQ(summary.value().per_epoch[1].ingested_tasks, 0);
  EXPECT_EQ(summary.value().per_epoch[0].ingested_tasks, 2);
}

TEST(StreamingPolicyTest, EveryKArrivalsFiresAtKAndFlushes) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kEveryKArrivals;
  config.policy.k_arrivals = 4;  // one instance's 2+2 arrivals
  config.horizon = 3.0;
  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(TinyQueue(3, 2, 2), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  // 12 arrivals, K=4: three triggered epochs (no leftover to flush).
  ASSERT_EQ(epochs.size(), 3u);
  for (const auto& e : epochs) {
    EXPECT_EQ(e.ingested_workers + e.ingested_tasks, 4);
  }
}

TEST(StreamingPolicyTest, AdaptiveBacklogTriggersAtThreshold) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.backlog_threshold = 3;
  config.policy.max_interval = 10.0;
  config.horizon = 4.0;
  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  // 1 worker / 2 tasks per instance: backlog grows even with assignment.
  const auto summary = sim.Run(TinyQueue(4, 1, 2), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_GE(epochs.size(), 2u);
  // The first epoch fires once 3 task arrivals are staged (mid instance
  // 1), not at instance 0.
  EXPECT_EQ(epochs[0].backlog_before, 3);
  EXPECT_EQ(epochs[0].epoch_time, 1.0);
}

TEST(StreamingPolicyTest, AdaptiveFailsafeServesTricklingStream) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.backlog_threshold = 100;  // never reached by volume
  config.policy.max_interval = 2.0;
  config.horizon = 10.0;

  // One worker/task pair at t=0, next event only at t=9: the failsafe
  // must cut an epoch at t=2 so the t=0 task is served within its
  // deadline-ish window rather than rotting until t=9.
  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 0.0;
  queue.Push(w);
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 3.0);
  t.time = 0.0;
  queue.Push(t);
  StreamEvent late;
  late.kind = EventKind::kWorkerArrival;
  late.worker = MakeWorker(2, 0.5, 0.5, 0.5);
  late.time = 9.0;
  queue.Push(late);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_GE(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].epoch_time, 2.0);
  EXPECT_EQ(epochs[0].instance.assigned, 1);
  // Queue wait of the served task: arrival 0 -> assignment 2.
  EXPECT_EQ(summary.value().p50_queue_wait, 2.0);
}

TEST(StreamingPolicyTest, AdaptiveFailsafeNeverFiresBeforeStagedEvents) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.backlog_threshold = 100;
  config.policy.max_interval = 4.0;
  config.horizon = 120.0;

  // A worker/task pair arriving at t=10, next event far out at t=100:
  // the failsafe must fire at t=10 (when the entities exist), not at
  // prev_epoch + max_interval = 4, and the recorded wait must be >= 0.
  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 10.0;
  queue.Push(w);
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 3.0);
  t.time = 10.0;
  queue.Push(t);
  StreamEvent late;
  late.kind = EventKind::kWorkerArrival;
  late.worker = MakeWorker(2, 0.5, 0.5, 0.5);
  late.time = 100.0;
  queue.Push(late);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_GE(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].epoch_time, 10.0);
  EXPECT_EQ(epochs[0].instance.assigned, 1);
  EXPECT_EQ(epochs[0].mean_queue_wait, 0.0);
  for (const double wait : summary.value().queue_waits) {
    EXPECT_GE(wait, 0.0);
  }
}

TEST(StreamingPolicyTest, TimeDrivenFlushServesFinalFractionalWindow) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kFixedInterval;
  config.policy.interval = 0.5;
  config.horizon = 5.0;

  // Arrivals at t=4.7, after the last grid epoch (4.5) but before the
  // horizon: a flush epoch must serve them instead of dropping them.
  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 4.7;
  queue.Push(w);
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 3.0);
  t.time = 4.7;
  queue.Push(t);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_EQ(summary.value().per_epoch.size(), 11u);  // 10 grid + 1 flush
  EXPECT_EQ(summary.value().per_epoch.back().epoch_time, 4.7);
  EXPECT_EQ(summary.value().total_assigned, 1);
}

TEST(StreamingPolicyTest, MidGapExpiryNeverOffersDeadTasks) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kFixedInterval;
  config.policy.interval = 4.0;  // one late epoch at t=4 (plus t=0)
  config.horizon = 8.0;

  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 0.5;
  queue.Push(w);
  // Task arrives at t=1 with deadline 1.5: fully expired at the t=4
  // epoch, so it must be dropped at ingestion, never offered.
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 1.5);
  t.time = 1.0;
  queue.Push(t);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[1].expired, 1);
  EXPECT_EQ(epochs[1].backlog_before, 0);
  EXPECT_EQ(summary.value().total_assigned, 0);
}

// One budget-0 epoch (nothing assigned) over a worker at (0.1, 0.1) with
// v = 0.2, a task in its reach and a task far out of it; optionally an
// immobile (v = 0) worker standing on the far task.
EpochStreamMetrics NearAndFarTaskEpoch(bool immobile_on_far_task) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kPerInstance;
  config.horizon = 1.0;
  config.sim.budget = 0.0;  // nothing gets assigned; backlog persists

  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.1, 0.1, 0.2);
  w.time = 0.0;
  queue.Push(w);
  if (immobile_on_far_task) {
    StreamEvent still;
    still.kind = EventKind::kWorkerArrival;
    still.worker = MakeWorker(1, 0.9, 0.9, 0.0);
    still.time = 0.0;
    queue.Push(still);
  }
  // In reach of the worker (distance 0.1 <= 0.2 * 1.0)...
  StreamEvent near;
  near.kind = EventKind::kTaskArrival;
  near.task = MakeTask(1, 0.2, 0.1, 1.0);
  near.time = 0.0;
  queue.Push(near);
  // ...and far out of reach of any moving worker.
  StreamEvent far;
  far.kind = EventKind::kTaskArrival;
  far.task = MakeTask(2, 0.9, 0.9, 1.0);
  far.time = 0.0;
  queue.Push(far);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  EXPECT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary.value().per_epoch.size(), 1u);
  return summary.value().per_epoch.at(0);
}

TEST(StreamingPolicyTest, CoverableBacklogCountsReachableTasksOnly) {
  const EpochStreamMetrics epoch = NearAndFarTaskEpoch(false);
  EXPECT_EQ(epoch.backlog_before, 2);
  EXPECT_EQ(epoch.coverable_backlog, 1);
}

// A worker with v = 0 reaches nothing, not even a task at distance 0:
// CanReach rejects velocity <= 0, so no assigner can ever give it the
// task it stands on.
TEST(StreamingPolicyTest, ImmobileWorkerCoversNoTask) {
  const EpochStreamMetrics epoch = NearAndFarTaskEpoch(true);
  EXPECT_EQ(epoch.backlog_before, 2);
  EXPECT_EQ(epoch.coverable_backlog, 1);
}

// --- Watermark / late-event semantics --------------------------------------
//
// The streaming engine's lateness contract (src/stream/README.md): events
// are only observed at epoch boundaries, so an arrival mid-window waits
// until the next epoch fires. Its deadline decays by exactly that wait
// (the batch loop's carryover arithmetic), which bounds the tolerated
// lateness to one epoch: under --epoch-policy=instance a task whose
// deadline cannot survive until the next grid tick expires at ingestion
// and is never offered to the assigner.

TEST(WatermarkTest, LateTaskPastToleranceExpiresAtIngestion) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kPerInstance;
  config.horizon = 2.0;

  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 0.0;
  queue.Push(w);
  // Arrives just after the t=0 epoch; 0.9 of deadline cannot cover the
  // 0.95 wait until the t=1 epoch, so it must expire unobserved.
  StreamEvent dead;
  dead.kind = EventKind::kTaskArrival;
  dead.task = MakeTask(1, 0.5, 0.5, 0.9);
  dead.time = 0.05;
  queue.Push(dead);
  // Boundary pin: a deadline exactly equal to the wait (remaining == 0)
  // also expires — expiry is "deadline <= epoch time", not "<".
  StreamEvent edge;
  edge.kind = EventKind::kTaskArrival;
  edge.task = MakeTask(2, 0.5, 0.5, 0.95);
  edge.time = 0.05;
  queue.Push(edge);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[1].expired, 2);
  EXPECT_EQ(epochs[1].backlog_before, 0);
  EXPECT_EQ(summary.value().total_assigned, 0);
}

TEST(WatermarkTest, LateTaskWithinToleranceServedWithDecayedDeadline) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kPerInstance;
  config.horizon = 2.0;

  EventQueue queue;
  StreamEvent w;
  w.kind = EventKind::kWorkerArrival;
  w.worker = MakeWorker(0, 0.5, 0.5, 0.5);
  w.time = 0.0;
  queue.Push(w);
  // Same lateness as above, but 1.2 of deadline survives the 0.95 wait:
  // the task is served at t=1 with 0.25 of deadline remaining.
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 1.2);
  t.time = 0.05;
  queue.Push(t);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const auto& epochs = summary.value().per_epoch;
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[1].instance.assigned, 1);
  EXPECT_EQ(epochs[1].expired, 0);
  // The recorded queue wait is arrival -> serving epoch.
  EXPECT_DOUBLE_EQ(summary.value().p50_queue_wait, 0.95);
}

TEST(WatermarkTest, QueueAbsorbsOutOfOrderPushes) {
  // The event queue is the watermark mechanism: producers may push in any
  // order and the engine still observes time-sorted events, so a
  // scrambled feed replays to the same bits as a sorted one.
  const auto make_events = [] {
    std::vector<StreamEvent> events;
    for (int k = 0; k < 6; ++k) {
      StreamEvent w;
      w.kind = EventKind::kWorkerArrival;
      w.worker = MakeWorker(k, 0.1 + 0.12 * k, 0.4, 0.5);
      w.time = 0.1 + 0.3 * k;
      events.push_back(w);
      StreamEvent t;
      t.kind = EventKind::kTaskArrival;
      t.task = MakeTask(100 + k, 0.12 + 0.12 * k, 0.45, 2.0);
      t.time = 0.2 + 0.3 * k;
      events.push_back(t);
    }
    return events;
  };
  const auto run = [](EventQueue queue) {
    const testing_util::ConstantQualityModel quality(1.0);
    StreamingConfig config = TinyConfig();
    config.policy.kind = EpochPolicyKind::kPerInstance;
    config.horizon = 2.0;
    StreamingSimulator sim(config, &quality);
    auto assigner = CreateAssigner(AssignerKind::kGreedy);
    const auto summary = sim.Run(std::move(queue), assigner.get());
    EXPECT_TRUE(summary.ok()) << summary.status();
    std::vector<uint64_t> checksums;
    if (summary.ok()) {
      for (const auto& e : summary.value().per_epoch) {
        checksums.push_back(e.instance.assignment_checksum);
      }
    }
    return checksums;
  };

  EventQueue sorted;
  for (const StreamEvent& e : make_events()) sorted.Push(e);
  EventQueue scrambled;
  // All event times are distinct, so push order must not matter.
  std::vector<StreamEvent> events = make_events();
  for (size_t k = 0; k < events.size(); ++k) {
    scrambled.Push(events[(k * 7 + 3) % events.size()]);
  }
  const auto expected = run(std::move(sorted));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run(std::move(scrambled)), expected);
}

// --- Fail-fast on malformed inputs -----------------------------------------

TEST(StreamValidationTest, ArrivalStreamRejectsMalformedEntities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  ArrivalStream ok;
  ok.workers.resize(1);
  ok.tasks.resize(1);
  ok.workers[0].push_back(MakeWorker(0, 0.5, 0.5, 0.3));
  ok.tasks[0].push_back(MakeTask(1, 0.5, 0.5, 1.0));
  EXPECT_TRUE(ok.Validate().ok());

  // NaN coordinates cannot even be constructed (BBox aborts on them);
  // infinities can, and must be rejected here.
  ArrivalStream bad = ok;
  bad.workers[0][0].location = BBox::FromPoint({inf, 0.5});
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.workers[0][0].velocity = -0.1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.workers[0][0].velocity = nan;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.tasks[0][0].deadline = inf;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.tasks[0][0].location = BBox::FromPoint({0.5, inf});
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(StreamValidationTest, EngineRejectsMalformedEventPayloads) {
  const testing_util::ConstantQualityModel quality(1.0);
  StreamingConfig config = TinyConfig();
  config.horizon = 1.0;

  EventQueue queue;
  StreamEvent t;
  t.kind = EventKind::kTaskArrival;
  t.task = MakeTask(1, 0.5, 0.5, 1.0);
  t.task.deadline = std::numeric_limits<double>::quiet_NaN();
  t.time = 0.0;
  queue.Push(t);

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  EXPECT_FALSE(sim.Run(std::move(queue), assigner.get()).ok());
}

TEST(StreamValidationTest, RejectsBadPolicyConfigs) {
  const testing_util::ConstantQualityModel quality(1.0);
  auto assigner = CreateAssigner(AssignerKind::kGreedy);

  StreamingConfig config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kFixedInterval;
  config.policy.interval = 0.0;
  EXPECT_FALSE(StreamingSimulator(config, &quality)
                   .Run(EventQueue(), assigner.get())
                   .ok());

  config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kEveryKArrivals;
  config.policy.k_arrivals = 0;
  EXPECT_FALSE(StreamingSimulator(config, &quality)
                   .Run(EventQueue(), assigner.get())
                   .ok());

  config = TinyConfig();
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.max_interval = -1.0;
  EXPECT_FALSE(StreamingSimulator(config, &quality)
                   .Run(EventQueue(), assigner.get())
                   .ok());

  config = TinyConfig();
  EXPECT_FALSE(
      StreamingSimulator(config, &quality).Run(EventQueue(), nullptr).ok());
}

}  // namespace
}  // namespace mqa
