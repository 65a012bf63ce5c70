#ifndef MQA_STREAM_EVENT_QUEUE_H_
#define MQA_STREAM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/status.h"
#include "model/task.h"
#include "model/worker.h"
#include "sim/arrival_stream.h"
#include "workload/scenario.h"

namespace mqa {

/// What happened at a point in continuous time. Arrival events are loaded
/// up front (from a scenario generator or a batch ArrivalStream); rejoin
/// and expiry events are scheduled *by the engine while it runs* — a
/// completion pushes the worker's rejoin into the future, a task arrival
/// pushes its expiry notification.
enum class EventKind {
  kWorkerArrival,
  kTaskArrival,
  /// A worker finished a task and rejoins the pool at its location
  /// (payload in `worker`, relocated and re-stamped by the engine).
  kWorkerRejoin,
  /// A pending task's deadline has fully elapsed. Carries the engine's
  /// pending-task key, not an entity payload. Advisory: the engine's
  /// epoch-clocked deadline bookkeeping stays authoritative for *removal*
  /// (that is what the batch-equivalence contract pins down); expiry
  /// events keep the live backlog estimate honest between epochs, which
  /// is what the adaptive epoch policy triggers on.
  kTaskExpiry,
};

struct StreamEvent {
  double time = 0.0;
  /// Global tiebreaker: events at equal times are delivered in push
  /// order. Assigned by EventQueue::Push.
  int64_t seq = 0;
  EventKind kind = EventKind::kWorkerArrival;

  Worker worker;       // kWorkerArrival / kWorkerRejoin
  Task task;           // kTaskArrival
  int64_t expiry_key = -1;  // kTaskExpiry
};

/// Min-heap of timestamped events ordered by (time, seq): simultaneous
/// events are delivered in the order they were pushed, which makes every
/// replay of the same pushes byte-deterministic regardless of heap
/// internals.
class EventQueue {
 public:
  EventQueue() = default;

  /// Enqueues `event`, stamping its seq. Events may be pushed while the
  /// engine drains the queue (rejoins, expiries).
  void Push(StreamEvent event);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Earliest pending event. Undefined when empty.
  const StreamEvent& Top() const { return heap_.top(); }
  double NextTime() const { return heap_.top().time; }
  StreamEvent Pop();

  /// Largest arrival timestamp ever pushed (0 when none); the engine
  /// derives a default horizon from it.
  double max_arrival_time() const { return max_arrival_time_; }

  /// Lifts a batch arrival stream into events: the batch-p entities
  /// arrive at continuous time p, workers before tasks, each batch in
  /// vector order — the paper's per-instance arrival order, which the
  /// batch Simulator replays through the per-instance epoch policy. Call
  /// stream.Validate() first; this does not.
  static EventQueue FromArrivalStream(const ArrivalStream& stream);

  /// Lifts a scenario's timestamped arrivals into events. Each list is
  /// already (time, id)-sorted; workers are pushed first so simultaneous
  /// worker/task arrivals keep the batch convention (workers first).
  static EventQueue FromScenario(const ScenarioStream& scenario);

 private:
  /// The factories' one construction path: stamps seq in vector order,
  /// tracks the max arrival time, and heapifies once.
  explicit EventQueue(std::vector<StreamEvent> arrivals);

  struct Later {
    bool operator()(const StreamEvent& a, const StreamEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<StreamEvent, std::vector<StreamEvent>, Later> heap_;
  int64_t next_seq_ = 0;
  double max_arrival_time_ = 0.0;
};

}  // namespace mqa

#endif  // MQA_STREAM_EVENT_QUEUE_H_
