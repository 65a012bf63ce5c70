#include "stream/event_queue.h"

#include <utility>

namespace mqa {

void EventQueue::Push(StreamEvent event) {
  event.seq = next_seq_++;
  if (event.kind == EventKind::kWorkerArrival ||
      event.kind == EventKind::kTaskArrival) {
    if (event.time > max_arrival_time_) max_arrival_time_ = event.time;
  }
  heap_.push(std::move(event));
}

StreamEvent EventQueue::Pop() {
  StreamEvent event = heap_.top();
  heap_.pop();
  return event;
}

EventQueue EventQueue::FromArrivalStream(const ArrivalStream& stream) {
  size_t num_events = 0;
  for (size_t p = 0; p < stream.workers.size(); ++p) {
    num_events += stream.workers[p].size() + stream.tasks[p].size();
  }
  std::vector<StreamEvent> events;
  events.reserve(num_events);
  for (size_t p = 0; p < stream.workers.size(); ++p) {
    const double time = static_cast<double>(p);
    for (const Worker& w : stream.workers[p]) {
      StreamEvent& e = events.emplace_back();
      e.time = time;
      e.kind = EventKind::kWorkerArrival;
      e.worker = w;
    }
    for (const Task& t : stream.tasks[p]) {
      StreamEvent& e = events.emplace_back();
      e.time = time;
      e.kind = EventKind::kTaskArrival;
      e.task = t;
    }
  }
  return EventQueue(std::move(events));
}

EventQueue EventQueue::FromScenario(const ScenarioStream& scenario) {
  std::vector<StreamEvent> events;
  events.reserve(scenario.workers.size() + scenario.tasks.size());
  for (const TimedWorker& tw : scenario.workers) {
    StreamEvent& e = events.emplace_back();
    e.time = tw.time;
    e.kind = EventKind::kWorkerArrival;
    e.worker = tw.worker;
  }
  for (const TimedTask& tt : scenario.tasks) {
    StreamEvent& e = events.emplace_back();
    e.time = tt.time;
    e.kind = EventKind::kTaskArrival;
    e.task = tt.task;
  }
  return EventQueue(std::move(events));
}

EventQueue::EventQueue(std::vector<StreamEvent> arrivals) {
  for (StreamEvent& e : arrivals) {
    e.seq = next_seq_++;
    if (e.time > max_arrival_time_) max_arrival_time_ = e.time;
  }
  // (time, seq) is a total order, so one heapify pops exactly like the
  // equivalent sequence of Push calls.
  heap_ = decltype(heap_)(Later(), std::move(arrivals));
}

}  // namespace mqa
