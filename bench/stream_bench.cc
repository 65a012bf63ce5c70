// Streaming-engine bench: replay a bursty flash-crowd scenario through
// the event-driven StreamingSimulator under each epoch policy and report
// what the batch metrics cannot see — per-epoch assignment latency
// percentiles, arrival -> assignment queue waits, backlog depth.
//
// The bench is self-checking:
//  * the per-instance epoch policy must reproduce the batch Simulator's
//    totals bit-for-bit on the same workload (the streaming determinism
//    contract at bench scale);
//  * parallel workload generation must be byte-identical to sequential
//    generation (and its speedup is reported).
//
// MQA_STREAM_BENCH_N overrides the per-side entity count (default 20000).
// MQA_STREAM_BENCH_THREADS overrides the thread count (default 4).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "core/assigner.h"
#include "exec/parallel_runner.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int64_t EnvSize(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoll(env) : fallback;
}

bool CheckIdentical(const ArrivalStream& a, const ArrivalStream& b) {
  if (a.workers.size() != b.workers.size()) return false;
  for (size_t p = 0; p < a.workers.size(); ++p) {
    if (a.workers[p].size() != b.workers[p].size() ||
        a.tasks[p].size() != b.tasks[p].size()) {
      return false;
    }
    for (size_t i = 0; i < a.workers[p].size(); ++i) {
      const Worker& x = a.workers[p][i];
      const Worker& y = b.workers[p][i];
      if (x.id != y.id || !(x.location == y.location) ||
          x.velocity != y.velocity) {
        return false;
      }
    }
    for (size_t j = 0; j < a.tasks[p].size(); ++j) {
      const Task& x = a.tasks[p][j];
      const Task& y = b.tasks[p][j];
      if (x.id != y.id || !(x.location == y.location) ||
          x.deadline != y.deadline) {
        return false;
      }
    }
  }
  return true;
}

int RunBench() {
  const int64_t n = EnvSize("MQA_STREAM_BENCH_N", 20000);
  const int threads =
      static_cast<int>(EnvSize("MQA_STREAM_BENCH_THREADS", 4));
  const double horizon = 15.0;

  bench::PrintHeader("Streaming engine — bursty scenario, epoch policies, "
                     "queue metrics");
  std::printf("n=%lld per side, horizon %.0f, %d threads "
              "(hardware_concurrency %u)\n\n",
              static_cast<long long>(n), horizon, threads,
              std::thread::hardware_concurrency());

  // --- Self-check + speedup: parallel workload generation. ---
  SyntheticConfig wconfig;
  wconfig.num_workers = n;
  wconfig.num_tasks = n;
  wconfig.num_instances = static_cast<int>(horizon);
  wconfig.seed = 7;
  auto t0 = std::chrono::steady_clock::now();
  const ArrivalStream sequential = GenerateSynthetic(wconfig);
  const double seq_gen = SecondsSince(t0);
  ParallelRunner gen_runner(threads);
  t0 = std::chrono::steady_clock::now();
  const ArrivalStream parallel = GenerateSynthetic(wconfig, gen_runner.pool());
  const double par_gen = SecondsSince(t0);
  if (!CheckIdentical(sequential, parallel)) {
    std::printf("FAIL: parallel workload generation diverged from "
                "sequential\n");
    return 1;
  }
  std::printf("workload gen %lldx2 entities: sequential %.3f s, "
              "%d threads %.3f s (%.2fx) — outputs identical\n",
              static_cast<long long>(n), seq_gen, threads, par_gen,
              par_gen > 0.0 ? seq_gen / par_gen : 0.0);

  const RangeQualityModel quality(1.0, 2.0, 7);
  SimulatorConfig sim_config;
  sim_config.budget = 150.0;
  sim_config.unit_price = 10.0;
  sim_config.prediction.gamma = 12;
  sim_config.workers_rejoin = true;
  sim_config.num_threads = threads;

  // --- Self-check: per-instance streaming == batch, bit for bit. ---
  {
    Simulator batch(sim_config, &quality);
    auto batch_assigner = CreateAssigner(AssignerKind::kGreedy, {.seed = 3});
    const auto batch_summary = batch.Run(sequential, batch_assigner.get());
    if (!batch_summary.ok()) {
      std::printf("FAIL: batch run: %s\n",
                  batch_summary.status().ToString().c_str());
      return 1;
    }
    StreamingConfig stream_config;
    stream_config.sim = sim_config;
    stream_config.policy.kind = EpochPolicyKind::kPerInstance;
    StreamingSimulator streaming(stream_config, &quality);
    auto stream_assigner = CreateAssigner(AssignerKind::kGreedy, {.seed = 3});
    const auto stream_summary = streaming.Run(
        EventQueue::FromArrivalStream(sequential), stream_assigner.get());
    if (!stream_summary.ok()) {
      std::printf("FAIL: streaming run: %s\n",
                  stream_summary.status().ToString().c_str());
      return 1;
    }
    const SimulationSummary& bs = batch_summary.value();
    const StreamSummary& ss = stream_summary.value();
    if (std::memcmp(&bs.total_quality, &ss.total_quality, sizeof(double)) !=
            0 ||
        std::memcmp(&bs.total_cost, &ss.total_cost, sizeof(double)) != 0 ||
        bs.total_assigned != ss.total_assigned) {
      std::printf("FAIL: per-instance streaming diverged from batch "
                  "(quality %.9f vs %.9f, assigned %lld vs %lld)\n",
                  bs.total_quality, ss.total_quality,
                  static_cast<long long>(bs.total_assigned),
                  static_cast<long long>(ss.total_assigned));
      return 1;
    }
    std::printf("self-check: per-instance streaming == batch "
                "(quality %.1f, cost %.1f, assigned %lld)\n\n",
                ss.total_quality, ss.total_cost,
                static_cast<long long>(ss.total_assigned));
  }

  // --- The streaming showcase: bursty flash crowds per epoch policy. ---
  ScenarioConfig scenario_config;
  scenario_config.kind = ScenarioKind::kBursty;
  scenario_config.num_workers = n;
  scenario_config.num_tasks = n;
  scenario_config.horizon = horizon;
  scenario_config.burst_amplitude = 12.0;
  scenario_config.seed = 7;
  const ScenarioStream scenario =
      GenerateScenario(scenario_config, gen_runner.pool());

  struct PolicyRow {
    const char* label;
    EpochPolicy policy;
  };
  std::vector<PolicyRow> rows;
  rows.push_back({"per-instance", {}});
  {
    EpochPolicy p;
    p.kind = EpochPolicyKind::kFixedInterval;
    p.interval = 0.25;
    rows.push_back({"interval 0.25", p});
  }
  {
    EpochPolicy p;
    p.kind = EpochPolicyKind::kEveryKArrivals;
    p.k_arrivals = std::max<int64_t>(64, n / 8);
    rows.push_back({"K arrivals", p});
  }
  {
    EpochPolicy p;
    p.kind = EpochPolicyKind::kAdaptiveBacklog;
    p.backlog_threshold = std::max<int64_t>(64, n / 10);
    p.max_interval = 2.0;
    rows.push_back({"adaptive", p});
  }

  // Machine-readable per-policy rows for BENCH_stream.json (CI history
  // and the perf-regression gate).
  struct PolicyResult {
    const char* label;
    size_t epochs;
    int64_t events;
    int64_t assigned;
    int64_t expired;
    double quality;
    double run_seconds;
    double latency_p50;
    double latency_p99;
    double wait_p50;
    double wait_p99;
    double mean_backlog;
    int64_t max_backlog;
  };
  std::vector<PolicyResult> results;

  std::printf("%-14s %7s %9s %9s %9s %8s %8s %9s %8s %8s\n", "policy",
              "epochs", "assigned", "expired", "quality", "lat p50",
              "lat p99", "wait p50", "wait p99", "maxlog");
  for (const PolicyRow& row : rows) {
    StreamingConfig config;
    config.sim = sim_config;
    config.policy = row.policy;
    config.horizon = horizon;
    StreamingSimulator sim(config, &quality);
    auto assigner = CreateAssigner(AssignerKind::kGreedy, {.seed = 3});
    t0 = std::chrono::steady_clock::now();
    const auto summary =
        sim.Run(EventQueue::FromScenario(scenario), assigner.get());
    const double run_seconds = SecondsSince(t0);
    if (!summary.ok()) {
      std::printf("FAIL: %s: %s\n", row.label,
                  summary.status().ToString().c_str());
      return 1;
    }
    const StreamSummary& s = summary.value();
    std::printf("%-14s %7zu %9lld %9lld %9.0f %8.4f %8.4f %9.2f %8.2f "
                "%8lld\n",
                row.label, s.per_epoch.size(),
                static_cast<long long>(s.total_assigned),
                static_cast<long long>(s.total_expired), s.total_quality,
                s.p50_epoch_latency, s.p99_epoch_latency, s.p50_queue_wait,
                s.p99_queue_wait, static_cast<long long>(s.max_backlog));

    PolicyResult r;
    r.label = row.label;
    r.epochs = s.per_epoch.size();
    r.events = 0;
    for (const EpochStreamMetrics& e : s.per_epoch) {
      r.events += e.ingested_workers + e.ingested_tasks;
    }
    r.assigned = s.total_assigned;
    r.expired = s.total_expired;
    r.quality = s.total_quality;
    r.run_seconds = run_seconds;
    r.latency_p50 = s.p50_epoch_latency;
    r.latency_p99 = s.p99_epoch_latency;
    r.wait_p50 = s.p50_queue_wait;
    r.wait_p99 = s.p99_queue_wait;
    r.mean_backlog = s.mean_backlog;
    r.max_backlog = s.max_backlog;
    results.push_back(r);
  }

  // Machine-readable record for CI history and the regression gate
  // (scripts/check_bench_regression.py): the integer count fields are
  // deterministic (exact-matched against the committed baseline at the
  // same n), the *_seconds fields are tolerance-gated timings.
  if (FILE* json = std::fopen("BENCH_stream.json", "w")) {
    std::fprintf(json, "{\n  \"regime\": \"bursty-flash-crowd\",\n");
    std::fprintf(json, "  \"provenance\": {%s},\n",
                 bench::ProvenanceFragment().c_str());
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const PolicyResult& r = results[i];
      std::fprintf(
          json,
          "    {\"policy\": \"%s\", \"n\": %lld, \"epochs\": %zu, "
          "\"events\": %lld, \"assigned\": %lld, \"expired\": %lld, "
          "\"quality\": %.6f, \"run_seconds\": %.6f, "
          "\"events_per_second\": %.0f, \"latency_p50_seconds\": %.6f, "
          "\"latency_p99_seconds\": %.6f, \"wait_p50\": %.6f, "
          "\"wait_p99\": %.6f, \"mean_backlog\": %.2f, "
          "\"max_backlog\": %lld}%s\n",
          r.label, static_cast<long long>(n), r.epochs,
          static_cast<long long>(r.events),
          static_cast<long long>(r.assigned),
          static_cast<long long>(r.expired), r.quality, r.run_seconds,
          r.run_seconds > 0.0 ? static_cast<double>(r.events) / r.run_seconds
                              : 0.0,
          r.latency_p50, r.latency_p99, r.wait_p50, r.wait_p99,
          r.mean_backlog, static_cast<long long>(r.max_backlog),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_stream.json\n");
  } else {
    std::fprintf(stderr, "WARNING: cannot write BENCH_stream.json\n");
  }

  std::printf("\nall self-checks passed\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main() { return mqa::RunBench(); }
