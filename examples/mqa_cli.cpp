// Command-line driver for the full MQA pipeline: pick a workload (batch
// generator or a streaming scenario), an algorithm and the paper's
// parameters from flags, run the batch simulator or the event-driven
// streaming engine, and print per-instance/per-epoch metrics (optionally
// as CSV for plotting).
//
// Examples:
//   mqa_cli --workload=checkin --algo=dc --budget=300 --instances=15
//   mqa_cli --workload=synthetic --algo=greedy --no-prediction --workers=2000 --tasks=2000 --csv
//   mqa_cli --scenario=bursty --stream --epoch-policy=backlog --backlog-threshold=200
//   mqa_cli --scenario=rush-hour --stream --epoch-policy=interval --epoch-interval=0.5

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "core/assigner.h"
#include "exec/parallel_runner.h"
#include "obs/perf_counters.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "trace/trace.h"
#include "workload/checkin.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace {

using namespace mqa;

struct CliOptions {
  std::string workload = "synthetic";  // synthetic | checkin
  std::string scenario = "paper";      // paper | rush-hour | bursty | hotspot-drift
  std::string algo = "greedy";         // greedy | dc | random
  std::string epoch_policy = "instance";  // instance | interval | arrivals | backlog
  std::string index = "auto";             // auto | brute | grid | rtree
  std::string worker_dist = "gaussian";
  std::string task_dist = "zipf";
  int64_t workers = 1250;
  int64_t tasks = 1250;
  int instances = 15;
  double budget = 75.0;
  double unit_price = 10.0;
  double q_lo = 1.0, q_hi = 2.0;
  double e_lo = 1.0, e_hi = 2.0;
  double v_lo = 0.2, v_hi = 0.3;
  int gamma = 20;
  int window = 3;
  double epoch_interval = 0.5;
  int64_t epoch_k = 256;
  int64_t backlog_threshold = 256;
  double max_interval = 4.0;
  bool stream = false;
  bool prediction = true;
  bool rejoin = false;
  bool csv = false;
  bool pairpool_stats = false;
  bool phase_timing = false;
  bool perf_counters = false;
  double watchdog_seconds = 0.0;  // 0 = off
  uint64_t seed = 42;
  int threads = 1;
  std::string record_trace;     // write the workload as mqa-trace-v1
  std::string replay_trace;     // replace generation with a loaded trace
  std::string trace_format = "csv";  // csv | binary (for --record-trace)
  bool trace_format_given = false;
  const char* stream_only_flag = nullptr;  // first one given, if any
  std::string trace_file;       // Chrome trace-event JSON (Perfetto)
  std::string run_report_file;  // unified run-report JSON artifact
};

/// Writes the requested trace / run-report files after the run. Returns
/// the run's exit code, or 1 if a requested export failed (a bad path
/// must not silently swallow the observability the user asked for).
int FinishObservability(const CliOptions& opt, int rc) {
  // Quiesce the watchdog before exports: its poll thread reads the trace
  // buffers the exporters are about to walk.
  Watchdog::Get().Stop();
  if (!opt.run_report_file.empty()) {
    const Status status =
        RunReport::Get().WriteJsonFile(opt.run_report_file);
    if (!status.ok()) {
      std::fprintf(stderr, "--run-report: %s\n", status.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!opt.trace_file.empty()) {
    const Status status = Tracer::Get().WriteJsonFile(opt.trace_file);
    if (!status.ok()) {
      std::fprintf(stderr, "--trace: %s\n", status.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// Parses `name=value` into `*out`. Returns false when `arg` is another
/// flag. Exits 2 unless the whole value is a number that fits T: an
/// integer for integer flags, a finite decimal for double flags.
template <typename T>
bool ParseNumeric(const char* arg, const char* name, T* out) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  bool fits = false;
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(begin, &end);
    fits = std::isfinite(v);
    *out = static_cast<T>(v);
  } else if constexpr (std::is_signed_v<T>) {
    const long long v = std::strtoll(begin, &end, 10);
    fits = v >= std::numeric_limits<T>::min() &&
           v <= std::numeric_limits<T>::max();
    *out = static_cast<T>(v);
  } else {
    // strtoull negates a leading '-' instead of rejecting it.
    const unsigned long long v = std::strtoull(begin, &end, 10);
    fits = std::strchr(begin, '-') == nullptr &&
           v <= std::numeric_limits<T>::max();
    *out = static_cast<T>(v);
  }
  if (value.empty() || end != begin + value.size() || errno != 0 || !fits) {
    std::fprintf(stderr, "%s: invalid value\n", name);
    std::exit(2);
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: mqa_cli [flags]\n"
      "  --workload=synthetic|checkin   --algo=greedy|dc|random\n"
      "  --scenario=paper|rush-hour|bursty|hotspot-drift (continuous-time\n"
      "      arrival scenarios; non-paper scenarios replace --workload)\n"
      "  --stream (run the event-driven streaming engine)\n"
      "  --epoch-policy=instance|interval|arrivals|backlog\n"
      "  --epoch-interval=dt --epoch-k=K --backlog-threshold=B\n"
      "  --max-interval=dt (backlog policy failsafe)\n"
      "  --workers=N --tasks=N --instances=R --budget=B --unit-price=C\n"
      "  --q-lo --q-hi --e-lo --e-hi --v-lo --v-hi (paper ranges)\n"
      "  --worker-dist=gaussian|uniform|zipf --task-dist=...\n"
      "  --index=auto|brute|grid|rtree (spatial-index backend for\n"
      "      candidate generation; rtree suits skewed distributions)\n"
      "  --gamma=G --window=W --seed=S --threads=T\n"
      "  --no-prediction --rejoin --csv\n"
      "  --record-trace=FILE (write the workload as an mqa-trace-v1 trace\n"
      "      before running; --trace-format=csv|binary picks the encoding)\n"
      "  --replay-trace=FILE (replace workload generation with a recorded\n"
      "      trace; replays byte-identically through batch and stream —\n"
      "      see src/trace/README.md and docs/TESTING.md)\n"
      "  --pairpool-stats (per-epoch pair-pool columns: pair count,\n"
      "      bytes/pair, arena slabs, lazily-skipped sampling fraction)\n"
      "  --phase-timing (per-epoch phase wall-time CSV columns)\n"
      "  --trace=FILE (Chrome trace-event JSON of the epoch lifecycle,\n"
      "      loadable in Perfetto; see docs/OBSERVABILITY.md)\n"
      "  --run-report=FILE (unified run artifact: config + git/machine\n"
      "      provenance + per-epoch rows + counter aggregates + the\n"
      "      metrics registry's counters/gauges/histograms)\n"
      "  --perf-counters (attach hardware-counter deltas to phase spans\n"
      "      via perf_event_open; silent no-op where unavailable)\n"
      "  --watchdog=SECONDS (flight recorder: dump in-flight span stacks\n"
      "      when an epoch runs past 3x the expected seconds)\n");
}

void PrintPoolStatsHeader() {
  std::printf("\npair-pool per epoch (columnar, arena-backed; see "
              "src/core/README.md):\n");
  std::printf("%5s %12s %8s %7s %13s %10s\n", "epoch", "pairs", "B/pair",
              "slabs", "arena_peak_B", "lazy_skip");
}

// CSV mode appends these as extra columns on the per-epoch rows instead
// of a second table, keeping the output machine-parseable.
void PrintPoolStatsCsvColumns() {
  std::printf(",pool_pairs,pool_bytes,pool_arena_slabs,pool_lazy_skipped");
}

void PrintPoolStatsCsvValues(const InstanceMetrics& m) {
  std::printf(",%lld,%lld,%lld,%.4f", static_cast<long long>(m.pool_pairs),
              static_cast<long long>(m.pool_bytes),
              static_cast<long long>(m.pool_arena_slabs),
              m.pool_lazy_skipped_fraction);
}

// Per-epoch phase wall-time breakdown (--phase-timing). Timing fields are
// execution state, not results: excluded from the byte-identity contract.
void PrintPhaseCsvColumns() {
  // Batch and stream emit identical phase columns; the two stream-only
  // phases read 0 in batch mode.
  std::printf(
      ",predict_seconds,assemble_seconds,index_seconds,assign_seconds,"
      "validate_seconds,apply_seconds,ingest_seconds,backlog_scan_seconds,"
      "pool_build_seconds");
}

void PrintPhaseCsvValues(const InstanceMetrics& m) {
  std::printf(",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f",
              m.predict_seconds, m.assemble_seconds, m.index_seconds,
              m.assign_seconds, m.validate_seconds, m.apply_seconds,
              m.ingest_seconds, m.backlog_scan_seconds,
              m.pool_build_seconds);
}

void PrintPoolStatsRow(const InstanceMetrics& m) {
  const double bytes_per_pair =
      m.pool_pairs > 0
          ? static_cast<double>(m.pool_bytes) /
                static_cast<double>(m.pool_pairs)
          : 0.0;
  std::printf("%5lld %12lld %8.1f %7lld %13lld %9.1f%%\n",
              static_cast<long long>(m.instance),
              static_cast<long long>(m.pool_pairs), bytes_per_pair,
              static_cast<long long>(m.pool_arena_slabs),
              static_cast<long long>(m.pool_arena_peak_bytes),
              100.0 * m.pool_lazy_skipped_fraction);
}

SpatialDistribution ParseDist(const std::string& s) {
  if (s == "uniform") return SpatialDistribution::kUniform;
  if (s == "zipf") return SpatialDistribution::kZipf;
  return SpatialDistribution::kGaussian;
}

int RunStreaming(const CliOptions& opt, const StreamingConfig& config,
                 EventQueue queue, Assigner* assigner,
                 const RangeQualityModel& quality) {
  StreamingSimulator sim(config, &quality);
  const auto summary = sim.Run(std::move(queue), assigner);
  if (!summary.ok()) {
    std::fprintf(stderr, "streaming simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  const StreamSummary& s = summary.value();

  if (opt.csv) {
    std::printf(
        "epoch,time,ingested_workers,ingested_tasks,backlog_before,"
        "backlog_after,coverable,expired,assigned,quality,cost,"
        "latency_seconds,mean_queue_wait,fire_reason");
    if (opt.phase_timing) PrintPhaseCsvColumns();
    if (opt.pairpool_stats) PrintPoolStatsCsvColumns();
    std::printf("\n");
    for (const EpochStreamMetrics& e : s.per_epoch) {
      std::printf(
          "%lld,%.4f,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%.6f,%.6f,%.6f,"
          "%.4f,%s",
          static_cast<long long>(e.instance.instance), e.epoch_time,
          static_cast<long long>(e.ingested_workers),
          static_cast<long long>(e.ingested_tasks),
          static_cast<long long>(e.backlog_before),
          static_cast<long long>(e.backlog_after),
          static_cast<long long>(e.coverable_backlog),
          static_cast<long long>(e.expired),
          static_cast<long long>(e.instance.assigned), e.instance.quality,
          e.instance.cost, e.instance.cpu_seconds, e.mean_queue_wait,
          EpochFireReasonToString(e.fire_reason));
      if (opt.phase_timing) PrintPhaseCsvValues(e.instance);
      if (opt.pairpool_stats) PrintPoolStatsCsvValues(e.instance);
      std::printf("\n");
    }
    return 0;
  }

  std::printf("%5s %8s %7s/%-6s %8s %8s %6s %8s %9s %8s %s\n", "epoch",
              "time", "in.w", "in.t", "backlog", "covered", "expir",
              "assigned", "latency", "wait", "reason");
  for (const EpochStreamMetrics& e : s.per_epoch) {
    std::printf(
        "%5lld %8.2f %7lld/%-6lld %8lld %8lld %6lld %8lld %9.4f %8.2f %s\n",
        static_cast<long long>(e.instance.instance), e.epoch_time,
        static_cast<long long>(e.ingested_workers),
        static_cast<long long>(e.ingested_tasks),
        static_cast<long long>(e.backlog_before),
        static_cast<long long>(e.coverable_backlog),
        static_cast<long long>(e.expired),
        static_cast<long long>(e.instance.assigned), e.instance.cpu_seconds,
        e.mean_queue_wait, EpochFireReasonToString(e.fire_reason));
  }
  std::printf(
      "\n%zu epochs | total quality %.1f | total cost %.1f | assigned %lld | "
      "expired %lld\n",
      s.per_epoch.size(), s.total_quality, s.total_cost,
      static_cast<long long>(s.total_assigned),
      static_cast<long long>(s.total_expired));
  std::printf(
      "epoch latency p50/p99/max: %.4f/%.4f/%.4f s | queue wait p50/p99: "
      "%.2f/%.2f | backlog mean/max: %.1f/%lld\n",
      s.p50_epoch_latency, s.p99_epoch_latency, s.max_epoch_latency,
      s.p50_queue_wait, s.p99_queue_wait, s.mean_backlog,
      static_cast<long long>(s.max_backlog));
  if (opt.pairpool_stats) {
    PrintPoolStatsHeader();
    for (const EpochStreamMetrics& e : s.per_epoch) {
      PrintPoolStatsRow(e.instance);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string sval;
    // Flags that only mean something in a mode the run may not be in;
    // checked after parsing so they fail loudly instead of being ignored.
    for (const char* name : {"--epoch-policy", "--epoch-interval",
                             "--epoch-k", "--backlog-threshold",
                             "--max-interval"}) {
      if (opt.stream_only_flag == nullptr && ParseFlag(a, name, &sval)) {
        opt.stream_only_flag = name;
      }
    }
    if (ParseFlag(a, "--trace-format", &sval)) opt.trace_format_given = true;
    if (ParseFlag(a, "--workload", &opt.workload) ||
        ParseFlag(a, "--scenario", &opt.scenario) ||
        ParseFlag(a, "--algo", &opt.algo) ||
        ParseFlag(a, "--epoch-policy", &opt.epoch_policy) ||
        ParseFlag(a, "--index", &opt.index) ||
        ParseFlag(a, "--worker-dist", &opt.worker_dist) ||
        ParseFlag(a, "--task-dist", &opt.task_dist) ||
        ParseFlag(a, "--record-trace", &opt.record_trace) ||
        ParseFlag(a, "--replay-trace", &opt.replay_trace) ||
        ParseFlag(a, "--trace-format", &opt.trace_format) ||
        ParseFlag(a, "--trace", &opt.trace_file) ||
        ParseFlag(a, "--run-report", &opt.run_report_file) ||
        ParseNumeric(a, "--watchdog", &opt.watchdog_seconds) ||
        ParseNumeric(a, "--workers", &opt.workers) ||
        ParseNumeric(a, "--tasks", &opt.tasks) ||
        ParseNumeric(a, "--instances", &opt.instances) ||
        ParseNumeric(a, "--budget", &opt.budget) ||
        ParseNumeric(a, "--unit-price", &opt.unit_price) ||
        ParseNumeric(a, "--q-lo", &opt.q_lo) ||
        ParseNumeric(a, "--q-hi", &opt.q_hi) ||
        ParseNumeric(a, "--e-lo", &opt.e_lo) ||
        ParseNumeric(a, "--e-hi", &opt.e_hi) ||
        ParseNumeric(a, "--v-lo", &opt.v_lo) ||
        ParseNumeric(a, "--v-hi", &opt.v_hi) ||
        ParseNumeric(a, "--gamma", &opt.gamma) ||
        ParseNumeric(a, "--window", &opt.window) ||
        ParseNumeric(a, "--epoch-interval", &opt.epoch_interval) ||
        ParseNumeric(a, "--epoch-k", &opt.epoch_k) ||
        ParseNumeric(a, "--backlog-threshold", &opt.backlog_threshold) ||
        ParseNumeric(a, "--max-interval", &opt.max_interval) ||
        ParseNumeric(a, "--seed", &opt.seed) ||
        ParseNumeric(a, "--threads", &opt.threads)) {
      continue;
    }
    if (std::strcmp(a, "--no-prediction") == 0) {
      opt.prediction = false;
    } else if (std::strcmp(a, "--rejoin") == 0) {
      opt.rejoin = true;
    } else if (std::strcmp(a, "--stream") == 0) {
      opt.stream = true;
    } else if (std::strcmp(a, "--csv") == 0) {
      opt.csv = true;
    } else if (std::strcmp(a, "--pairpool-stats") == 0) {
      opt.pairpool_stats = true;
    } else if (std::strcmp(a, "--phase-timing") == 0) {
      opt.phase_timing = true;
    } else if (std::strcmp(a, "--perf-counters") == 0) {
      opt.perf_counters = true;
    } else if (std::strcmp(a, "--help") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      PrintUsage();
      return 2;
    }
  }
  if (opt.stream_only_flag != nullptr && !opt.stream) {
    std::fprintf(stderr, "%s requires --stream\n", opt.stream_only_flag);
    return 2;
  }
  if (opt.trace_format_given && opt.record_trace.empty()) {
    std::fprintf(stderr, "--trace-format requires --record-trace\n");
    return 2;
  }
  // Sizes the library would otherwise reject with an abort.
  const struct {
    const char* name;
    double value;
    double min;
  } kMinimums[] = {
      {"--workers", static_cast<double>(opt.workers), 0.0},
      {"--tasks", static_cast<double>(opt.tasks), 0.0},
      {"--instances", static_cast<double>(opt.instances), 1.0},
      {"--gamma", static_cast<double>(opt.gamma), 1.0},
      {"--window", static_cast<double>(opt.window), 1.0},
      {"--threads", static_cast<double>(opt.threads), 1.0},
      {"--budget", opt.budget, 0.0},
      {"--unit-price", opt.unit_price, 0.0},
  };
  for (const auto& flag : kMinimums) {
    if (flag.value < flag.min) {
      std::fprintf(stderr, "%s: must be >= %g\n", flag.name, flag.min);
      return 2;
    }
  }
  // Paper ranges the quality model and workload generators would
  // otherwise reject with an abort.
  const struct {
    const char* rule;
    bool violated;
  } kRanges[] = {
      {"--q-lo must be <= --q-hi", !(opt.q_lo <= opt.q_hi)},
      {"--v-lo must be > 0", !(opt.v_lo > 0.0)},
      {"--v-lo must be <= --v-hi", !(opt.v_lo <= opt.v_hi)},
      {"--e-lo must be >= 0", !(opt.e_lo >= 0.0)},
      {"--e-lo must be <= --e-hi", !(opt.e_lo <= opt.e_hi)},
  };
  for (const auto& range : kRanges) {
    if (range.violated) {
      std::fprintf(stderr, "%s\n", range.rule);
      return 2;
    }
  }

  // Tracing/metrics must be live before the simulators run; the trusted
  // contract is that enabling them never changes assignments or scores
  // (tests/obs_property_test.cc). Counter capture and the flight
  // recorder both ride on spans, so either implies span collection
  // (exporting the trace still needs --trace).
  if (!opt.trace_file.empty() || opt.perf_counters ||
      opt.watchdog_seconds > 0.0) {
    Tracer::Get().Enable();
    Tracer::Get().SetCurrentThreadName("main");
  }
  if (opt.perf_counters) PerfCounters::Get().Enable();
  if (opt.watchdog_seconds > 0.0) {
    WatchdogConfig wconfig;
    wconfig.deadline_seconds = opt.watchdog_seconds;
    Watchdog::Get().Start(wconfig);
  }

  // Stamp the run report's config section (cheap; the report is only
  // written when --run-report names a file).
  {
    RunReport& report = RunReport::Get();
    report.SetConfig("binary", "mqa_cli");
    report.SetConfig("workload", opt.workload);
    report.SetConfig("scenario", opt.scenario);
    report.SetConfig("algo", opt.algo);
    report.SetConfig("epoch_policy", opt.epoch_policy);
    report.SetConfig("index", opt.index);
    report.SetConfig("workers", opt.workers);
    report.SetConfig("tasks", opt.tasks);
    report.SetConfig("instances", static_cast<int64_t>(opt.instances));
    report.SetConfig("budget", opt.budget);
    report.SetConfig("unit_price", opt.unit_price);
    report.SetConfig("gamma", static_cast<int64_t>(opt.gamma));
    report.SetConfig("window", static_cast<int64_t>(opt.window));
    report.SetConfig("stream", opt.stream);
    report.SetConfig("prediction", opt.prediction);
    report.SetConfig("rejoin", opt.rejoin);
    report.SetConfig("seed", opt.seed);
    report.SetConfig("threads", static_cast<int64_t>(opt.threads));
    report.SetConfig("perf_counters", opt.perf_counters);
  }

  ScenarioKind scenario_kind = ScenarioKind::kPaper;
  if (opt.scenario == "rush-hour") scenario_kind = ScenarioKind::kRushHour;
  else if (opt.scenario == "bursty") scenario_kind = ScenarioKind::kBursty;
  else if (opt.scenario == "hotspot-drift")
    scenario_kind = ScenarioKind::kHotspotDrift;
  else if (opt.scenario != "paper") {
    std::fprintf(stderr, "unknown scenario: %s\n", opt.scenario.c_str());
    return 2;
  }
  const bool use_scenario = scenario_kind != ScenarioKind::kPaper;
  const bool replaying = !opt.replay_trace.empty();

  ScenarioStream scenario;
  ArrivalStream stream;
  // The streaming horizon (and, via ceil, the batch instance count). A
  // replayed trace overrides --instances with its recorded header.
  double horizon = static_cast<double>(opt.instances);
  if (replaying) {
    auto loaded = TraceReader::ReadFile(opt.replay_trace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--replay-trace: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    TraceData trace = std::move(loaded).value();
    horizon = trace.horizon;
    opt.instances = trace.num_instances();
    opt.workers = static_cast<int64_t>(trace.scenario.workers.size());
    opt.tasks = static_cast<int64_t>(trace.scenario.tasks.size());
    opt.workload = "trace";
    scenario = std::move(trace.scenario);
    if (!opt.stream) {
      stream = ScenarioToArrivalStream(scenario, opt.instances);
    }
  } else {
    // Scoped so the generation pool's threads are released before the
    // simulators spin up their own.
    ParallelRunner gen_runner(opt.threads);
    if (use_scenario) {
      ScenarioConfig w;
      w.kind = scenario_kind;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.horizon = static_cast<double>(opt.instances);
      w.worker_dist.kind = ParseDist(opt.worker_dist);
      w.task_dist.kind = ParseDist(opt.task_dist);
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      scenario = GenerateScenario(w, gen_runner.pool());
      if (!opt.stream) {
        stream = ScenarioToArrivalStream(scenario, opt.instances);
      }
    } else if (opt.workload == "checkin") {
      CheckinConfig w;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.num_instances = opt.instances;
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      stream = GenerateCheckin(w);
    } else if (opt.workload == "synthetic") {
      SyntheticConfig w;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.num_instances = opt.instances;
      w.worker_dist.kind = ParseDist(opt.worker_dist);
      w.task_dist.kind = ParseDist(opt.task_dist);
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      stream = GenerateSynthetic(w, gen_runner.pool());
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
      return 2;
    }
  }

  // Traces hold timestamped entities: continuous times for scenarios and
  // replays, time = batch index for the per-instance generators (the
  // latter replay byte-identically through batch AND stream).
  if (!opt.record_trace.empty()) {
    const auto format = ParseTraceFormat(opt.trace_format);
    if (!format.ok()) {
      std::fprintf(stderr, "--trace-format: %s\n",
                   format.status().ToString().c_str());
      return 2;
    }
    TraceWriter writer(horizon);
    Status status = (use_scenario || replaying)
                        ? writer.AddScenario(scenario)
                        : writer.AddArrivalStream(stream);
    if (status.ok()) {
      status = writer.WriteFile(opt.record_trace, format.value());
    }
    if (!status.ok()) {
      std::fprintf(stderr, "--record-trace: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  AssignerKind kind = AssignerKind::kGreedy;
  if (opt.algo == "dc") kind = AssignerKind::kDivideConquer;
  else if (opt.algo == "random") kind = AssignerKind::kRandom;
  else if (opt.algo != "greedy") {
    std::fprintf(stderr, "unknown algo: %s\n", opt.algo.c_str());
    return 2;
  }

  IndexBackend index_backend = IndexBackend::kAuto;
  if (opt.index == "brute") index_backend = IndexBackend::kBruteForce;
  else if (opt.index == "grid") index_backend = IndexBackend::kGrid;
  else if (opt.index == "rtree") index_backend = IndexBackend::kRTree;
  else if (opt.index != "auto") {
    std::fprintf(stderr, "unknown index backend: %s\n", opt.index.c_str());
    return 2;
  }

  const RangeQualityModel quality(opt.q_lo, opt.q_hi, opt.seed);
  SimulatorConfig config;
  config.budget = opt.budget;
  config.unit_price = opt.unit_price;
  config.use_prediction = opt.prediction;
  config.prediction.gamma = opt.gamma;
  config.prediction.window = opt.window;
  config.prediction.seed = opt.seed;
  config.workers_rejoin = opt.rejoin;
  // Results are byte-identical for any thread count and any index
  // backend (see src/exec/README.md and src/index/README.md); --threads
  // and --index only change wall-clock time.
  config.num_threads = opt.threads;
  config.index_backend = index_backend;

  AssignerOptions assigner_options;
  assigner_options.seed = opt.seed;
  assigner_options.index_backend = index_backend;
  auto assigner = CreateAssigner(kind, assigner_options);

  if (opt.stream) {
    StreamingConfig sconfig;
    sconfig.sim = config;
    sconfig.horizon = horizon;
    if (opt.epoch_policy == "instance") {
      sconfig.policy.kind = EpochPolicyKind::kPerInstance;
    } else if (opt.epoch_policy == "interval") {
      sconfig.policy.kind = EpochPolicyKind::kFixedInterval;
      sconfig.policy.interval = opt.epoch_interval;
    } else if (opt.epoch_policy == "arrivals") {
      sconfig.policy.kind = EpochPolicyKind::kEveryKArrivals;
      sconfig.policy.k_arrivals = opt.epoch_k;
    } else if (opt.epoch_policy == "backlog") {
      sconfig.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
      sconfig.policy.backlog_threshold = opt.backlog_threshold;
      sconfig.policy.max_interval = opt.max_interval;
    } else {
      std::fprintf(stderr, "unknown epoch policy: %s\n",
                   opt.epoch_policy.c_str());
      return 2;
    }
    EventQueue queue;
    if (use_scenario || replaying) {
      queue = EventQueue::FromScenario(scenario);
    } else {
      const auto valid = stream.Validate();
      if (!valid.ok()) {
        std::fprintf(stderr, "invalid stream: %s\n",
                     valid.ToString().c_str());
        return 1;
      }
      queue = EventQueue::FromArrivalStream(stream);
    }
    if (!opt.csv) {
      std::printf("%s streaming on %s (%lld workers, %lld tasks, horizon %d, "
                  "policy %s, B=%.0f, %s)\n\n",
                  assigner->name(),
                  use_scenario ? ScenarioKindToString(scenario_kind)
                               : opt.workload.c_str(),
                  static_cast<long long>(opt.workers),
                  static_cast<long long>(opt.tasks), opt.instances,
                  EpochPolicyKindToString(sconfig.policy.kind), opt.budget,
                  opt.prediction ? "WP" : "WoP");
    }
    return FinishObservability(
        opt,
        RunStreaming(opt, sconfig, std::move(queue), assigner.get(),
                     quality));
  }

  Simulator sim(config, &quality);
  const auto summary = sim.Run(stream, assigner.get());
  if (!summary.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return FinishObservability(opt, 1);
  }
  const SimulationSummary& s = summary.value();

  if (opt.csv) {
    std::printf(
        "instance,workers,tasks,predicted_workers,predicted_tasks,"
        "assigned,quality,cost,cpu_seconds,worker_pred_err,task_pred_err");
    if (opt.phase_timing) PrintPhaseCsvColumns();
    if (opt.pairpool_stats) PrintPoolStatsCsvColumns();
    std::printf("\n");
    for (const InstanceMetrics& m : s.per_instance) {
      std::printf("%lld,%lld,%lld,%lld,%lld,%lld,%.6f,%.6f,%.6f,%.6f,%.6f",
                  static_cast<long long>(m.instance),
                  static_cast<long long>(m.workers_available),
                  static_cast<long long>(m.tasks_available),
                  static_cast<long long>(m.predicted_workers),
                  static_cast<long long>(m.predicted_tasks),
                  static_cast<long long>(m.assigned), m.quality, m.cost,
                  m.cpu_seconds, m.worker_prediction_error,
                  m.task_prediction_error);
      if (opt.phase_timing) PrintPhaseCsvValues(m);
      if (opt.pairpool_stats) PrintPoolStatsCsvValues(m);
      std::printf("\n");
    }
    return FinishObservability(opt, 0);
  }

  std::printf("%s on %s (%lld workers, %lld tasks, R=%d, B=%.0f, C=%.0f, "
              "%s)\n\n",
              assigner->name(),
              use_scenario ? ScenarioKindToString(scenario_kind)
                           : opt.workload.c_str(),
              static_cast<long long>(opt.workers),
              static_cast<long long>(opt.tasks), opt.instances, opt.budget,
              opt.unit_price, opt.prediction ? "WP" : "WoP");
  std::printf("%4s %8s %8s %9s %8s %10s %10s %9s\n", "p", "workers",
              "tasks", "pred.w/t", "assigned", "quality", "cost", "sec");
  for (const InstanceMetrics& m : s.per_instance) {
    std::printf("%4lld %8lld %8lld %4lld/%-4lld %8lld %10.1f %10.1f %9.4f\n",
                static_cast<long long>(m.instance),
                static_cast<long long>(m.workers_available),
                static_cast<long long>(m.tasks_available),
                static_cast<long long>(m.predicted_workers),
                static_cast<long long>(m.predicted_tasks),
                static_cast<long long>(m.assigned), m.quality, m.cost,
                m.cpu_seconds);
  }
  std::printf("\ntotal quality %.1f | total cost %.1f | assigned %lld | "
              "%.4f s/instance\n",
              s.total_quality, s.total_cost,
              static_cast<long long>(s.total_assigned), s.avg_cpu_seconds);
  if (config.use_prediction) {
    std::printf("prediction error: workers %.1f%%, tasks %.1f%%\n",
                100.0 * s.avg_worker_prediction_error,
                100.0 * s.avg_task_prediction_error);
  }
  if (opt.pairpool_stats) {
    PrintPoolStatsHeader();
    for (const InstanceMetrics& m : s.per_instance) PrintPoolStatsRow(m);
  }
  return FinishObservability(opt, 0);
}
