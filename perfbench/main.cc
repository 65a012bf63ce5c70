// End-to-end MQA benchmark. Generates one named workload from a
// seed, runs it through the batch Simulator or the streaming engine with
// every MQA_* hook off, checks the results, and prints every metric by
// name with its unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": <epochs>, "failed": <epochs>,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// alternates untraced and traced runs and reports the per-layer metrics
// of the traced ones, timed by the benchmark around its own calls into
// the library and read from the per-epoch fields Run returns. See
// perfbench/README.md.
//
//   perfbench --workload paper-greedy --seed 1 --seconds 20 --trace 0
//   perfbench --check-gate   # self-test of the checks below

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "exec/region_sharder.h"
#include "perfbench/workloads.h"

namespace mqa {
namespace perfbench {
namespace {

// Timed set-ups before each Run.
constexpr int kSetupsPerRun = 3;
// A percentile is reported as supported only with this many samples
// beyond it.
constexpr int64_t kMinBeyond = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool check_gate = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One of a workload's independent replays and everything its runs
/// returned.
struct Replay {
  uint64_t seed = 0;
  std::vector<uint64_t> reference;  // checksums of its first good Run
  std::vector<RunRecord> untraced;
  std::vector<double> traced_run_s;
  std::vector<std::vector<Metric>> layers;  // one row per traced Run
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile and how many samples lie beyond it.
struct Quantile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool supported() const { return beyond >= kMinBeyond; }
};

Quantile NearestRank(std::vector<double> v, double p) {
  Quantile q;
  q.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * q.samples));
  rank = std::clamp<int64_t>(rank, 1, q.samples);
  q.value = v[static_cast<size_t>(rank - 1)];
  q.beyond = q.samples - rank;
  return q;
}

/// The checksum gate: true for every epoch of `run` whose assignment
/// checksum differs from `reference`'s. Runs of different lengths cannot
/// be matched epoch by epoch, so every epoch of the longer one fails.
std::vector<char> ChecksumMismatches(const std::vector<uint64_t>& reference,
                                     const std::vector<uint64_t>& run) {
  if (reference.size() != run.size()) {
    return std::vector<char>(std::max(reference.size(), run.size()), 1);
  }
  std::vector<char> bad(run.size(), 0);
  for (size_t i = 0; i < run.size(); ++i) bad[i] = reference[i] != run[i];
  return bad;
}

std::vector<uint64_t> Checksums(const RunRecord& record) {
  std::vector<uint64_t> out;
  for (const InstanceMetrics& m : record.epochs) {
    out.push_back(m.assignment_checksum);
  }
  return out;
}

/// Epoch accounting of one Run against its replay's reference run (the
/// first successful one). A Run error fails every epoch the Run
/// should have had.
struct EpochCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

EpochCount CheckRun(const WorkloadSpec& spec, const Inputs& inputs,
                    const RunRecord& record,
                    const std::vector<uint64_t>& reference) {
  EpochCount count;
  if (!record.status.ok()) {
    std::printf("  run failed: %s\n", record.status.ToString().c_str());
    count.attempted = reference.empty()
                          ? spec.nominal_epochs
                          : static_cast<int64_t>(reference.size());
    count.failed = count.attempted;
    return count;
  }
  std::vector<char> bad =
      reference.empty() ? std::vector<char>(record.epochs.size(), 0)
                        : ChecksumMismatches(reference, Checksums(record));
  if (!record.assign_s.empty() &&
      record.assign_s.size() != record.epochs.size()) {
    std::printf("  %zu Assign timings for %zu epochs\n",
                record.assign_s.size(), record.epochs.size());
    bad.assign(bad.size(), 1);
  }
  // Checks from outside the library: the budget holds per epoch and no
  // task waits past its deadline.
  size_t wait = 0;
  for (size_t i = 0; i < record.epochs.size(); ++i) {
    const InstanceMetrics& m = record.epochs[i];
    if (m.cost > spec.budget * (1.0 + 1e-9) || m.assigned < 0) bad[i] = 1;
    if (!spec.stream) continue;
    for (int64_t k = 0; k < m.assigned; ++k, ++wait) {
      const double w = wait < record.waits.size() ? record.waits[wait] : -1.0;
      if (w < 0.0 || w > inputs.max_deadline + 1e-9) bad[i] = 1;
    }
  }
  if (record.total_assigned > spec.entities) bad.assign(bad.size(), 1);
  count.attempted = static_cast<int64_t>(bad.size());
  count.failed = std::count(bad.begin(), bad.end(), 1);
  if (count.failed > 0) {
    std::printf("  %lld of %lld epochs failed the checks\n",
                static_cast<long long>(count.failed),
                static_cast<long long>(count.attempted));
  }
  return count;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

/// Per-layer metrics of one traced Run. Layers the benchmark calls into
/// directly are timed around those calls (generation, Assign); layers
/// entered only inside EpochRunner come from the per-epoch fields Run
/// returns.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const Inputs& inputs, const RunRecord& r) {
  double predict = 0, index = 0, pool = 0, assemble = 0, validate = 0;
  double apply = 0, ingest = 0, backlog_scan = 0, epoch_sum = 0;
  double worker_err = 0, task_err = 0, lazy_weighted = 0;
  int64_t err_epochs = 0, predicted = 0, inserted = 0, erased = 0;
  int64_t rebuilds = 0, pairs = 0, predicted_pairs = 0, arena_peak = 0;
  std::vector<double> latencies;
  for (const InstanceMetrics& m : r.epochs) {
    latencies.push_back(m.cpu_seconds);
    predict += m.predict_seconds;
    index += m.index_seconds;
    pool += m.pool_build_seconds;
    assemble += m.assemble_seconds;
    validate += m.validate_seconds;
    apply += m.apply_seconds;
    ingest += m.ingest_seconds;
    backlog_scan += m.backlog_scan_seconds;
    epoch_sum += m.cpu_seconds;
    predicted += m.predicted_workers + m.predicted_tasks;
    if (m.worker_prediction_error >= 0.0) {
      worker_err += m.worker_prediction_error;
      task_err += m.task_prediction_error;
      ++err_epochs;
    }
    inserted += m.index_inserted;
    erased += m.index_erased;
    rebuilds += m.index_bulk_rebuilds;
    pairs += m.pool_pairs;
    predicted_pairs += m.pool_predicted_pairs;
    lazy_weighted += m.pool_lazy_skipped_fraction *
                     static_cast<double>(m.pool_predicted_pairs);
    arena_peak = std::max(arena_peak, m.pool_arena_peak_bytes);
  }
  double assign = 0;
  for (const double s : r.assign_s) assign += s;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  // Stream-only layers read 0 on batch workloads.
  const bool stream = spec.stream;
  return {
      {"workload.generate_s", inputs.generate_s, "s"},
      {"workload.arrivals", d(inputs.arrivals), "count"},
      {"prediction.s", predict, "s"},
      {"prediction.entities", d(predicted), "count"},
      {"prediction.worker_err", ratio(worker_err, d(err_epochs)), "ratio"},
      {"prediction.task_err", ratio(task_err, d(err_epochs)), "ratio"},
      {"index.s", index, "s"},
      {"index.inserted", d(inserted), "count"},
      {"index.erased", d(erased), "count"},
      {"index.bulk_rebuilds", d(rebuilds), "count"},
      {"pool.build_s", pool, "s"},
      {"pool.pairs", d(pairs), "count"},
      {"pool.predicted_pairs", d(predicted_pairs), "count"},
      {"pool.pairs_per_s", ratio(d(pairs), pool), "1/s"},
      {"pool.arena_peak_bytes", d(arena_peak), "bytes"},
      {"pool.lazy_skipped_frac", ratio(lazy_weighted, d(predicted_pairs)),
       "ratio"},
      {"assign.s", assign, "s"},
      {"assign.select_s", assign - pool, "s"},
      {"assign.pairs_per_assigned", ratio(d(pairs), d(r.total_assigned)),
       "pairs/assigned"},
      {"sim.assemble_s", assemble, "s"},
      {"sim.validate_s", validate, "s"},
      {"sim.apply_s", apply, "s"},
      {"sim.loop_s", r.run_s - epoch_sum, "s"},
      {"stream.ingest_s", ingest, "s"},
      {"stream.backlog_scan_s", backlog_scan, "s"},
      {"stream.epochs", stream ? static_cast<double>(r.epochs.size()) : 0.0,
       "count"},
      {"stream.events", d(r.events), "count"},
      {"stream.backlog_mean", r.backlog_mean, "tasks"},
      {"stream.backlog_max", d(r.backlog_max), "tasks"},
      {"stream.expired", d(r.expired), "count"},
      {"stream.epoch_p90_s", stream ? NearestRank(latencies, 90).value : 0.0,
       "s"},
      {"stream.wait_p50", NearestRank(r.waits, 50).value, "sim_t"},
      {"stream.wait_p99", NearestRank(r.waits, 99).value, "sim_t"},
      {"exec.threads", static_cast<double>(spec.threads), "count"},
      {"exec.cpu_util", ratio(r.cpu_s, r.run_s), "cpu_s/s"},
  };
}

void PrintResult(bool correct, const EpochCount& epochs,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(epochs.attempted);
  json += ", \"failed\": " + std::to_string(epochs.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintQuantile(const char* what, const char* p, const Quantile& q,
                   const char* unit) {
  std::printf("  %s %s = %.6g %s over %lld samples, %lld beyond (%s)\n", what,
              p, q.value, unit, static_cast<long long>(q.samples),
              static_cast<long long>(q.beyond),
              q.supported() ? "supported" : "below 10 beyond: informational");
}

/// Feeds the checksum gate and the percentile rule known inputs.
int CheckGate() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto count = [](const std::vector<char>& bad) {
    return std::count(bad.begin(), bad.end(), 1);
  };
  expect(count(ChecksumMismatches({1, 2, 3}, {1, 2, 3})) == 0,
         "identical checksums pass");
  expect(count(ChecksumMismatches({1, 2, 3}, {1, 9, 3})) == 1,
         "one differing epoch fails one epoch");
  expect(count(ChecksumMismatches({1, 2, 3}, {1, 2})) == 3,
         "a missing epoch fails the run");
  std::vector<double> samples(151);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i);
  }
  expect(NearestRank(samples, 90).supported(), "p90 of 151 has 10 beyond");
  expect(!NearestRank(std::vector<double>(15, 1.0), 90).supported(),
         "p90 of 15 is not supported");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt->tiny = true;
    } else if (arg == "--check-gate") {
      opt->check_gate = true;
    } else if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) != "0";
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  if (opt.check_gate) return CheckGate();
  WorkloadSpec spec;
  const Status found = FindWorkload(opt.workload, opt.tiny, &spec);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.ToString().c_str());
    return 2;
  }
  const std::string load_start = LoadAvg();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");

  // The workload is spec.replays independent replays, each generated
  // from its own seed derived from --seed; averaging over them keeps one
  // seed's draw from setting the figures.
  std::vector<Replay> replays(static_cast<size_t>(spec.replays));
  for (size_t k = 0; k < replays.size(); ++k) {
    replays[k].seed = ShardSeed(opt.seed, static_cast<int64_t>(k));
  }
  std::vector<double> setup_s;
  EpochCount epochs;
  int runs = 0;
  // Set-up is ms-scale, so each Run is preceded by kSetupsPerRun timed
  // set-ups of its replay, the last of which it consumes. That makes
  // setup_s a median over many samples, spread over the whole run like
  // the Runs themselves.
  const auto timed_setup = [&](const Replay& replay) {
    Inputs inputs;
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Inputs next = Setup(spec, replay.seed);
      setup_s.push_back(SecondsSince(start));
      inputs = std::move(next);
    }
    return inputs;
  };
  const auto run = [&](Replay* replay, bool with_trace) {
    Inputs inputs = timed_setup(*replay);
    // Hand freed heap back to the kernel, so every Run starts from the
    // same heap state, as a fresh process would, and peak_rss_mb does not
    // grow with the number of passes that fit the run.
    malloc_trim(0);
    RunRecord record = RunOnce(&inputs, with_trace);
    const EpochCount c = CheckRun(spec, inputs, record, replay->reference);
    epochs.attempted += c.attempted;
    epochs.failed += c.failed;
    std::printf("run %d: replay %llu %s %.4f s, %zu epochs, quality %.6f\n",
                ++runs, static_cast<unsigned long long>(replay->seed),
                with_trace ? "traced  " : "untraced", record.run_s,
                record.epochs.size(), record.total_quality);
    if (!record.status.ok()) return;
    if (replay->reference.empty()) replay->reference = Checksums(record);
    if (with_trace) {
      replay->layers.push_back(LayerMetrics(spec, inputs, record));
      replay->traced_run_s.push_back(record.run_s);
    } else {
      replay->untraced.push_back(std::move(record));
    }
  };

  // Closed loop over passes through the replays: the first pass always
  // runs in full, and a later one starts only if it is predicted to
  // finish in time. Traced passes run every replay untraced and traced,
  // alternating which goes first.
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0;; ++pass) {
    const auto pass_start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < replays.size(); ++k) {
      if (!opt.trace) {
        run(&replays[k], false);
      } else {
        const bool traced_first = (pass + k) % 2 == 1;
        run(&replays[k], traced_first);
        run(&replays[k], !traced_first);
      }
    }
    if (SecondsSince(start) + SecondsSince(pass_start) > opt.seconds) break;
  }

  const std::string load_end = LoadAvg();
  std::printf(
      "provenance: {%s,\"loadavg_start\":\"%s\",\"loadavg_end\":\"%s\"}\n",
      bench::ProvenanceFragment().c_str(), load_start.c_str(),
      load_end.c_str());

  bool correct = epochs.failed == 0;
  for (const Replay& replay : replays) {
    correct = correct && !replay.untraced.empty() &&
              (!opt.trace || !replay.traced_run_s.empty());
  }
  const auto mean_over_replays = [&](const auto& value_of) {
    double sum = 0.0;
    for (const Replay& replay : replays) sum += value_of(replay);
    return sum / static_cast<double>(replays.size());
  };
  const auto median_run_s = [](const Replay& replay) {
    std::vector<double> v;
    for (const RunRecord& r : replay.untraced) v.push_back(r.run_s);
    return Median(v);
  };
  std::vector<Metric> metrics;
  if (!correct) {
    std::printf("result is not correct; metrics below are incomplete\n");
  }
  if (!opt.trace) {
    std::vector<double> latencies, waits;
    int64_t assigned = 0;
    for (const Replay& replay : replays) {
      for (const RunRecord& r : replay.untraced) {
        for (const InstanceMetrics& m : r.epochs) {
          latencies.push_back(m.cpu_seconds);
        }
      }
      if (replay.untraced.empty()) continue;
      const RunRecord& first = replay.untraced.front();
      waits.insert(waits.end(), first.waits.begin(), first.waits.end());
      assigned += first.total_assigned;
    }
    const auto first_quality = [](const Replay& replay) {
      return replay.untraced.empty() ? 0.0
                                     : replay.untraced.front().total_quality;
    };
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", mean_over_replays(median_run_s), "s"},
        {"epoch_p50_s", NearestRank(latencies, 50).value, "s"},
        {"quality", mean_over_replays(first_quality), "score"},
        {"task_miss_ratio",
         1.0 - static_cast<double>(assigned) /
                   static_cast<double>(spec.entities * spec.replays),
         "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("end-to-end, untraced (%d runs over %d replays, %zu "
                "set-ups):\n",
                runs, spec.replays, setup_s.size());
    PrintQuantile("epoch latency", "p50", NearestRank(latencies, 50), "s");
    if (spec.stream) {
      // Stream-only views: the pooled epochs and waits support these tails.
      PrintQuantile("epoch latency", "p90", NearestRank(latencies, 90), "s");
      PrintQuantile("queue wait", "p50", NearestRank(waits, 50), "sim_t");
      PrintQuantile("queue wait", "p99", NearestRank(waits, 99), "sim_t");
    }
    PrintTable("metrics:", metrics);
  } else {
    // Per metric: the median over a replay's traced runs, averaged over
    // the replays.
    for (const Replay& replay : replays) {
      if (replay.layers.empty()) continue;
      metrics = replay.layers.front();
      break;
    }
    for (size_t i = 0; i < metrics.size(); ++i) {
      metrics[i].value = mean_over_replays([&](const Replay& replay) {
        std::vector<double> v;
        for (const auto& row : replay.layers) v.push_back(row[i].value);
        return Median(v);
      });
    }
    const double traced_s = mean_over_replays(
        [](const Replay& r) { return Median(r.traced_run_s); });
    const double untraced_s = mean_over_replays(median_run_s);
    metrics.push_back(
        {"bench.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio"});
    std::printf("per-layer, traced (%d runs over %d replays; mean run_s "
                "%.4f traced vs %.4f untraced):\n",
                runs, spec.replays, traced_s, untraced_s);
    PrintTable("metrics:", metrics);
  }
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  PrintResult(correct, epochs, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace mqa

int main(int argc, char** argv) { return mqa::perfbench::Main(argc, argv); }
