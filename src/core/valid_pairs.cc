#include "core/valid_pairs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "exec/pair_arena.h"
#include "exec/thread_pool.h"
#include "index/candidate_scan.h"
#include "index/grid_index.h"
#include "quality/quality_model.h"
#include "stats/distance_stats.h"

namespace mqa {

namespace {

/// One survivor of a worker's reachability scan: the task, the exact
/// worker-to-task box min-distance, and — for current-current pairs only —
/// the quality score, which doubles as the PairStatistics sample.
struct Candidate {
  int32_t task = 0;
  double min_dist = 0.0;
  double score = 0.0;
};

/// Worker i's candidates, resolved to a span over an arena buffer.
struct WorkerCandidates {
  const Candidate* data = nullptr;
  size_t count = 0;
};

/// Pass 1 of the builder: worker `i`'s CanReach-surviving candidates in
/// ascending task order, scoring the current-current ones. Pure given
/// (instance, index) — safe to run for different workers concurrently.
/// Appends to `out` (any push_back(Candidate) container).
template <typename CandidateSink>
void CollectCandidates(const ProblemInstance& instance,
                       const QualityModel& model, const SpatialIndex& index,
                       size_t i, double max_deadline, size_t num_tasks,
                       std::vector<std::pair<int32_t, double>>* scratch,
                       CandidateSink* out) {
  const Worker& w = instance.workers()[i];
  ForEachReachableCandidate(index, w, max_deadline, num_tasks, scratch,
                            [&](int32_t jj, double min_dist) {
    const Task& t = instance.tasks()[static_cast<size_t>(jj)];
    if (!instance.CanReachAtDistance(w, t, min_dist)) return;
    Candidate c;
    c.task = jj;
    c.min_dist = min_dist;
    if (!w.predicted && !t.predicted) c.score = model.Score(w, t);
    out->push_back(c);
  });
}

/// The per-box half of the cost (Eqs. 2-5) for every candidate task, read
/// by every worker's fill row. Computed once per build on the sequential
/// spine; build scratch in the arena, never part of the pool.
const BoxMoments* ComputeTaskMoments(const ProblemInstance& instance,
                                     size_t num_tasks, PairArena* arena) {
  BoxMoments* moments = arena->AllocateArray<BoxMoments>(num_tasks);
  for (size_t j = 0; j < num_tasks; ++j) {
    moments[j] = ComputeBoxMoments(instance.tasks()[j].location);
  }
  return moments;
}

/// Pass 2: fills column slot `at` for worker `i` and candidate `c`. The
/// cost is the per-pair half of Eqs. 2-5 over worker `i`'s moments `wm`
/// and the task's row of `task_moments` — bit-identical to computing the
/// moments here. Quality is the fixed score for current-current pairs and
/// a lazy-table kind tag otherwise — the expensive Cases 1-3 statistics
/// are *not* computed at build time. Pure given (instance, c) —
/// byte-identical regardless of the thread (or order) it runs on.
void FillPairSlot(const ProblemInstance& instance, PairPoolBuilder* builder,
                  size_t at, size_t i, const BoxMoments& wm,
                  const BoxMoments* task_moments, const Candidate& c) {
  const Worker& w = instance.workers()[i];
  const size_t j = static_cast<size_t>(c.task);
  const Task& t = instance.tasks()[j];

  builder->worker_col()[at] = static_cast<int32_t>(i);
  builder->task_col()[at] = c.task;

  const Uncertain cost =
      DistanceBetween(w.location, wm, t.location, task_moments[j])
          .AffineTransform(instance.unit_price(), 0.0);
  builder->cost_mean_col()[at] = cost.mean();
  builder->cost_var_col()[at] = cost.variance();
  builder->cost_lb_col()[at] = cost.lb();
  builder->cost_ub_col()[at] = cost.ub();

  PairQualityKind kind;
  double fixed_quality = 0.0;
  if (!w.predicted && !t.predicted) {
    kind = PairQualityKind::kCurrent;
    fixed_quality = c.score;
  } else if (w.predicted && !t.predicted) {
    kind = PairQualityKind::kCase1;
  } else if (!w.predicted && t.predicted) {
    kind = PairQualityKind::kCase2;
  } else {
    kind = PairQualityKind::kCase3;
  }
  builder->fixed_quality_col()[at] = fixed_quality;
  builder->qkind_col()[at] = static_cast<uint8_t>(kind);
}

/// Number of workers at/above which the parallel builder engages; below
/// it the fan-out costs more than it parallelizes.
constexpr size_t kMinParallelWorkers = 32;

/// Fixed number of contiguous worker chunks the parallel scan splits
/// into: enough items for the pool's atomic cursor to balance uneven
/// chunks over 8+ threads, few enough to amortize each chunk's scratch.
/// A constant, never derived from the thread count, so the chunk arenas —
/// and with them the arena metrics — are the same on any pool.
constexpr size_t kScanChunks = 64;

/// Builds the task index the scan queries when the caller has none:
/// entry ids are the participating task indices, deadlines are kept for
/// index-level pruning. A grid's cells are made at least as wide as the
/// largest reach radius (its ~sqrt(n) auto resolution is the finest it
/// goes): at the auto resolution a small-reach query walks a hundred-odd
/// near-empty cells, each paying its own pruning test.
std::unique_ptr<SpatialIndex> BuildTaskIndex(const ProblemInstance& instance,
                                             IndexBackend backend,
                                             size_t num_workers,
                                             size_t num_tasks,
                                             double max_deadline) {
  const IndexBackend resolved =
      ResolveBackend(backend, num_workers, num_tasks);
  double max_velocity = 0.0;
  for (size_t i = 0; i < num_workers; ++i) {
    max_velocity = std::max(max_velocity, instance.workers()[i].velocity);
  }
  const double max_reach = max_velocity * max_deadline;
  std::unique_ptr<SpatialIndex> index;
  if (resolved == IndexBackend::kGrid && max_reach > 0.0) {
    // Compared as doubles: 1 / max_reach can exceed INT_MAX.
    const double side =
        std::min(std::ceil(std::sqrt(static_cast<double>(num_tasks))),
                 std::ceil(1.0 / max_reach));
    index = std::make_unique<GridIndex>(static_cast<int>(side));
  } else {
    index = CreateSpatialIndex(resolved);
  }
  std::vector<IndexEntry> entries;
  entries.reserve(num_tasks);
  for (size_t j = 0; j < num_tasks; ++j) {
    entries.push_back({static_cast<int64_t>(j), instance.tasks()[j].location,
                       instance.tasks()[j].deadline});
  }
  index->BulkLoad(entries);
  return index;
}

/// The parallel builder. Produces a pool byte-identical to the sequential
/// path below by splitting the work into pure per-worker pieces and
/// keeping every order-sensitive step on one thread:
///   1. (parallel, per worker chunk) reachability scans against the one
///      shared task index fill per-worker candidate spans in chunk-pinned
///      arena buffers;
///   2. (sequential) a prefix sum over per-worker candidate counts
///      positions every pair slot — the same worker-major layout the
///      sequential loop emits;
///   3. (parallel) pair columns fill into their final slots, fanned per
///      worker;
///   4. (sequential) the CSR adjacency fills in ascending pair-id order.
/// Each worker's candidates come out in ascending task order whichever
/// chunk scans it, so neither the chunking nor the thread count reaches
/// the pool. There is no statistics phase: predicted-pair quality/
/// existence is deferred to the pool's lazy table, whose replay reads the
/// columns — identical bytes no matter how they were produced.
PairPool BuildPairPoolParallel(const ProblemInstance& instance,
                               const SpatialIndex& index, size_t num_workers,
                               size_t num_tasks, double max_deadline,
                               bool has_predicted,
                               const BoxMoments* task_moments, ThreadPool* pool,
                               PairArena* arena) {
  const QualityModel& model = *instance.quality_model();
  const size_t num_chunks = std::min(kScanChunks, num_workers);

  // Chunk arenas are created on the sequential spine (shard() is not
  // thread-safe); inside the fan-out each chunk bumps only its own.
  for (size_t c = 0; c < num_chunks; ++c) arena->shard(c);

  WorkerCandidates* candidates =
      arena->AllocateArray<WorkerCandidates>(num_workers);

  pool->ParallelFor(static_cast<int64_t>(num_chunks), [&](int64_t c) {
    MQA_TRACE_SPAN_ARG("pool/scan", c);
    const size_t chunk = static_cast<size_t>(c);
    const size_t begin = num_workers * chunk / num_chunks;
    const size_t end = num_workers * (chunk + 1) / num_chunks;
    // One contiguous buffer per chunk; per-worker spans resolve once the
    // buffer stops growing (end of this item).
    ArenaVector<Candidate> buffer(arena->shard(chunk));
    std::vector<std::pair<int32_t, double>> scratch;
    for (size_t i = begin; i < end; ++i) {
      const size_t before = buffer.size();
      CollectCandidates(instance, model, index, i, max_deadline, num_tasks,
                        &scratch, &buffer);
      candidates[i].count = buffer.size() - before;
    }
    const Candidate* next = buffer.data();
    for (size_t i = begin; i < end; ++i) {
      candidates[i].data = next;
      next += candidates[i].count;
    }
  });

  size_t* offsets = arena->AllocateArray<size_t>(num_workers + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < num_workers; ++i) {
    offsets[i + 1] = offsets[i] + candidates[i].count;
  }

  PairPoolBuilder builder(instance.workers().size(), instance.tasks().size(),
                          instance.num_current_workers(),
                          instance.num_current_tasks(), offsets[num_workers],
                          arena, has_predicted);
  {
    MQA_TRACE_SPAN("pool/fill");
    pool->ParallelFor(static_cast<int64_t>(num_workers), [&](int64_t wi) {
      const size_t i = static_cast<size_t>(wi);
      size_t at = offsets[i];
      const WorkerCandidates& wc = candidates[i];
      const BoxMoments wm = ComputeBoxMoments(instance.workers()[i].location);
      for (size_t k = 0; k < wc.count; ++k) {
        FillPairSlot(instance, &builder, at++, i, wm, task_moments,
                     wc.data[k]);
      }
    });
  }
  return std::move(builder).Build();
}

PairPool BuildPairPoolSequential(const ProblemInstance& instance,
                                 const SpatialIndex& index,
                                 size_t num_workers, size_t num_tasks,
                                 double max_deadline, bool has_predicted,
                                 const BoxMoments* task_moments,
                                 PairArena* arena) {
  const QualityModel& model = *instance.quality_model();

  // Pass 1: candidates of all workers, worker-major (the final pair
  // order), into one arena buffer.
  ArenaVector<Candidate> buffer(arena);
  size_t* offsets = arena->AllocateArray<size_t>(num_workers + 1);
  offsets[0] = 0;
  {
    MQA_TRACE_SPAN("pool/scan");
    std::vector<std::pair<int32_t, double>> scratch;
    for (size_t i = 0; i < num_workers; ++i) {
      CollectCandidates(instance, model, index, i, max_deadline, num_tasks,
                        &scratch, &buffer);
      offsets[i + 1] = buffer.size();
    }
  }

  // Pass 2: fill the columns in place.
  PairPoolBuilder builder(instance.workers().size(), instance.tasks().size(),
                          instance.num_current_workers(),
                          instance.num_current_tasks(), offsets[num_workers],
                          arena, has_predicted);
  {
    MQA_TRACE_SPAN("pool/fill");
    for (size_t i = 0; i < num_workers; ++i) {
      const BoxMoments wm = ComputeBoxMoments(instance.workers()[i].location);
      for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        FillPairSlot(instance, &builder, k, i, wm, task_moments, buffer[k]);
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace

PairPool BuildPairPool(const ProblemInstance& instance,
                       const PairPoolOptions& options) {
  const QualityModel* model = instance.quality_model();
  MQA_CHECK(model != nullptr) << "instance lacks a quality model";

  const size_t num_workers = options.include_predicted
                                 ? instance.workers().size()
                                 : instance.num_current_workers();
  const size_t num_tasks = options.include_predicted
                               ? instance.tasks().size()
                               : instance.num_current_tasks();

  // Caller-provided index (covering *all* tasks; ids past num_tasks are
  // filtered in the scan), or null when one must be built.
  const SpatialIndex* prebuilt =
      options.task_index != nullptr ? options.task_index
                                    : instance.task_index();
  if (prebuilt != nullptr) {
    MQA_CHECK(prebuilt->size() == instance.tasks().size())
        << "task index covers " << prebuilt->size() << " entries but the "
        << "instance has " << instance.tasks().size() << " tasks";
  }

  // The radius bound uses the largest candidate deadline; CanReach then
  // applies each task's exact deadline, so this only over-approximates.
  double max_deadline = 0.0;
  for (size_t j = 0; j < num_tasks; ++j) {
    max_deadline = std::max(max_deadline, instance.tasks()[j].deadline);
  }

  const bool has_predicted =
      options.include_predicted && (instance.num_predicted_workers() > 0 ||
                                    instance.num_predicted_tasks() > 0);

  // Arena precedence: options, then the instance (the simulator's
  // per-epoch arena), then a private arena the pool owns.
  PairArena* arena =
      options.arena != nullptr ? options.arena : instance.pair_arena();
  std::unique_ptr<PairArena> owned_arena;
  if (arena == nullptr) {
    owned_arena = std::make_unique<PairArena>();
    arena = owned_arena.get();
  }

  ThreadPool* thread_pool = options.thread_pool != nullptr
                                ? options.thread_pool
                                : instance.thread_pool();
  const auto t_build = std::chrono::steady_clock::now();
  MQA_TRACE_SPAN("pool/build");
  std::unique_ptr<SpatialIndex> owned_index;
  if (prebuilt == nullptr) {
    owned_index = BuildTaskIndex(instance, options.backend, num_workers,
                                 num_tasks, max_deadline);
  }
  const SpatialIndex& index = prebuilt != nullptr ? *prebuilt : *owned_index;
  const BoxMoments* task_moments =
      ComputeTaskMoments(instance, num_tasks, arena);
  PairPool pool =
      (thread_pool != nullptr && thread_pool->num_threads() > 1 &&
       num_workers >= kMinParallelWorkers)
          ? BuildPairPoolParallel(instance, index, num_workers, num_tasks,
                                  max_deadline, has_predicted, task_moments,
                                  thread_pool, arena)
          : BuildPairPoolSequential(instance, index, num_workers, num_tasks,
                                    max_deadline, has_predicted,
                                    task_moments, arena);
  pool.set_build_seconds(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_build)
                             .count());
  MQA_METRIC_COUNT("mqa.pool.pairs_total", static_cast<int64_t>(pool.size()));
  if (owned_arena != nullptr) pool.AdoptArena(std::move(owned_arena));
  pool.set_stats_sink(options.stats_sink != nullptr ? options.stats_sink
                                                    : instance.pool_stats());
  return pool;
}

PairPool BuildPairPool(const ProblemInstance& instance,
                       bool include_predicted) {
  PairPoolOptions options;
  options.include_predicted = include_predicted;
  return BuildPairPool(instance, options);
}

}  // namespace mqa
