#ifndef MQA_CORE_VALID_PAIRS_H_
#define MQA_CORE_VALID_PAIRS_H_

#include <cstdint>
#include <vector>

#include "core/pair_pool.h"
#include "index/spatial_index.h"
#include "model/problem_instance.h"

namespace mqa {

class PairArena;
class ThreadPool;

/// How BuildPairPool enumerates candidate tasks per worker and where the
/// resulting columns live.
struct PairPoolOptions {
  /// When false, only current workers/tasks participate (the paper's WoP
  /// straw man and the exact oracle).
  bool include_predicted = true;

  /// Index backend used when no prebuilt task index is available. kAuto
  /// picks the grid above kAutoBruteForceMaxPairs candidate pairs.
  IndexBackend backend = IndexBackend::kAuto;

  /// Prebuilt index over the instance's tasks (entry ids = task indices,
  /// covering *all* tasks, current and predicted). Overrides `backend`
  /// and the instance's task_index(). The simulator threads its
  /// TaskIndexCache through ProblemInstance::task_index instead.
  const SpatialIndex* task_index = nullptr;

  /// Thread pool for the parallel builder, which scans fixed worker
  /// chunks against one shared task index and then fills the columns per
  /// worker (and, in the divide-and-conquer assigner, for fanning out
  /// subproblem solves). Precedence mirrors task_index: this field, then
  /// the instance's thread_pool(). Null (the default) or a 1-thread pool
  /// selects the sequential path; the parallel path produces a
  /// byte-identical pool (see src/exec/README.md for the determinism
  /// contract).
  ThreadPool* thread_pool = nullptr;

  /// Arena backing the pool's columns, CSR adjacency and build scratch.
  /// Precedence: this field, then the instance's pair_arena(); null (the
  /// default) gives the pool a private arena. An external arena must
  /// outlive the pool and is *not* Reset here — the owner (sim/
  /// EpochRunner) resets it once per epoch, which is what makes the
  /// steady state allocation-free. On the parallel path, one sub-arena
  /// (PairArena::shard) per worker chunk holds that chunk's candidates.
  PairArena* arena = nullptr;

  /// When set (precedence: this field, then the instance's pool_stats()),
  /// the pool writes its PairPoolStats here on destruction — after the
  /// consuming algorithm ran, so the lazy counters are final.
  PairPoolStats* stats_sink = nullptr;
};

/// Enumerates valid pairs into a columnar PairPool and attaches
/// cost/quality/existence statistics:
///  * current-current: fixed cost C*dist and fixed quality from the
///    instance's QualityModel, stored inline in the columns;
///  * pairs involving predicted entities (only when include_predicted):
///    cost from the closed-form box-distance statistics stored inline;
///    quality and existence from PairStatistics Cases 1-3 (paper Section
///    III-B) — *not* stored, but resolved through the pool's lazy table
///    on first touch (see core/pair_pool.h). Pairs pruned before any
///    quality comparison never pay for the sampling.
/// Validity is the reachability test ProblemInstance::CanReach.
///
/// Candidate tasks per worker come from a radius query over a task index
/// with radius velocity * max-deadline — a superset of CanReach's
/// velocity x deadline constraint — then the exact CanReach filter, so
/// every backend produces the *identical* pool (same pair order, costs,
/// qualities) as the seed's brute-force double loop; only the work done
/// differs. Index precedence: options.task_index, then
/// instance.task_index(), then an index built here per options.backend.
PairPool BuildPairPool(const ProblemInstance& instance,
                       const PairPoolOptions& options);

/// Back-compat shorthand for {.include_predicted = include_predicted}.
PairPool BuildPairPool(const ProblemInstance& instance,
                       bool include_predicted = true);

}  // namespace mqa

#endif  // MQA_CORE_VALID_PAIRS_H_
