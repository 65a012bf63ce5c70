#ifndef MQA_PREDICTION_PAIR_STATS_H_
#define MQA_PREDICTION_PAIR_STATS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "index/spatial_index.h"
#include "model/problem_instance.h"
#include "stats/running_stats.h"
#include "stats/uncertain.h"

namespace mqa {

/// Sample-based statistics of quality scores and existence probabilities
/// for pairs involving predicted workers/tasks (paper Section III-B).
///
/// All statistics are derived from the *current* valid pairs of a
/// ProblemInstance:
///   Case 1 <ŵ, t_j>: quality samples = q_ij over the n_j current workers
///     that can reach t_j; existence = min(n_j / |W_p|, 1).
///   Case 2 <w_i, t̂>: quality samples = q_ij over the m_i current tasks
///     w_i can reach; existence = min(m_i / |T_p|, 1).
///   Case 3 <ŵ, t̂>: quality samples = q_ij over all current valid pairs;
///     existence = u / (|W_p| * |T_p|), u = number of current valid pairs.
class PairStatistics {
 public:
  /// Scans the current-current valid pairs of `instance` once and builds
  /// all per-task, per-worker and global statistics. Delegates to the
  /// indexed constructor with an internal brute-force index — slightly
  /// more setup than a bare double loop, accepted so the scan logic (and
  /// its determinism subtleties) exists exactly once.
  explicit PairStatistics(const ProblemInstance& instance);

  /// Same scan, but candidate tasks per worker come from radius queries
  /// over `task_index` (entry ids = task indices; may cover predicted
  /// tasks too — ids past the current range are skipped) with radius
  /// velocity * max_deadline, so the scan is sublinear instead of
  /// |W_p| x |T_p|. Statistics are identical to the plain scan: the
  /// per-worker candidates are sorted, preserving accumulation order.
  /// BuildPairPool uses this with the index it already has.
  PairStatistics(const ProblemInstance& instance,
                 const SpatialIndex* task_index, double max_deadline);

  /// Column-fill constructor: replays the current-current pairs straight
  /// out of a columnar pair pool. For pair k, worker_col[k]/task_col[k]
  /// are its indices and fixed_quality_col[k] its score q_ij; pairs whose
  /// worker or task index falls outside the current ranges (predicted
  /// pairs) are skipped. The columns are worker-major with tasks
  /// ascending per worker — the exact accumulation order of the scanning
  /// constructors, so the statistics are bit-identical to an eager scan.
  /// This is how the pool's LazyPairStats table builds the statistics on
  /// first touch, from samples the pool already holds (no index queries,
  /// no reachability re-tests — the pool *is* the sample list).
  PairStatistics(size_t num_current_workers, size_t num_current_tasks,
                 const int32_t* worker_col, const int32_t* task_col,
                 const double* fixed_quality_col, size_t num_pairs);

  /// Quality distribution for a pair of a predicted worker with current
  /// task index `task_index` (Case 1).
  Uncertain QualityCase1(int32_t task_index) const;

  /// Quality distribution for a pair of current worker index
  /// `worker_index` with a predicted task (Case 2).
  Uncertain QualityCase2(int32_t worker_index) const;

  /// Quality distribution for a fully predicted pair (Case 3).
  Uncertain QualityCase3() const;

  /// Existence probabilities p̂_ij for the three predicted-pair cases.
  double ExistenceCase1(int32_t task_index) const;
  double ExistenceCase2(int32_t worker_index) const;
  double ExistenceCase3() const;

  /// Number of current-current valid pairs found.
  int64_t num_valid_pairs() const { return num_valid_pairs_; }

  /// Average number of valid workers per current task (deg_t in the
  /// paper's Appendix C cost model).
  double AvgWorkersPerTask() const;

 private:
  static Uncertain FromStats(const RunningStats& s);

  size_t num_current_workers_;
  size_t num_current_tasks_;
  std::vector<RunningStats> per_task_;    // indexed by current task index
  std::vector<RunningStats> per_worker_;  // indexed by current worker index
  RunningStats global_;
  int64_t num_valid_pairs_ = 0;
};

}  // namespace mqa

#endif  // MQA_PREDICTION_PAIR_STATS_H_
