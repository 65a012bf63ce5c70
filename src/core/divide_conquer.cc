#include "core/divide_conquer.h"

#include <algorithm>

#include "common/logging.h"
#include "core/budget.h"
#include "core/cost_model.h"
#include "core/decomposition.h"
#include "core/greedy.h"
#include "core/merge.h"
#include "core/valid_pairs.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mqa {

namespace {

// Subproblems smaller than this solve faster than the fan-out overhead of
// scheduling them; below it the recursion stays on the calling thread.
constexpr size_t kMinParallelTasksPerNode = 16;

// Average number of valid workers per task within one subproblem.
double SubproblemDegree(const Subproblem& sub) {
  if (sub.task_indices.empty()) return 0.0;
  return static_cast<double>(sub.pair_ids.size()) /
         static_cast<double>(sub.task_indices.size());
}

// Greedy over exactly the pairs of `pair_ids` with fresh state; used for
// leaf subproblems and for the budget-constrained reselection. The used
// flags are per-thread scratch, all zero between calls: a solve resets
// only the entries its selection set.
std::vector<int32_t> GreedyOver(const ProblemInstance& instance,
                                const PairPool& pool,
                                const std::vector<int32_t>& pair_ids,
                                double delta) {
  thread_local std::vector<char> worker_used, task_used;
  if (worker_used.size() < instance.workers().size()) {
    worker_used.resize(instance.workers().size(), 0);
  }
  if (task_used.size() < instance.tasks().size()) {
    task_used.resize(instance.tasks().size(), 0);
  }
  BudgetTracker budget(instance.budget(), delta);
  std::vector<int32_t> selected;
  GreedySelect(pool, pair_ids, &worker_used, &task_used, &budget, &selected);
  for (const int32_t id : selected) {
    worker_used[static_cast<size_t>(pool.WorkerIndex(id))] = 0;
    task_used[static_cast<size_t>(pool.TaskIndex(id))] = 0;
  }
  return selected;
}

// The mqa.dc.* work counters, summed per subtree and flushed once per
// RunDivideConquer call.
struct DcWork {
  int64_t nodes = 0;            // subproblems solved, leaves included
  int64_t leaves = 0;           // single-task subproblems
  int64_t merge_conflicts = 0;  // MergeWork::conflicts
  int64_t replacements = 0;     // MergeWork::replacements
  int64_t reselects = 0;        // budget-constrained reselections

  void Add(const DcWork& o) {
    nodes += o.nodes;
    leaves += o.leaves;
    merge_conflicts += o.merge_conflicts;
    replacements += o.replacements;
    reselects += o.reselects;
  }
};

// True when the selected set's cost upper bounds respect both budget pots
// (current-instance pot and next-instance pot of size B each).
bool WithinBudgetUpperBound(const PairPool& pool,
                            const std::vector<int32_t>& selected,
                            double budget) {
  double current_ub = 0.0;
  double future_ub = 0.0;
  for (const int32_t id : selected) {
    (pool.InvolvesPredicted(id) ? future_ub : current_ub) += pool.CostUb(id);
  }
  constexpr double kEps = 1e-9;
  return current_ub <= budget + kEps && future_ub <= budget + kEps;
}

// Recursive MQA_D&C over one subproblem; adds its work to `*work`.
// `exec` (nullable) fans the subproblem solves of one level across the
// pool; each solve reads only (instance, pool, sub) and writes its own
// results and work slots, and the merge below consumes the slots in
// decomposition order on this thread — so the selection and the counters
// are byte-identical to the sequential loop for any thread count. Nested
// levels may fan out too: ThreadPool::ParallelFor composes (the caller
// always drains its own items).
std::vector<int32_t> SolveRecursive(const ProblemInstance& instance,
                                    const PairPool& pool,
                                    const Subproblem& problem, double delta,
                                    int branching, int depth,
                                    ThreadPool* exec, DcWork* work) {
  MQA_CHECK(depth < 64) << "divide-and-conquer recursion too deep";
  // Spans only for nodes big enough to fan out — the same threshold as
  // the parallel schedule, so leaf-sized nodes stay span-free.
  MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                    "dc/node", static_cast<int64_t>(problem.num_tasks()));
  if (problem.task_indices.empty()) return {};
  ++work->nodes;
  if (problem.num_tasks() == 1) {
    // Leaf: pick the best worker for the single task greedily (Fig. 9
    // line 8).
    ++work->leaves;
    return GreedyOver(instance, pool, problem.pair_ids, delta);
  }

  const int g =
      branching > 0
          ? branching
          : EstimateBestBranching(static_cast<int64_t>(problem.num_tasks()),
                                  SubproblemDegree(problem));
  const std::vector<Subproblem> subproblems =
      DecomposeTasks(instance, pool, problem.task_indices, g);

  std::vector<std::vector<int32_t>> results(subproblems.size());
  std::vector<DcWork> sub_work(subproblems.size());
  const auto solve_one = [&](int64_t k) {
    const size_t i = static_cast<size_t>(k);
    results[i] = SolveRecursive(instance, pool, subproblems[i], delta,
                                branching, depth + 1, exec, &sub_work[i]);
  };
  if (exec != nullptr && subproblems.size() > 1 &&
      problem.num_tasks() >= kMinParallelTasksPerNode) {
    exec->ParallelFor(static_cast<int64_t>(subproblems.size()), solve_one);
  } else {
    for (size_t k = 0; k < subproblems.size(); ++k) {
      solve_one(static_cast<int64_t>(k));
    }
  }
  for (const DcWork& w : sub_work) work->Add(w);

  std::vector<int32_t> merged;
  {
    MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                      "dc/merge", static_cast<int64_t>(subproblems.size()));
    for (const std::vector<int32_t>& result : results) {
      const MergeWork merge = MergeResults(pool, &merged, result);
      work->merge_conflicts += merge.conflicts;
      work->replacements += merge.replacements;
    }
  }

  // Fig. 9 lines 12-15: budget adjustment.
  if (WithinBudgetUpperBound(pool, merged, instance.budget())) {
    return merged;
  }
  MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                    "dc/budget_reselect",
                    static_cast<int64_t>(merged.size()));
  ++work->reselects;
  return GreedyOver(instance, pool, merged, delta);
}

}  // namespace

AssignmentResult RunDivideConquer(const ProblemInstance& instance,
                                  double delta, int branching,
                                  const PairPoolOptions& pool_options) {
  PairPoolOptions options = pool_options;
  options.include_predicted = true;
  const PairPool pool = BuildPairPool(instance, options);

  Subproblem root;
  for (size_t j = 0; j < instance.tasks().size(); ++j) {
    const PairIdSpan ids = pool.PairsByTask(static_cast<int32_t>(j));
    if (ids.empty()) continue;
    root.task_indices.push_back(static_cast<int32_t>(j));
    root.pair_ids.insert(root.pair_ids.end(), ids.begin(), ids.end());
  }

  // Same precedence as BuildPairPool: the assigner's own pool, then the
  // instance's (set by the simulator). Null runs the sequential solve.
  ThreadPool* exec = options.thread_pool != nullptr ? options.thread_pool
                                                    : instance.thread_pool();
  if (exec != nullptr && exec->num_threads() <= 1) exec = nullptr;

  DcWork work;
  std::vector<int32_t> selected =
      SolveRecursive(instance, pool, root, delta, branching, /*depth=*/0,
                     exec, &work);

  // The merge phase does not re-check budgets after replacements; enforce
  // the hard constraint once at the top before emitting.
  if (!WithinBudgetUpperBound(pool, selected, instance.budget())) {
    ++work.reselects;
    selected = GreedyOver(instance, pool, selected, delta);
  }
  MQA_METRIC_COUNT("mqa.dc.nodes", work.nodes);
  MQA_METRIC_COUNT("mqa.dc.leaves", work.leaves);
  MQA_METRIC_COUNT("mqa.dc.merge_conflicts", work.merge_conflicts);
  MQA_METRIC_COUNT("mqa.dc.replacements", work.replacements);
  MQA_METRIC_COUNT("mqa.dc.reselects", work.reselects);
  return EmitCurrentPairs(instance, pool, selected);
}

}  // namespace mqa
