#ifndef MQA_CORE_MERGE_H_
#define MQA_CORE_MERGE_H_

#include <cstdint>
#include <vector>

#include "core/valid_pairs.h"

namespace mqa {

/// The conflict work of one MergeResults call.
struct MergeWork {
  int64_t conflicts = 0;     // workers assigned in both sets
  int64_t replacements = 0;  // losing tasks given another free worker
};

/// MQA_Merge (paper Fig. 8): merges the assignment `incoming` of one
/// subproblem into the accumulated assignment `merged`, resolving workers
/// that are assigned to different tasks in the two sets.
///
/// Conflicts are processed in decreasing order of the incoming pair's
/// expected traveling cost (Fig. 8 line 3). For each conflicting worker
/// the better of its two pairs is kept (Lemma 4.1/4.2 dominance, then the
/// Eq. 7 quality-increase probability, ties toward cheaper cost); the
/// losing side's task is reassigned to its best *available* valid worker
/// from `pool` (highest effective quality, ties toward cheaper cost), or
/// dropped when every valid worker is in use.
///
/// On return `merged` holds the union without worker conflicts. The
/// per-worker bookkeeping lives in thread-local dense scratch sized by
/// the pool's worker count, reset after every call.
MergeWork MergeResults(const PairPool& pool, std::vector<int32_t>* merged,
                       const std::vector<int32_t>& incoming);

}  // namespace mqa

#endif  // MQA_CORE_MERGE_H_
