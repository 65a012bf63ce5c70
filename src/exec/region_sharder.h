#ifndef MQA_EXEC_REGION_SHARDER_H_
#define MQA_EXEC_REGION_SHARDER_H_

#include <cstdint>

namespace mqa {

/// Deterministic per-shard RNG stream seed derived from an instance seed
/// (SplitMix64 over seed + shard), so sharded randomized stages draw from
/// independent streams that depend only on the shard index, not on which
/// thread runs the shard.
uint64_t ShardSeed(uint64_t instance_seed, int64_t shard);

}  // namespace mqa

#endif  // MQA_EXEC_REGION_SHARDER_H_
