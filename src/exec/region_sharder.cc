#include "exec/region_sharder.h"

namespace mqa {

uint64_t ShardSeed(uint64_t instance_seed, int64_t shard) {
  // SplitMix64 (Steele et al.) over the combined word: cheap, and any two
  // (seed, shard) inputs land in well-separated streams.
  uint64_t z = instance_seed + 0x9e3779b97f4a7c15ull *
                                   (static_cast<uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace mqa
