#include "src/machine/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nsf {

namespace {
uint32_t NumSets(uint32_t size_bytes, uint32_t line_size, uint32_t ways) {
  if (!std::has_single_bit(line_size) || ways == 0) {
    throw std::invalid_argument("cache line size must be a power of two and ways nonzero");
  }
  uint32_t sets = size_bytes / (line_size * ways);
  if (!std::has_single_bit(sets) || sets * line_size * ways != size_bytes) {
    throw std::invalid_argument("cache set count must be a power of two");
  }
  return sets;
}
}  // namespace

CacheModel::CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
    : ways_(ways),
      line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))),
      set_mask_(NumSets(size_bytes, line_size, ways) - 1),
      tags_(size_t{set_mask_ + 1} * ways, UINT64_MAX) {}

void CacheModel::Reset() { std::fill(tags_.begin(), tags_.end(), UINT64_MAX); }

}  // namespace nsf
