// Set-associative LRU cache model used for both L1i and L1d (with a shared
// unified L2 behind them).
//
// Each set is a row of `ways` line tags kept in MRU -> LRU order: slot 0 holds
// the most recently touched line, the last slot the least recently touched.
// Empty slots hold UINT64_MAX, which no line number (addr >> line shift) can
// equal. A hit on slot 0 — the common case, since consecutive fetches mostly
// fall in the same line — returns without writing. Any other hit or a miss
// shifts the slots in front of the touched one down by one and writes the line
// into slot 0; on a miss the shift drops the last slot, the exact LRU victim.
// True LRU keeps the last `ways` distinct lines of each set, so hits, misses
// and victims match a timestamp-scan LRU exactly.
#ifndef SRC_MACHINE_CACHE_H_
#define SRC_MACHINE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nsf {

// Line size of every cache in the simulated machine, and of the predecoder's
// L1i line-span precomputation.
inline constexpr uint32_t kCacheLineShift = 6;
inline constexpr uint32_t kCacheLineSize = 64;
static_assert(kCacheLineSize == 1u << kCacheLineShift, "line size and shift disagree");

// Line numbers of the first and the last byte of a `size`-byte fetch at
// `addr` (a zero-size fetch counts as one byte).
inline uint64_t LineOf(uint64_t addr) { return addr >> kCacheLineShift; }
inline uint64_t LastLineOf(uint64_t addr, uint32_t size) {
  return LineOf(addr + (size > 0 ? size - 1 : 0));
}

class CacheModel {
 public:
  // size_bytes / (line_size * ways) sets. line_size and the set count must be
  // powers of two; throws std::invalid_argument otherwise.
  CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways);

  // Touches the line containing `addr`; returns true on hit.
  bool Access(uint64_t addr) {
    uint64_t line = addr >> line_shift_;
    uint64_t* set = &tags_[static_cast<size_t>(line & set_mask_) * ways_];
    if (set[0] == line) {
      return true;
    }
    uint32_t w = 1;
    while (w < ways_ && set[w] != line) {
      w++;
    }
    bool hit = w < ways_;
    if (!hit) {
      w = ways_ - 1;
    }
    for (; w > 0; w--) {
      set[w] = set[w - 1];
    }
    set[0] = line;
    return hit;
  }

  void Reset();

 private:
  uint32_t ways_;
  uint32_t line_shift_;
  uint64_t set_mask_;
  std::vector<uint64_t> tags_;  // num_sets * ways_, each set MRU first
};

}  // namespace nsf

#endif  // SRC_MACHINE_CACHE_H_
