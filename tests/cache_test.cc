// Differential tests for CacheModel: its MRU-ordered tag rows must produce
// the same hit/miss sequence as a straightforward timestamp-scan LRU (the
// reference below) on random and strided address streams.
#include "src/machine/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace nsf {
namespace {

// Reference model: every way carries the tick of its last touch; a miss
// replaces the way with the smallest tick (the first such way on ties, so
// empty ways fill in order).
class TickLru {
 public:
  TickLru(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
      : ways_(ways),
        num_sets_(size_bytes / (line_size * ways)),
        line_size_(line_size),
        sets_(size_t{num_sets_} * ways) {}

  bool Access(uint64_t addr) {
    uint64_t line = addr / line_size_;
    Way* base = &sets_[static_cast<size_t>(line % num_sets_) * ways_];
    tick_++;
    Way* victim = base;
    for (uint32_t w = 0; w < ways_; w++) {
      if (base[w].tag == line) {
        base[w].lru = tick_;
        return true;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    victim->tag = line;
    victim->lru = tick_;
    return false;
  }

 private:
  struct Way {
    uint64_t tag = UINT64_MAX;
    uint64_t lru = 0;
  };
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t line_size_;
  std::vector<Way> sets_;
  uint64_t tick_ = 0;
};

struct Config {
  uint32_t size_bytes;
  uint32_t line_size;
  uint32_t ways;
};

const Config kConfigs[] = {
    {4 * 1024, 64, 8}, {32 * 1024, 64, 8}, {512 * 1024, 64, 8}, {1024, 64, 2}, {512, 64, 1},
};

// Runs `addrs` through both models; returns the number of hits and fails the
// test at the first access where they disagree.
uint64_t ExpectSameSequence(const Config& c, const std::vector<uint64_t>& addrs) {
  CacheModel model(c.size_bytes, c.line_size, c.ways);
  TickLru ref(c.size_bytes, c.line_size, c.ways);
  uint64_t hits = 0;
  for (size_t i = 0; i < addrs.size(); i++) {
    bool want = ref.Access(addrs[i]);
    bool got = model.Access(addrs[i]);
    if (got != want) {
      ADD_FAILURE() << "config (" << c.size_bytes << "," << c.line_size << "," << c.ways
                    << ") access #" << i << " addr 0x" << std::hex << addrs[i] << std::dec
                    << ": model " << (got ? "hit" : "miss") << ", reference "
                    << (want ? "hit" : "miss");
      return hits;
    }
    hits += got ? 1 : 0;
  }
  return hits;
}

// Mostly-local random walk with occasional far jumps over a footprint of
// `span` bytes: exercises MRU hits, mid-row hits and evictions together.
std::vector<uint64_t> RandomStream(uint64_t seed, uint64_t span, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> out;
  out.reserve(n);
  uint64_t addr = rng() % span;
  for (size_t i = 0; i < n; i++) {
    uint64_t r = rng();
    if (r % 8 == 0) {
      addr = rng() % span;  // far jump
    } else {
      addr = (addr + (r % 160)) % span;  // short forward step
    }
    out.push_back(addr);
  }
  return out;
}

// `passes` sweeps over `count` addresses spaced `stride` bytes apart.
std::vector<uint64_t> StridedStream(uint64_t start, uint64_t stride, size_t count, int passes) {
  std::vector<uint64_t> out;
  for (int p = 0; p < passes; p++) {
    for (size_t i = 0; i < count; i++) {
      out.push_back(start + i * stride);
    }
  }
  return out;
}

TEST(CacheModelDiff, RandomStreamsMatchReference) {
  for (const Config& c : kConfigs) {
    for (uint64_t seed = 1; seed <= 4; seed++) {
      // Footprints below, near and well above the cache size.
      for (uint64_t span : {uint64_t{c.size_bytes} / 2, uint64_t{c.size_bytes} * 2,
                            uint64_t{c.size_bytes} * 16}) {
        uint64_t hits = ExpectSameSequence(c, RandomStream(seed, span, 20000));
        EXPECT_GT(hits, 0u);
      }
    }
  }
}

TEST(CacheModelDiff, StridedStreamsMatchReference) {
  for (const Config& c : kConfigs) {
    uint64_t set_stride = uint64_t{c.size_bytes} / c.ways;  // same set every access
    for (uint64_t stride : {uint64_t{8}, uint64_t{64}, uint64_t{72}, uint64_t{4096}, set_stride}) {
      // Working sets of ways-1 .. ways+1 conflicting lines, and a long sweep.
      for (size_t count : {size_t{c.ways} - 1, size_t{c.ways}, size_t{c.ways} + 1, size_t{3000}}) {
        ExpectSameSequence(c, StridedStream(0x10000, stride, count, 4));
      }
    }
  }
}

TEST(CacheModelDiff, ExactLruVictim) {
  CacheModel cache(512, 64, 4);  // 2 sets x 4 ways; set stride 128 B
  for (uint64_t line : {0, 1, 2, 3}) {
    EXPECT_FALSE(cache.Access(line * 128));
  }
  EXPECT_TRUE(cache.Access(0));       // order now 0,3,2,1 (MRU first)
  EXPECT_TRUE(cache.Access(2 * 128));  // 2,0,3,1
  EXPECT_FALSE(cache.Access(4 * 128));  // evicts 1, the LRU line
  EXPECT_TRUE(cache.Access(3 * 128));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(2 * 128));
  EXPECT_FALSE(cache.Access(1 * 128));
}

TEST(CacheModelDiff, ResetEmptiesEverySet) {
  CacheModel cache(1024, 64, 2);
  cache.Access(0);
  cache.Access(512);
  cache.Reset();
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(512));
  EXPECT_TRUE(cache.Access(0));
}

TEST(CacheModelDiff, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(CacheModel(3 * 64 * 2, 64, 2), std::invalid_argument);  // 3 sets
  EXPECT_THROW(CacheModel(6 * 1024, 64, 8), std::invalid_argument);    // 12 sets
  EXPECT_THROW(CacheModel(1000, 64, 2), std::invalid_argument);        // not a multiple
  EXPECT_THROW(CacheModel(1024, 48, 2), std::invalid_argument);        // line size
  EXPECT_NO_THROW(CacheModel(1024, 64, 2));
  EXPECT_NO_THROW(CacheModel(kCacheLineSize * 8, kCacheLineSize, 8));  // one set
}

}  // namespace
}  // namespace nsf
