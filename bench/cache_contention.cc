// Code-cache read-path contention: reader threads hammer warm keys through
// CodeCache::Lookup (the wait-free epoch-protected index) and, as the
// baseline, through the read path the index replaced — one std::mutex over a
// std::map of the same keys, kept here in the bench rather than in
// src/engine. Two scenarios per (threads, mode) leg:
//
//   steady — warm hits only over a serving-sized key population (4096
//            cached keys). Isolates the per-op read-path cost: the wait-free
//            probe (pin, two acquire loads, ref copy — O(1) regardless of
//            population) vs a lock acquisition plus an O(log n) std::map
//            find over the same 4096 entries.
//   churn  — same readers, plus one writer periodically clearing and
//            republishing every key (the eviction / tier-up shape). Mutex
//            readers serialize behind the writer's lock and eat futex
//            waits; wait-free readers never block — lock_waits stays
//            exactly 0 on every lockfree leg.
//
// The cache is built with a single shard so the writer's publishes all land
// on one lock, as the baseline's do. All legs run on whatever cores the host
// offers (the JSON records "cpus"); on a single-core host threads
// time-slice, so the throughput signal is the per-op read-path cost and the
// futex/scheduling overhead the mutex legs pay.
//
// Emits BENCH_cache_contention.json:
//   {"cpus":N,"legs":[{scenario,threads,mode,hits,nulls,seconds,
//    hits_per_sec,p50_ns,p99_ns,lock_waits},...],
//    "speedup_by_threads":{"steady":{"8":...},"churn":{"8":...}}}
// where speedup is lockfree hits/s over mutex hits/s at equal thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/builder/builder.h"

namespace nsf {
namespace {

// The quickstart kernel — compiled once; every cache key republishes the
// same CompiledModuleRef so legs measure cache traffic, not compilation.
Module SumSquaresModule() {
  ModuleBuilder mb("sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(0).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

constexpr int kKeys = 4096;
constexpr uint64_t kFingerprint = 0x5eed5eed5eed5eedULL;

uint64_t KeyHash(int k) {
  // Distinct, well-spread hashes; with one shard they all share its lock.
  return 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k + 1);
}

struct Leg {
  const char* scenario = "";
  int threads = 0;
  bool lockfree = false;
  uint64_t hits = 0;
  uint64_t nulls = 0;  // churn windows between Clear and republish
  double seconds = 0;
  double hits_per_sec = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t lock_waits = 0;
};

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// The lock-free side: the engine's code cache, one shard.
class IndexCache {
 public:
  static constexpr bool kLockFree = true;
  engine::CompiledModuleRef Lookup(uint64_t h) const { return cache_.Lookup(h, kFingerprint); }
  void Clear() { cache_.Clear(); }
  void Publish(uint64_t h, const engine::CompiledModuleRef& module) {
    engine::CompileInfo info;
    cache_.GetOrCompile(h, kFingerprint, [&] { return module; }, &info);
  }
  uint64_t lock_waits() const { return cache_.lock_waits(); }

 private:
  engine::CodeCache cache_{/*shard_count=*/1};
};

// The baseline: every read takes one mutex and finds its key in an ordered
// map. lock_waits counts failed try_locks, as CodeCache::LockShard does.
class MutexCache {
 public:
  static constexpr bool kLockFree = false;
  engine::CompiledModuleRef Lookup(uint64_t h) const {
    std::unique_lock<std::mutex> lock = Lock();
    auto it = entries_.find({h, kFingerprint});
    return it == entries_.end() ? nullptr : it->second;
  }
  void Clear() {
    std::unique_lock<std::mutex> lock = Lock();
    entries_.clear();
  }
  void Publish(uint64_t h, const engine::CompiledModuleRef& module) {
    std::unique_lock<std::mutex> lock = Lock();
    entries_[{h, kFingerprint}] = module;
  }
  uint64_t lock_waits() const { return lock_waits_.load(std::memory_order_relaxed); }

 private:
  std::unique_lock<std::mutex> Lock() const {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      lock_waits_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint64_t>, engine::CompiledModuleRef> entries_;
  mutable std::atomic<uint64_t> lock_waits_{0};
};

template <typename Cache>
void PublishAllKeys(Cache& cache, const engine::CompiledModuleRef& module) {
  for (int k = 0; k < kKeys; k++) {
    cache.Publish(KeyHash(k), module);
  }
}

template <typename Cache>
Leg RunLeg(const char* scenario, bool with_writer, int threads,
           const engine::CompiledModuleRef& module, double duration_seconds) {
  Cache cache;
  PublishAllKeys(cache, module);  // one thread: no lock waits yet

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> hit_counts(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> null_counts(static_cast<size_t>(threads), 0);
  // Per-op latency, sampled 1-in-16 so the clock reads don't dominate.
  std::vector<std::vector<uint64_t>> samples(static_cast<size_t>(threads));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; t++) {
    readers.emplace_back([&, t] {
      samples[static_cast<size_t>(t)].reserve(1 << 16);
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t n = 0;
      uint64_t hits = 0;
      uint64_t nulls = 0;
      // Walk the keys in a scrambled order (an odd stride cycles through the
      // power-of-two key count): serving traffic doesn't arrive in map
      // order, and neither should we.
      uint32_t cursor = static_cast<uint32_t>(t) * 2654435761u;
      while (!stop.load(std::memory_order_relaxed)) {
        cursor += 2654435761u;  // odd stride => full cycle over kKeys
        const uint64_t h = KeyHash(static_cast<int>(cursor % kKeys));
        if ((n & 15) == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          engine::CompiledModuleRef code = cache.Lookup(h);
          const auto t1 = std::chrono::steady_clock::now();
          (code != nullptr ? hits : nulls)++;
          samples[static_cast<size_t>(t)].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
        } else {
          engine::CompiledModuleRef code = cache.Lookup(h);
          (code != nullptr ? hits : nulls)++;
        }
        n++;
      }
      hit_counts[static_cast<size_t>(t)] = hits;
      null_counts[static_cast<size_t>(t)] = nulls;
    });
  }
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        // Retire the whole index (every node + the table goes through the
        // EBR domain) and republish — eviction/republish churn at a
        // realistic cadence rather than a starvation loop.
        cache.Clear();
        PublishAllKeys(cache, module);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  const auto bench_t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) {
    r.join();
  }
  if (writer.joinable()) {
    writer.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_t0).count();

  Leg leg;
  leg.scenario = scenario;
  leg.threads = threads;
  leg.lockfree = Cache::kLockFree;
  leg.seconds = elapsed;
  for (uint64_t c : hit_counts) {
    leg.hits += c;
  }
  for (uint64_t c : null_counts) {
    leg.nulls += c;
  }
  leg.hits_per_sec = elapsed > 0 ? static_cast<double>(leg.hits) / elapsed : 0;
  std::vector<uint64_t> all;
  for (const auto& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  leg.p50_ns = Percentile(all, 0.50);
  leg.p99_ns = Percentile(all, 0.99);
  leg.lock_waits = cache.lock_waits();
  return leg;
}

}  // namespace
}  // namespace nsf

int main() {
  using namespace nsf;
  const double kLegSeconds = 0.3;
  const std::vector<int> kThreads = {1, 2, 4, 8, 16};
  const unsigned cpus = std::thread::hardware_concurrency();

  // One real compile; after that the engine is only a ref holder.
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);
  Module m = SumSquaresModule();
  engine::CompiledModuleRef module = eng.Compile(m, CodegenOptions::ChromeV8());
  if (module == nullptr || !module->ok) {
    fprintf(stderr, "!! seed compile failed\n");
    return 1;
  }

  std::vector<Leg> legs;
  for (const char* scenario : {"steady", "churn"}) {
    const bool with_writer = std::string(scenario) == "churn";
    for (int t : kThreads) {
      for (Leg leg : {RunLeg<MutexCache>(scenario, with_writer, t, module, kLegSeconds),
                      RunLeg<IndexCache>(scenario, with_writer, t, module, kLegSeconds)}) {
        fprintf(stderr, "  %-6s %2d threads %-8s : %8.2f Mhits/s  p99 %8llu ns  lock_waits %llu\n",
                leg.scenario, leg.threads, leg.lockfree ? "lockfree" : "mutex",
                leg.hits_per_sec / 1e6, static_cast<unsigned long long>(leg.p99_ns),
                static_cast<unsigned long long>(leg.lock_waits));
        legs.push_back(leg);
      }
    }
  }

  auto find_leg = [&](const char* scenario, int threads, bool lockfree) -> const Leg* {
    for (const Leg& l : legs) {
      if (std::string(l.scenario) == scenario && l.threads == threads &&
          l.lockfree == lockfree) {
        return &l;
      }
    }
    return nullptr;
  };

  std::string speedup_json;
  for (const char* scenario : {"steady", "churn"}) {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"threads", "mutex Mhits/s", "lockfree Mhits/s", "speedup", "lf p50 ns",
                    "lf p99 ns", "mutex p99 ns", "mutex lock_waits", "lf lock_waits"});
    std::string per_threads;
    for (int t : kThreads) {
      const Leg* mu = find_leg(scenario, t, false);
      const Leg* lf = find_leg(scenario, t, true);
      double speedup = mu->hits_per_sec > 0 ? lf->hits_per_sec / mu->hits_per_sec : 0;
      rows.push_back({StrFormat("%d", t), StrFormat("%.2f", mu->hits_per_sec / 1e6),
                      StrFormat("%.2f", lf->hits_per_sec / 1e6), StrFormat("%.2fx", speedup),
                      StrFormat("%llu", (unsigned long long)lf->p50_ns),
                      StrFormat("%llu", (unsigned long long)lf->p99_ns),
                      StrFormat("%llu", (unsigned long long)mu->p99_ns),
                      StrFormat("%llu", (unsigned long long)mu->lock_waits),
                      StrFormat("%llu", (unsigned long long)lf->lock_waits)});
      if (!per_threads.empty()) {
        per_threads += ",";
      }
      per_threads += StrFormat("\"%d\":%.4f", t, speedup);
    }
    printf("cache_contention [%s]: warm-hit read path, wait-free index vs mutex\n%s\n", scenario,
           RenderTable(rows).c_str());
    if (!speedup_json.empty()) {
      speedup_json += ",";
    }
    speedup_json += StrFormat("\"%s\":{%s}", scenario, per_threads.c_str());
  }

  std::string legs_json;
  for (const Leg& l : legs) {
    if (!legs_json.empty()) {
      legs_json += ",";
    }
    legs_json += StrFormat(
        "{\"scenario\":\"%s\",\"threads\":%d,\"mode\":\"%s\",\"hits\":%llu,"
        "\"nulls\":%llu,\"seconds\":%.4f,\"hits_per_sec\":%.1f,\"p50_ns\":%llu,"
        "\"p99_ns\":%llu,\"lock_waits\":%llu}",
        l.scenario, l.threads, l.lockfree ? "lockfree" : "mutex", (unsigned long long)l.hits,
        (unsigned long long)l.nulls, l.seconds, l.hits_per_sec, (unsigned long long)l.p50_ns,
        (unsigned long long)l.p99_ns, (unsigned long long)l.lock_waits);
  }
  WriteBenchJson("cache_contention",
                 StrFormat("{\"cpus\":%u,\"legs\":[%s],\"speedup_by_threads\":{%s}}", cpus,
                           legs_json.c_str(), speedup_json.c_str()),
                 &eng);
  return 0;
}
