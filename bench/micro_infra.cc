// google-benchmark microbenchmarks for the infrastructure itself: decoder,
// validator, interpreter, compiler backends (via the Engine), the engine's
// code cache, the simulated machine and its cache model.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "src/builder/builder.h"
#include "src/codegen/codegen.h"
#include "src/engine/engine.h"
#include "src/interp/interp.h"
#include "src/machine/cache.h"
#include "src/polybench/polybench.h"
#include "src/wasm/decoder.h"
#include "src/wasm/encoder.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace {

Module BuildGemmModule() { return PolybenchSpec("gemm").build(); }

engine::Engine& UncachedEngine() {
  static engine::Engine instance([] {
    engine::EngineConfig config;
    config.cache_enabled = false;  // compile benches must hit the backend
    return config;
  }());
  return instance;
}

void BM_EncodeModule(benchmark::State& state) {
  Module m = BuildGemmModule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeModule(m));
  }
}
BENCHMARK(BM_EncodeModule);

void BM_DecodeModule(benchmark::State& state) {
  std::vector<uint8_t> bytes = EncodeModule(BuildGemmModule());
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeModule(bytes));
  }
}
BENCHMARK(BM_DecodeModule);

void BM_ValidateModule(benchmark::State& state) {
  Module m = BuildGemmModule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateModule(m));
  }
}
BENCHMARK(BM_ValidateModule);

void BM_CompileNative(benchmark::State& state) {
  Module m = BuildGemmModule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(UncachedEngine().Compile(m, CodegenOptions::NativeClang()));
  }
}
BENCHMARK(BM_CompileNative);

void BM_CompileChrome(benchmark::State& state) {
  Module m = BuildGemmModule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(UncachedEngine().Compile(m, CodegenOptions::ChromeV8()));
  }
}
BENCHMARK(BM_CompileChrome);

void BM_CompileCachedHit(benchmark::State& state) {
  // The compile-once-run-many path: after the first compile, every request
  // is a hash + fingerprint lookup in the content-addressed cache.
  engine::Engine cached;
  Module m = BuildGemmModule();
  cached.Compile(m, CodegenOptions::ChromeV8());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.Compile(m, CodegenOptions::ChromeV8()));
  }
  state.counters["cache_hits"] = static_cast<double>(cached.Stats().cache_hits);
}
BENCHMARK(BM_CompileCachedHit);

void BM_MachineExec(benchmark::State& state) {
  // Tight arithmetic loop; reports simulated instructions per second.
  ModuleBuilder mb;
  auto& f = mb.AddFunction("spin", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.ForI32Dyn(i, 0, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).I32Mul().LocalGet(i).I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  Module m = mb.Build();
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(m, CodegenOptions::NativeClang());
  engine::Session session(&eng);
  engine::InstanceOptions opts;
  opts.entry = "spin";
  std::string err;
  auto instance = session.Instantiate(code, opts, &err);
  uint64_t executed = 0;
  for (auto _ : state) {
    engine::RunOutcome out = instance->RunExport("spin", {100000});
    benchmark::DoNotOptimize(out.exit_code);
    executed += out.counters.instructions_retired;
  }
  state.counters["sim_instr_per_s"] =
      benchmark::Counter(static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineExec);

// Cost of one CacheModel::Access at the L1d geometry. Arg 0 is a fetch-like
// stream (4-byte steps through code: 15 of 16 accesses hit the MRU slot);
// arg 1 jumps at random over 64 MiB, so nearly every access misses and
// shifts a whole set. time_per_access is the number the per-layer split uses.
void BM_CacheModelAccess(benchmark::State& state) {
  const bool miss_heavy = state.range(0) != 0;
  std::vector<uint64_t> addrs(1 << 16);
  std::mt19937_64 rng(42);
  for (size_t i = 0; i < addrs.size(); i++) {
    addrs[i] = miss_heavy ? rng() % (uint64_t{64} << 20) : 0x400000 + 4 * i;
  }
  CacheModel cache(32 * 1024, kCacheLineSize, 8);
  uint64_t hits = 0;
  for (auto _ : state) {
    for (uint64_t a : addrs) {
      hits += cache.Access(a) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  const double accesses = static_cast<double>(addrs.size());
  state.counters["time_per_access"] = benchmark::Counter(
      accesses, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["hit_frac"] =
      static_cast<double>(hits) / (accesses * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CacheModelAccess)->Arg(0)->Arg(1);

void BM_InterpExec(benchmark::State& state) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("spin", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.ForI32Dyn(i, 0, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).I32Mul().LocalGet(i).I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  Module m = mb.Build();
  std::string err;
  auto inst = Instance::Create(m, nullptr, &err);
  uint64_t executed = 0;
  for (auto _ : state) {
    uint64_t before = inst->instructions_retired();
    benchmark::DoNotOptimize(inst->CallExport("spin", {TypedValue::I32(100000)}));
    executed += inst->instructions_retired() - before;
  }
  state.counters["interp_instr_per_s"] =
      benchmark::Counter(static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpExec);

}  // namespace
}  // namespace nsf

BENCHMARK_MAIN();
