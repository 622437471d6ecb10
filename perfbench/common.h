// Shared pieces of the repo benchmark driver: timing and benchmark-side
// spans, exact quantiles, the result record, and the reference-interpreter
// oracle every workload checks its outputs against.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/workload.h"
#include "src/telemetry/trace.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the benchmark's only source of randomness, seeded from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; i--) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

// Exact nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double MedianOf(const std::vector<double>& v);

// Times one call into a layer. With tracing on it is also a benchmark-side
// span (category `cat`) named after the per-layer metric it feeds, carrying
// the driver call that caused it (`parent`) and the operation id.
class Timed {
 public:
  Timed(std::vector<double>* out, const char* name, const char* parent, uint64_t id,
        const char* cat = "bench")
      : out_(out), span_(name, cat), t0_(NowSeconds()) {
    if (span_.active()) {
      span_.arg("parent", parent);
      span_.arg("id", id);
    }
  }
  ~Timed() { Finish(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Stops the clock once and returns the elapsed seconds.
  double Finish() {
    if (!done_) {
      done_ = true;
      elapsed_ = NowSeconds() - t0_;
      if (out_ != nullptr) {
        out_->push_back(elapsed_);
      }
    }
    return elapsed_;
  }
  nsf::telemetry::Span& span() { return span_; }

 private:
  std::vector<double>* out_;
  nsf::telemetry::Span span_;
  double t0_;
  double elapsed_ = 0;
  bool done_ = false;
};

// What a workload reports. Timings of layer calls are kept as raw samples
// (seconds) under their per-layer metric name; the unit suffix of the name
// (_us, _ms, _s) selects the reported unit and the value is the median.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the log
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, double> detail;  // extra context for the result file
  // Traced runs: the driver operations whose spans form the blocking path,
  // and their total wall time as the driver's own clock measured it.
  std::vector<std::string> trace_ops;
  double blocking_seconds = 0;

  // Counts `runs` failed operations and keeps the reason.
  void Fail(const std::string& what, uint64_t runs = 1);
  std::vector<double>* Samples(const char* name) { return &layer_samples[name]; }
};

// A run's observable result, compared byte for byte against the reference.
struct Outputs {
  uint32_t exit_code = 0;
  std::string stdout_text;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  bool operator==(const Outputs& other) const = default;
};

// Runs `spec` in the Wasm reference interpreter with Browsix syscalls bound
// through MakeInterpSyscalls: an oracle that shares neither codegen nor the
// simulated machine with the runs under test.
bool InterpreterOutputs(const nsf::WorkloadSpec& spec, Outputs* out, std::string* error);

// Reads the outputs of the run that just finished in `session`.
Outputs MachineOutputs(const nsf::WorkloadSpec& spec, const nsf::engine::RunOutcome& outcome,
                       nsf::engine::Session* session);

// Stages `spec`'s input files into a freshly reset session.
void ResetAndStage(nsf::engine::Session* session, const nsf::WorkloadSpec& spec);

nsf::engine::InstanceOptions OptionsFor(const nsf::WorkloadSpec& spec);

// A module whose `main` returns 0 at once: Instantiate + Run of it is the
// per-run fixed cost (machine construction, pool acquire, scrub).
nsf::Module TrivialModule();

// Times `reps` Instantiate + Run pairs of the trivial module into
// machine.empty_run_us; a failed run is counted in `report`.
void ProbeEmptyRun(nsf::engine::Engine* engine, nsf::engine::Session* session, int reps,
                   Report* report);

// Adds the EngineStats delta from `before` to `after` to the per-layer counts.
void AddEngineCounts(const nsf::engine::EngineStats& before,
                     const nsf::engine::EngineStats& after, Report* report);

// Peak resident set of this process, MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
