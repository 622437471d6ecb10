#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/builder/builder.h"
#include "src/interp/interp.h"
#include "src/kernel/kernel.h"
#include "src/runtime/runtime.h"
#include "src/wasm/validator.h"

namespace perfbench {

using namespace nsf;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double MedianOf(const std::vector<double>& v) { return Quantile(v, 0.5); }

void Report::Fail(const std::string& what, uint64_t runs) {
  failed += runs;
  if (errors.size() < 20) {
    errors.push_back(what);
  }
}

namespace {

// Imports resolve before the interpreter Instance exists, but the syscall
// layer's memory port needs that Instance: bind in two phases.
class ForwardingResolver : public ImportResolver {
 public:
  explicit ForwardingResolver(ImportResolver* inner) : inner_(inner) {}
  const HostFunc* ResolveFunc(const std::string& module, const std::string& name,
                              const FuncType& type) override {
    return inner_->ResolveFunc(module, name, type);
  }

 private:
  ImportResolver* inner_;
};

}  // namespace

bool InterpreterOutputs(const WorkloadSpec& spec, Outputs* out, std::string* error) {
  Module module = spec.build();
  ValidationResult vr = ValidateModule(module);
  if (!vr.ok) {
    *error = spec.name + ": module invalid: " + vr.error;
    return false;
  }
  BrowsixKernel kernel;
  if (spec.setup) {
    spec.setup(kernel);
  }
  auto port = std::make_unique<InstanceMemPort>(nullptr);
  auto process = kernel.CreateProcess(port.get(), spec.argv);
  auto host = MakeInterpSyscalls(process.get());
  ForwardingResolver resolver(host.get());
  auto instance = nsf::Instance::Create(module, &resolver, error);
  if (instance == nullptr) {
    return false;
  }
  *port = InstanceMemPort(instance.get());
  ExecResult r = instance->CallExport(spec.entry, {});
  if (!r.ok) {
    *error = spec.name + ": reference interpreter trapped: " + r.error;
    return false;
  }
  out->exit_code = r.values.empty() ? 0 : r.values[0].value.i32;
  out->stdout_text = process->StdoutString();
  out->files.clear();
  for (const std::string& path : spec.output_files) {
    std::vector<uint8_t> bytes;
    kernel.fs().ReadFile(path, &bytes);
    out->files.emplace_back(path, std::move(bytes));
  }
  return true;
}

Outputs MachineOutputs(const WorkloadSpec& spec, const engine::RunOutcome& outcome,
                       engine::Session* session) {
  Outputs out;
  out.exit_code = static_cast<uint32_t>(outcome.exit_code);
  out.stdout_text = outcome.stdout_text;
  for (const std::string& path : spec.output_files) {
    std::vector<uint8_t> bytes;
    session->fs().ReadFile(path, &bytes);
    out.files.emplace_back(path, std::move(bytes));
  }
  return out;
}

void ResetAndStage(engine::Session* session, const WorkloadSpec& spec) {
  session->Reset();
  if (spec.setup) {
    spec.setup(session->kernel());
  }
}

engine::InstanceOptions OptionsFor(const WorkloadSpec& spec) {
  engine::InstanceOptions options;
  options.argv = spec.argv;
  options.entry = spec.entry;
  options.fuel = spec.fuel;
  return options;
}

Module TrivialModule() {
  ModuleBuilder mb("empty");
  mb.AddFunction("main", {}, {ValType::kI32}).I32Const(0);
  return mb.Build();
}

void ProbeEmptyRun(engine::Engine* engine, engine::Session* session, int reps, Report* report) {
  engine::CompiledModuleRef code = engine->Compile(TrivialModule(), CodegenOptions::ChromeV8());
  std::vector<double>* samples = report->Samples("machine.empty_run_us");
  for (int i = 0; i < reps; i++) {
    report->attempted++;
    Timed t(samples, "machine.empty_run_us", "probe.empty_run", static_cast<uint64_t>(i));
    std::string error;
    std::unique_ptr<engine::Instance> inst = session->Instantiate(code, {}, &error);
    engine::RunOutcome out = inst != nullptr ? inst->Run() : engine::RunOutcome{};
    if (!out.ok || out.exit_code != 0) {
      report->Fail("empty run failed: " + (inst == nullptr ? error : out.error));
    }
  }
}

void AddEngineCounts(const engine::EngineStats& before, const engine::EngineStats& after,
                     Report* report) {
  auto add = [report](const char* name, uint64_t a, uint64_t b) {
    report->layer[name] += static_cast<double>(b - a);
  };
  add("engine.cache_hits", before.cache_hits, after.cache_hits);
  add("engine.cache_misses", before.cache_misses, after.cache_misses);
  add("engine.compiles", before.compiles, after.compiles);
  add("engine.disk_hits", before.disk_hits, after.disk_hits);
  add("engine.lock_waits", before.lock_waits, after.lock_waits);
  add("engine.verify_rejects", before.verify_rejects, after.verify_rejects);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
