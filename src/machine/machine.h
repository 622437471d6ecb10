// The simulated CPU that executes MPrograms and maintains architectural
// performance counters — the stand-in for the paper's Xeon + `perf` setup.
//
// Two dispatch paths execute the same ISA with bit-identical PerfCounters:
//   - kPredecoded (default): a DecodedProgram (src/machine/decode.h) run
//     under threaded dispatch — computed goto where available, a portable
//     switch behind NSF_NO_COMPUTED_GOTO. This is the fast path every
//     engine::Instance uses.
//   - kLegacy: the original giant-switch interpreter over raw MInstrs, kept
//     as the reference semantics for the differential suite
//     (tests/decode_test.cc) and the bench/sim_throughput speedup baseline.
//
// Address-space layout (all code agrees on these):
//   [kStackBase,  kStackBase + kStackSize)   native call stack (rsp herein)
//   [kGlobalsBase, ...)                      Wasm globals, 8 bytes per slot
//   [kTableBase,  ...)                       indirect-call table image,
//                                            8 bytes per entry: sig_id,func
//   [kHeapBase,   kHeapBase + memory)        Wasm linear memory
#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/machine/cache.h"
#include "src/support/str.h"
#include "src/wasm/trap.h"
#include "src/x64/insts.h"

namespace nsf {

struct DecodedProgram;
struct DInstr;
class SampledProfile;

inline constexpr uint64_t kStackBase = 0x00100000;
inline constexpr uint64_t kStackSize = 8 * 1024 * 1024;
inline constexpr uint64_t kGlobalsBase = 0x04000000;
inline constexpr uint64_t kTableBase = 0x05000000;
inline constexpr uint64_t kHeapBase = 0x10000000;

// Default execution budget when set_fuel was never called (see SimMachine).
inline constexpr uint64_t kSimDefaultFuel = 200ull * 1000 * 1000 * 1000;

// Builtin host-hook ids handled by the machine itself.
inline constexpr uint32_t kBuiltinMemorySize = 0xffff0000;
inline constexpr uint32_t kBuiltinMemoryGrow = 0xffff0001;
// Trap builtins: generated check sequences branch to stubs invoking these.
inline constexpr uint32_t kBuiltinTrapUnreachable = 0xffff0002;
inline constexpr uint32_t kBuiltinTrapStack = 0xffff0003;
inline constexpr uint32_t kBuiltinTrapOob = 0xffff0004;
inline constexpr uint32_t kBuiltinTrapNull = 0xffff0005;
inline constexpr uint32_t kBuiltinTrapSig = 0xffff0006;

// Cycle cost model, in quarter-cycle units (micro-units). The defaults model
// a modest out-of-order core at ~2 IPC for simple ops; ablation benches
// override individual entries.
struct CostModel {
  uint32_t simple = 2;        // mov/alu/lea/cmp/test/setcc/push/pop
  uint32_t load = 4;          // L1-hit load
  uint32_t store = 2;
  uint32_t imul = 6;
  uint32_t idiv = 80;
  uint32_t fp_simple = 8;     // addsd/subsd/mulsd/cvt/min/max/round
  uint32_t fp_div = 52;
  uint32_t fp_sqrt = 64;
  uint32_t fp_mov = 2;
  uint32_t branch = 2;        // not-taken jcc / jmp issue
  uint32_t branch_taken_extra = 4;  // front-end bubble for taken branches
  uint32_t call = 10;
  uint32_t ret = 10;
  uint32_t host_call = 160;   // context switch into host (40 cycles)
  uint32_t l1_miss = 48;      // +12 cycles to L2
  uint32_t l2_miss = 132;     // further +33 cycles to memory
  uint32_t clock_ghz = 35;    // *0.1 GHz: 35 => 3.5 GHz (paper's Xeon E5-1650v3)
};

// The counter set of the paper's Table 3.
struct PerfCounters {
  uint64_t instructions_retired = 0;
  uint64_t micro_cycles = 0;  // quarter-cycles
  uint64_t loads_retired = 0;
  uint64_t stores_retired = 0;
  uint64_t branches_retired = 0;       // jmp + jcc + call + ret
  uint64_t cond_branches_retired = 0;  // jcc only
  uint64_t taken_branches = 0;
  uint64_t calls = 0;
  uint64_t l1i_misses = 0;
  uint64_t l1d_misses = 0;
  uint64_t l2_misses = 0;

  uint64_t cycles() const { return micro_cycles / 4; }

  PerfCounters operator-(const PerfCounters& other) const;
  PerfCounters& operator+=(const PerfCounters& other);
  bool operator==(const PerfCounters& other) const = default;
};

struct MachineResult {
  bool ok = false;
  TrapKind trap = TrapKind::kNone;
  std::string error;
  uint64_t ret_i = 0;   // rax on return
  double ret_f = 0.0;   // xmm0 on return
};

// Which interpreter core executes the program.
enum class SimDispatch : uint8_t {
  kPredecoded,  // decoded stream, threaded dispatch (default)
  kLegacy,      // pre-predecode switch interpreter (reference semantics)
};

class SimMachine;
// A host hook reads arguments from registers/memory and writes results back.
using HostHook = std::function<void(SimMachine&)>;

// Recycles the big simulated-memory buffers (the 8 MB stack, the Wasm heap,
// globals, and the table image) across SimMachine constructions: a machine
// built from a pool takes the previous run's buffers — already scrubbed back
// to zero on release, and only over the ranges that run actually dirtied —
// instead of page-faulting fresh allocations every run. Single-slot and
// deliberately not thread-safe: the Session that owns it runs one machine at
// a time (each ExecutorPool worker has its own Session, hence its own pool).
class SimBufferPool {
 public:
  uint64_t acquires() const { return acquires_; }
  // Acquisitions that found recycled buffers (0 on the first run).
  uint64_t reuses() const { return reuses_; }

 private:
  friend class SimMachine;
  std::vector<uint8_t> stack_;
  std::vector<uint8_t> heap_;
  std::vector<uint8_t> table_;
  std::vector<uint64_t> globals_;
  bool has_buffers_ = false;
  uint64_t acquires_ = 0;
  uint64_t reuses_ = 0;
};

class SimMachine {
 public:
  explicit SimMachine(const MProgram* program, CostModel cost = CostModel());

  // Engine path: executes `decoded` (which references its MProgram; both must
  // outlive the machine), borrowing buffers from `pool` when non-null.
  // Either argument may be null: a null `decoded` predecodes lazily on the
  // first non-legacy Run, a null `pool` allocates fresh buffers.
  SimMachine(const MProgram* program, const DecodedProgram* decoded, SimBufferPool* pool,
             CostModel cost = CostModel());

  ~SimMachine();
  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

  // Registers a host hook for kCallHost index `idx` (dense, small indices).
  void RegisterHost(uint32_t idx, HostHook hook);

  // Runs function `func_index` with up to 6 integer args (SysV order:
  // rdi, rsi, rdx, rcx, r8, r9). FP args can be set through xmm() first.
  MachineResult Run(uint32_t func_index, const std::vector<uint64_t>& int_args = {});

  // Runs `func_index` under the compiled-code ABI: stack arguments staged by
  // the caller at `args_base` (see WriteStack); rsp is set to args_base - 8,
  // as if a call instruction had just pushed the return address.
  MachineResult RunAt(uint32_t func_index, uint64_t args_base);

  // Writes 8 bytes into the simulated stack region (not performance-counted);
  // used to stage arguments for RunAt.
  void WriteStack(uint64_t addr, uint64_t bits);

  // Selects the interpreter core for subsequent Run/RunAt calls. Both modes
  // produce bit-identical PerfCounters; kLegacy exists as the differential
  // reference and perf baseline.
  void set_dispatch(SimDispatch dispatch) { dispatch_ = dispatch; }
  SimDispatch dispatch() const { return dispatch_; }

  // --- Register access (for hooks and tests) ---
  uint64_t gpr(Gpr r) const { return gprs_[static_cast<uint8_t>(r)]; }
  void set_gpr(Gpr r, uint64_t v) { gprs_[static_cast<uint8_t>(r)] = v; }
  uint64_t xmm_bits(Xmm r) const { return xmms_[static_cast<uint8_t>(r)]; }
  void set_xmm_bits(Xmm r, uint64_t v) { xmms_[static_cast<uint8_t>(r)] = v; }
  double xmm_f64(Xmm r) const;
  void set_xmm_f64(Xmm r, double v);

  // --- Memory access (modeled, but *not* counted — host/syscall side) ---
  // Reads/writes the Wasm heap by Wasm address (0-based).
  bool HeapRead(uint32_t addr, void* out, uint32_t size) const;
  bool HeapWrite(uint32_t addr, const void* data, uint32_t size);
  uint32_t heap_pages() const { return static_cast<uint32_t>(heap_.size() / 65536); }
  std::vector<uint8_t>& heap() {
    // The caller can now write anywhere, any time: the pool scrub must treat
    // the whole heap as dirtied.
    heap_exposed_ = true;
    return heap_;
  }

  uint64_t global_bits(uint32_t slot) const { return globals_[slot]; }
  void set_global_bits(uint32_t slot, uint64_t v) { globals_[slot] = v; }

  const PerfCounters& counters() const { return counters_; }
  void ResetCounters();

  // Charges `cycles` full cycles to the run (used by the kernel to model
  // syscall transport costs) and tracks them separately as "browsix time".
  void ChargeHostCycles(uint64_t cycles);
  uint64_t host_micro_cycles() const { return host_micro_cycles_; }

  // Execution budget in retired instructions (0 = default 200G safety cap).
  void set_fuel(uint64_t fuel) { fuel_ = fuel; }

  // Sampled always-on profiling (continuous tiering): every `period`-th
  // back-edge/call in the predecoded interpreter records one sample into
  // machine-local count vectors, folded into `sink` on destruction. period
  // == 0 (the default) disables sampling entirely — the hot path then pays
  // one predictable compare per back-edge/call and PerfCounters are
  // untouched either way. Deterministic: same program + same period =>
  // identical counts.
  void set_sampler(SampledProfile* sink, uint32_t period);
  uint32_t sample_period() const { return sample_period_; }

  // Wall-clock seconds implied by the cost model's clock.
  double SecondsFromCycles(uint64_t cycles) const {
    return static_cast<double>(cycles) / (static_cast<double>(cost_.clock_ghz) * 1e8);
  }

  const CostModel& cost_model() const { return cost_; }

 private:
  struct Frame {
    uint32_t func = 0;
    uint32_t ret_pc = 0;  // original pc (legacy) or decoded index (predecoded)
  };

  // Memory routing: translates a simulated address to a host pointer, or
  // nullptr when out of range.
  uint8_t* MemPtr(uint64_t addr, uint32_t size) {
    if (addr >= kHeapBase) {
      uint64_t off = addr - kHeapBase;
      if (off + size <= heap_.size()) {
        return heap_.data() + off;
      }
      return nullptr;
    }
    if (addr >= kTableBase) {
      uint64_t off = addr - kTableBase;
      if (off + size <= table_image_.size()) {
        return table_image_.data() + off;
      }
      return nullptr;
    }
    if (addr >= kGlobalsBase) {
      uint64_t off = addr - kGlobalsBase;
      if (off + size <= globals_.size() * 8) {
        return reinterpret_cast<uint8_t*>(globals_.data()) + off;
      }
      return nullptr;
    }
    if (addr >= kStackBase) {
      uint64_t off = addr - kStackBase;
      if (off + size <= stack_.size()) {
        return stack_.data() + off;
      }
      return nullptr;
    }
    return nullptr;
  }

  // Pool-scrub bookkeeping: remembers which byte ranges a run dirtied so the
  // destructor only memsets those, not the whole 8 MB + heap.
  void NoteStore(uint64_t addr, uint32_t size) {
    if (addr >= kHeapBase) {
      uint64_t off = addr - kHeapBase;
      if (off < heap_dirty_lo_) {
        heap_dirty_lo_ = off;
      }
      if (off + size > heap_dirty_hi_) {
        heap_dirty_hi_ = off + size;
      }
    } else if (addr < kGlobalsBase) {
      uint64_t off = addr - kStackBase;
      if (off < stack_dirty_lo_) {
        stack_dirty_lo_ = off;
      }
    }
  }

  // Data access shared by both dispatch paths: routes, counts, charges cache
  // penalties. Inline — this is the hottest helper in the simulator.
  bool DataAccess(uint64_t addr, uint32_t size, bool is_store, uint8_t** out) {
    uint8_t* p = MemPtr(addr, size);
    if (p == nullptr) {
      pending_trap_ = TrapKind::kMemoryOutOfBounds;
      trap_msg_ = StrFormat("data access at 0x%llx size %u", (unsigned long long)addr, size);
      return false;
    }
    if (is_store) {
      counters_.stores_retired++;
      counters_.micro_cycles += cost_.store;
      NoteStore(addr, size);
    } else {
      counters_.loads_retired++;
      counters_.micro_cycles += cost_.load;
    }
    if (!l1d_.Access(addr)) {
      counters_.l1d_misses++;
      counters_.micro_cycles += cost_.l1_miss;
      if (!l2_.Access(addr)) {
        counters_.l2_misses++;
        counters_.micro_cycles += cost_.l2_miss;
      }
    }
    *out = p;
    return true;
  }

  uint64_t EffectiveAddr(const MemRef& m) const;
  bool EvalCond(Cond c) const;

  // Operand accessors for the legacy/generic bodies (operand-kind switches).
  bool ReadInt(const Operand& o, uint8_t width, uint64_t* out);
  bool WriteInt(const Operand& o, uint8_t width, uint64_t v);
  bool ReadFpBits(const Operand& o, uint8_t width, uint64_t* out);
  bool WriteFpBits(const Operand& o, uint8_t width, uint64_t v);

  // Instruction fetch through the L1i model for a possibly multi-line span;
  // each line that misses L1i is probed in L2. The legacy core calls it for
  // every fetch; the predecoded path inlines the single-line case and skips
  // fetches predecode proved to be slot-0 hits (DInstr::fetch_lines == 0),
  // so it only calls this for fetches spanning two or more lines.
  void FetchL1i(uint64_t addr, uint32_t size);

  // rdx:rax division convention shared by both paths. False on trap.
  bool DivOp(bool is_signed, uint8_t width, uint64_t divisor);
  // Truncating float->int with Wasm trap semantics. False on trap.
  bool TruncFloatToInt(double v, uint8_t width, bool sign_extend, uint64_t* out);

  // Executes one NON-control-flow instruction's legacy body (cost charge +
  // semantics; fetch/retire/fuel are the caller's). False on trap. This is
  // the single source of truth the predecoded kGeneric handler and the
  // legacy loop share for every un-specialized shape.
  bool ExecGenericOp(const MInstr& instr);

  TrapKind ExecLegacy();    // pre-predecode switch interpreter
  TrapKind ExecDecoded();   // threaded dispatch over decoded_ (decode.cc)
  void EnsureDecoded();

  void InitMemory(SimBufferPool* pool);
  void ReleaseBuffers();  // scrub dirtied ranges, hand buffers back to pool_

  const MProgram* program_;
  const DecodedProgram* decoded_ = nullptr;
  std::unique_ptr<DecodedProgram> owned_decoded_;
  SimBufferPool* pool_ = nullptr;
  SimDispatch dispatch_ = SimDispatch::kPredecoded;
  CostModel cost_;
  uint64_t gprs_[16] = {};
  uint64_t xmms_[16] = {};

  // Compare state (set by cmp/test/ucomis*).
  enum class CmpKind : uint8_t { kInt, kTest, kFloat };
  CmpKind cmp_kind_ = CmpKind::kInt;
  int64_t cmp_sa_ = 0, cmp_sb_ = 0;
  uint64_t cmp_ua_ = 0, cmp_ub_ = 0;
  uint64_t cmp_test_ = 0;
  bool cmp_test_sign_ = false;
  bool fp_unordered_ = false, fp_equal_ = false, fp_less_ = false;

  std::vector<uint8_t> stack_;
  std::vector<uint8_t> heap_;
  uint32_t max_heap_pages_ = 65536;
  std::vector<uint64_t> globals_;
  std::vector<uint8_t> table_image_;
  std::vector<HostHook> hooks_;

  // Dirty tracking for the pool scrub (see NoteStore / ReleaseBuffers).
  uint64_t stack_dirty_lo_ = kStackSize;
  uint64_t heap_dirty_lo_ = UINT64_MAX;
  uint64_t heap_dirty_hi_ = 0;
  bool heap_exposed_ = false;

  std::vector<Frame> frames_;
  uint32_t cur_func_ = 0;
  uint32_t pc_ = 0;

  // L1i is scaled to 4 KB: our workloads are size-reduced SPEC equivalents,
  // so the cache is shrunk proportionally to preserve the paper's
  // code-size-vs-L1i pressure (Fig 10). L1d/L2 keep desktop sizes.
  CacheModel l1i_{4 * 1024, kCacheLineSize, 8};
  CacheModel l1d_{32 * 1024, kCacheLineSize, 8};
  CacheModel l2_{512 * 1024, kCacheLineSize, 8};

  PerfCounters counters_;
  uint64_t host_micro_cycles_ = 0;
  uint64_t fuel_ = 0;
  TrapKind pending_trap_ = TrapKind::kNone;
  std::string trap_msg_;

  // Sampling state (see set_sampler). The countdown and per-function count
  // vectors are machine-local plain integers — the decoded dispatch loop
  // never touches shared state; the destructor folds into sample_sink_'s
  // atomics (the dispatch-stats pattern).
  SampledProfile* sample_sink_ = nullptr;
  uint32_t sample_period_ = 0;
  uint32_t sample_tick_ = 0;
  std::vector<uint64_t> sample_entries_;    // per machine function: call samples
  std::vector<uint64_t> sample_backedges_;  // per machine function: back-edge samples
  // Out-of-line cold slice of the sampling hook: re-arms the countdown and
  // bumps the local count. Called once every `sample_period_` events.
  void RecordSample(uint32_t func, bool backedge);

#ifdef NSF_DISPATCH_STATS
  // Per-handler retire counts, indexed by HOp (decode.h). 128 mirrors
  // decode.h's kMaxDispatchHandlers (machine.h only forward-declares the
  // decode types; decode.cc static_asserts the two agree). Non-atomic —
  // folded into the process-wide table by the destructor.
  uint64_t dispatch_retires_[128] = {};
  // Adjacent-pair retires (first * 128 + second) — the superinstruction
  // candidate table. 128 KiB per machine, stats builds only.
  uint64_t dispatch_pairs_[128 * 128] = {};
#endif
};

}  // namespace nsf

#endif  // SRC_MACHINE_MACHINE_H_
