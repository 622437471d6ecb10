// Predecode stage for the simulated CPU: lowers each MFunction into a dense
// DecodedProgram the machine executes under threaded dispatch.
//
// The legacy interpreter (SimMachine::ExecLegacy) re-derives everything per
// retired instruction: operand kinds (switches in read_int/write_int), the
// encoded byte size (EncodedSize's switch), the fetch address
// (code_base + instr_offsets[pc]), and branch targets. Predecoding resolves
// all of that once per code-cache entry:
//
//   - one record per instruction with a SPECIALIZED HANDLER ID — operand-kind
//     combinations are resolved at decode time (kAddRR vs kAddRM, ...); rare
//     shapes fall back to a kGeneric handler that runs the legacy body off
//     the original MInstr, so every op/operand combination stays bit-exact;
//   - precomputed fetch address, encoded size, and L1i line span (almost all
//     instructions fit one kCacheLineSize line, so the hot fetch is a single
//     inline CacheModel::Access instead of SimMachine::FetchL1i's line walk);
//   - fetch elision: a one-line fetch of the line that the record which must
//     have run just before it fetched last can only hit MRU slot 0 of its
//     L1i set, and a slot-0 hit writes no cache state, so such a fetch is
//     marked fetch_lines = 0 and the dispatch prologue skips the probe.
//     "Must have run just before": the record is not record 0 and not a
//     branch target, and the previous record is not a jmp, call, call-reg,
//     ret, or host call (a return site runs after the callee; a host hook may
//     touch the caches). A fused second fetch is checked against its
//     primary's last line. Retirement and fuel still run for every
//     instruction, so every PerfCounters field is unchanged;
//   - pre-truncated immediates and decoded [base+index*scale+disp] operands;
//   - branch targets resolved to decoded-record indices;
//   - fused `cmp|test + jcc` macro-ops: one record executes both, charging
//     fetches, retirement, fuel, and cycle costs exactly as the unfused pair
//     (and still writing the compare state, which later instructions may
//     read). A pair is only fused when the jcc is not itself a branch target.
//   - fused data pairs (mov-imm+mov, load+mov, mov+add) chosen from the
//     -DNSF_DISPATCH_STATS adjacent-pair table, under the same legality rule
//     (second element not a branch target) and the same counter contract
//     (both elements fetch, retire, and burn fuel exactly as when unfused).
//
//   - shifts by cl get their own handlers (ShlRC/ShrRC/SarRC), so kGeneric
//     is left with shapes that are rare on the suite;
//   - back edges marked at decode time (kFlagBackEdge) for the sampler.
//
// Dispatch is computed-goto (labels as values) on GCC/Clang; configuring with
// -DNSF_NO_COMPUTED_GOTO=ON (or building with a compiler without the
// extension) selects a portable switch over the same handler bodies. Both
// backends and the legacy interpreter produce bit-identical PerfCounters —
// tests/decode_test.cc holds them to that differentially.
//
// What keeps the computed-goto core threaded (SimMachine::ExecDecoded):
//   - one indirect jump per handler. GCC merges every `goto *` into a single
//     shared jump early and later re-duplicates only blocks of at most
//     max-goto-duplication-insns instructions (default 8), which left three
//     jumps for all handlers. CMakeLists.txt builds decode.cc with
//     --param=max-goto-duplication-insns=64, and CI fails if a Release
//     ExecDecoded has fewer than 100 `jmp *`;
//   - pointer stepping: a fall-through handler bumps the record pointer
//     (NSF_STEP) rather than recomputing code + index; only taken branches,
//     calls and returns index into `code` (NSF_NEXT);
//   - local tallies: the retire count and the handlers' own cycle charges
//     live in locals. NSF_SYNC writes them to counters_ before every return
//     and before a host hook runs, and the retire count is reloaded after
//     the hook, which may ResetCounters(). DataAccess, FetchL1i and
//     ExecGenericOp still charge counters_.micro_cycles directly; the charges
//     are additive, so the totals are unchanged.
#ifndef SRC_MACHINE_DECODE_H_
#define SRC_MACHINE_DECODE_H_

#include <cstdint>
#include <vector>

#include "src/x64/insts.h"

namespace nsf {

// Threaded dispatch backend selection: labels-as-values is a GNU extension;
// NSF_NO_COMPUTED_GOTO (CMake option of the same name) forces the portable
// switch so MSVC/strict builds and the CI matrix leg exercise that path.
#if !defined(NSF_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define NSF_COMPUTED_GOTO 1
#else
#define NSF_COMPUTED_GOTO 0
#endif

// The dispatch backend compiled into this binary ("computed-goto"/"switch");
// reported by bench/sim_throughput so perf trajectories name their engine.
const char* SimDispatchBackend();

// --- Round-2 data-pair fusion ---
//
// The round-2 superinstructions (mov-imm+mov, zero-extending load+mov,
// mov+add) came from the adjacent-pair table under a suspicion that as a
// group they cost interpreter wall clock (bigger handler bodies pushing the
// hot dispatch loop past the L1i sweet spot). Each shape was measured alone
// and together (predecoded-vs-legacy geomean over the 23-kernel PolyBench
// suite, min-of-3 walls, computed-goto dispatch): none 1.87x, mov-imm+mov
// alone 1.92x, load+mov alone 1.90x, mov+add alone 1.88x, all three 1.95x.
// Every shape wins individually and they compose, so all three are always
// fused; the suspected regression did not survive measurement. Fusion is
// decode-time only and cannot move PerfCounters: fused and unfused pairs
// fetch, retire, and charge cycles identically.

// Specialized handler ids. One X-macro list generates the enum, the
// computed-goto label table, and the switch cases — the three must agree on
// order, so there is exactly one source of truth.
//
// Naming: suffix letters are the resolved operand shapes (R = gpr, I = imm,
// M = mem, X = xmm, C = the count in cl), dst first. kGeneric runs the
// legacy body off the original MInstr for every shape not specialized here.
#define NSF_HANDLER_LIST(V)                                                 \
  /* control */                                                             \
  V(EndOfCode) V(Generic)                                                   \
  V(Jmp) V(Jcc) V(Call) V(CallReg) V(Ret)                                   \
  V(CallHostHook) V(CallHostTrap) V(CallHostMemSize) V(CallHostMemGrow)     \
  /* fused cmp|test + jcc macro-ops */                                      \
  V(FusedCmpJccRR) V(FusedCmpJccRI) V(FusedCmpJccRM)                        \
  V(FusedTestJccRR) V(FusedTestJccRI) V(FusedGenJcc)                        \
  /* fused data-movement/ALU pairs (round 2, from the adjacent-pair table) */\
  V(FusedMovRIMovRR) V(FusedLoadZMovRR) V(FusedMovRRAddRR)                  \
  /* data movement */                                                       \
  V(MovRR) V(MovRI) V(MovRM) V(MovMR) V(MovMI)                              \
  V(LoadZ) V(LoadS) V(StoreR) V(StoreI) V(Lea)                              \
  V(Push) V(Pop) V(Xchg)                                                    \
  /* integer ALU */                                                         \
  V(AddRR) V(AddRI) V(AddRM) V(SubRR) V(SubRI) V(SubRM)                     \
  V(AndRR) V(AndRI) V(AndRM) V(OrRR) V(OrRI) V(OrRM)                        \
  V(XorRR) V(XorRI) V(XorRM)                                                \
  V(ImulRR) V(ImulRI) V(ImulRM)                                             \
  V(NegR) V(NotR)                                                           \
  V(ShlRI) V(ShrRI) V(SarRI) V(ShlRC) V(ShrRC) V(SarRC)                     \
  V(CmpRR) V(CmpRI) V(CmpRM) V(TestRR) V(TestRI)                            \
  V(Setcc) V(Cdq) V(IdivR) V(DivR) V(MovsxdRR)                              \
  /* SSE scalar */                                                          \
  V(FpMovXX) V(FpMovXM) V(FpMovMX)                                          \
  V(AddsdXX) V(AddsdXM) V(SubsdXX) V(SubsdXM)                               \
  V(MulsdXX) V(MulsdXM) V(DivsdXX) V(DivsdXM)                               \
  V(SqrtsdXX) V(UcomisXX) V(Cvtsi2sdXR) V(Cvttsd2siRX)                      \
  V(MovqToXmm) V(MovqFromXmm)

enum class HOp : uint16_t {
#define NSF_H(name) k##name,
  NSF_HANDLER_LIST(NSF_H)
#undef NSF_H
      kCount,
};

const char* HOpName(HOp h);

// Decoded memory operand: MemRef with the optionals resolved to -1 sentinels
// so the effective-address computation is two predictable branches.
struct DMem {
  int8_t base = -1;   // gpr index, -1 = absent
  int8_t index = -1;  // gpr index, -1 = absent
  uint8_t scale = 1;
  int32_t disp = 0;
};

// One decoded record. Fused pairs occupy one record; `orig` points at the
// primary original MInstr (the cmp of a fused pair) for the generic fallback
// bodies and diagnostics.
struct DInstr {
  uint16_t handler = 0;     // HOp
  uint8_t width = 8;        // operation width in bytes
  uint8_t a = 0;            // dst gpr/xmm index
  uint8_t b = 0;            // src gpr/xmm index
  uint8_t cond = 0;         // Cond (jcc/setcc, incl. the fused jcc)
  uint8_t flags = 0;        // kFlagSignExtend | kFlagBackEdge
  uint8_t fetch_lines = 1;  // L1i lines spanned by this fetch; 0 = elided, must hit
  uint64_t fetch_addr = 0;  // code_base + instr_offsets[pc]
  uint32_t fetch_size = 0;  // EncodedSize(instr)
  uint32_t target = 0;      // branch: decoded index; call: func; host: hook id
  int64_t imm = 0;          // pre-truncated immediate / shift count / trap kind
  DMem mem;                 // the (at most one) memory operand
  // Fused second element (the jcc): its own fetch record.
  uint64_t fetch_addr2 = 0;
  uint32_t fetch_size2 = 0;
  uint8_t fetch_lines2 = 1;  // as fetch_lines, against the primary's last line
  const MInstr* orig = nullptr;  // original primary instruction

  static constexpr uint8_t kFlagSignExtend = 1;
  // Jmp, Jcc or fused-jcc record whose target index is <= its own: the
  // sampling hook's back-edge test, resolved at predecode.
  static constexpr uint8_t kFlagBackEdge = 2;
};

struct DecodedFunc {
  // Decoded records in original order (fused pairs collapsed), terminated by
  // one kEndOfCode sentinel — running off the end lands on it and raises the
  // same "pc out of range" trap the legacy loop's bounds check does, without
  // a per-instruction check.
  std::vector<DInstr> code;
  // Original pc -> decoded index (second elements of fused pairs map to their
  // pair's record). Size code.size()+... = original instruction count.
  std::vector<uint32_t> pc_to_index;
};

// Decode statistics, surfaced by bench/sim_throughput.
struct DecodeStats {
  uint64_t instrs = 0;       // original instructions decoded
  uint64_t records = 0;      // decoded records emitted (excl. sentinels)
  uint64_t fused_pairs = 0;  // cmp|test+jcc and data pairs collapsed
  uint64_t generic = 0;      // records using the kGeneric/kFusedGenJcc bodies
};

// The predecoded form of one linked MProgram. References `program` (for
// function names, host-hook tables, and the generic fallback's MInstrs):
// the program must outlive the DecodedProgram. engine::CompiledModule owns
// both, so predecode is paid once per code-cache entry — a backend compile or
// a disk-tier artifact load — never per Instance or per run.
struct DecodedProgram {
  const MProgram* program = nullptr;
  std::vector<DecodedFunc> funcs;
  DecodeStats stats;
};

// Lowers `program` (must be Link()ed: fetch addresses come from
// code_base/instr_offsets). Deterministic; safe to share across threads once
// built (immutable afterwards).
DecodedProgram Predecode(const MProgram& program);

// --- Dynamic dispatch statistics (-DNSF_DISPATCH_STATS=ON) ---
//
// Per-handler retire counts in the threaded interpreter, for ranking which
// specializations/fusions to build next (bench/sim_throughput prints the
// top-N table). Compiled OUT by default: the dispatch loop's prologue gains
// one non-atomic array increment only under the build flag, and a
// differential test holds PerfCounters bit-identical either way. Each
// SimMachine counts locally and folds into a process-wide atomic table on
// destruction; a fused macro-op counts once for its fused handler.

// True when this binary was built with -DNSF_DISPATCH_STATS=ON.
bool DispatchStatsEnabled();

// One handler's aggregate across all destroyed machines in this process.
struct DispatchStat {
  HOp handler = HOp::kCount;
  const char* name = "?";
  uint64_t retires = 0;
};

// One ADJACENT handler pair's aggregate: `second` retired immediately after
// `first` in the dispatch loop (straight-line or via a taken branch). This is
// the table superinstruction selection reads: a hot (first, second) pair
// whose second element is never a branch target is a fusion candidate.
struct DispatchPairStat {
  HOp first = HOp::kCount;
  HOp second = HOp::kCount;
  const char* first_name = "?";
  const char* second_name = "?";
  uint64_t count = 0;
};

// All handlers with a nonzero count, sorted by retires descending. Empty
// when the flag is off or nothing ran.
std::vector<DispatchStat> DispatchStatsSnapshot();
// All adjacent pairs with a nonzero count, sorted descending. Empty when the
// flag is off or nothing ran.
std::vector<DispatchPairStat> DispatchPairsSnapshot();
void ResetDispatchStats();

// Folds one machine's local counts (indexed by HOp) into the global table.
// No-op when the flag is off.
void AccumulateDispatchStats(const uint64_t* counts);
// Folds one machine's local pair counts (first * kMaxDispatchHandlers +
// second) into the global pair table. No-op when the flag is off.
void AccumulateDispatchPairs(const uint64_t* counts);

// Upper bound on handler ids, for embedding a fixed-size local count array
// without pulling HOp::kCount into machine.h (decode.cc static_asserts that
// kCount fits).
inline constexpr size_t kMaxDispatchHandlers = 128;

}  // namespace nsf

#endif  // SRC_MACHINE_DECODE_H_
