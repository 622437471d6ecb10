// Predecode (MFunction -> DecodedFunc) and the threaded-dispatch execution
// core (SimMachine::ExecDecoded). See decode.h for the design contract; the
// invariant that matters everywhere below is BIT-IDENTICAL PerfCounters with
// SimMachine::ExecLegacy — same fetch sequence through the L1i model, same
// retirement/fuel order, same cycle charges, same data-access order on trap
// paths. tests/decode_test.cc enforces this differentially.
#include "src/machine/decode.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "src/machine/bits.h"
#include "src/machine/cache.h"
#include "src/machine/machine.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace nsf {

static_assert(static_cast<size_t>(HOp::kCount) <= kMaxDispatchHandlers,
              "grow kMaxDispatchHandlers (and SimMachine::dispatch_retires_)");

// --- Dynamic dispatch statistics (see decode.h) ---
//
// Machines count into a plain per-machine array (no atomics in the dispatch
// loop); ~SimMachine folds it into this process-wide table.

#ifdef NSF_DISPATCH_STATS
namespace {
std::atomic<uint64_t> g_dispatch_retires[kMaxDispatchHandlers] = {};
// Adjacent-pair retires, indexed first * kMaxDispatchHandlers + second.
// Heap-allocated once (128 KiB) instead of static so unused stats builds of
// short-lived tools don't page it in.
std::atomic<uint64_t>* PairTable() {
  static std::atomic<uint64_t>* table =
      new std::atomic<uint64_t>[kMaxDispatchHandlers * kMaxDispatchHandlers]();
  return table;
}
}  // namespace
#endif

bool DispatchStatsEnabled() {
#ifdef NSF_DISPATCH_STATS
  return true;
#else
  return false;
#endif
}

void AccumulateDispatchStats(const uint64_t* counts) {
#ifdef NSF_DISPATCH_STATS
  for (size_t i = 0; i < static_cast<size_t>(HOp::kCount); i++) {
    if (counts[i] != 0) {
      g_dispatch_retires[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
#else
  (void)counts;
#endif
}

void AccumulateDispatchPairs(const uint64_t* counts) {
#ifdef NSF_DISPATCH_STATS
  std::atomic<uint64_t>* table = PairTable();
  for (size_t f = 0; f < static_cast<size_t>(HOp::kCount); f++) {
    for (size_t s = 0; s < static_cast<size_t>(HOp::kCount); s++) {
      size_t i = f * kMaxDispatchHandlers + s;
      if (counts[i] != 0) {
        table[i].fetch_add(counts[i], std::memory_order_relaxed);
      }
    }
  }
#else
  (void)counts;
#endif
}

std::vector<DispatchPairStat> DispatchPairsSnapshot() {
  std::vector<DispatchPairStat> out;
#ifdef NSF_DISPATCH_STATS
  std::atomic<uint64_t>* table = PairTable();
  for (size_t f = 0; f < static_cast<size_t>(HOp::kCount); f++) {
    for (size_t s = 0; s < static_cast<size_t>(HOp::kCount); s++) {
      uint64_t n = table[f * kMaxDispatchHandlers + s].load(std::memory_order_relaxed);
      if (n != 0) {
        DispatchPairStat p;
        p.first = static_cast<HOp>(f);
        p.second = static_cast<HOp>(s);
        p.first_name = HOpName(p.first);
        p.second_name = HOpName(p.second);
        p.count = n;
        out.push_back(p);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const DispatchPairStat& a, const DispatchPairStat& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
#endif
  return out;
}

std::vector<DispatchStat> DispatchStatsSnapshot() {
  std::vector<DispatchStat> out;
#ifdef NSF_DISPATCH_STATS
  for (size_t i = 0; i < static_cast<size_t>(HOp::kCount); i++) {
    uint64_t n = g_dispatch_retires[i].load(std::memory_order_relaxed);
    if (n != 0) {
      HOp h = static_cast<HOp>(i);
      out.push_back(DispatchStat{h, HOpName(h), n});
    }
  }
  std::sort(out.begin(), out.end(), [](const DispatchStat& a, const DispatchStat& b) {
    if (a.retires != b.retires) return a.retires > b.retires;
    return a.handler < b.handler;
  });
#endif
  return out;
}

void ResetDispatchStats() {
#ifdef NSF_DISPATCH_STATS
  for (auto& c : g_dispatch_retires) {
    c.store(0, std::memory_order_relaxed);
  }
  std::atomic<uint64_t>* table = PairTable();
  for (size_t i = 0; i < kMaxDispatchHandlers * kMaxDispatchHandlers; i++) {
    table[i].store(0, std::memory_order_relaxed);
  }
#endif
}

const char* SimDispatchBackend() {
#if NSF_COMPUTED_GOTO
  return "computed-goto";
#else
  return "switch";
#endif
}

const char* HOpName(HOp h) {
  switch (h) {
#define NSF_H(name)   \
  case HOp::k##name:  \
    return #name;
    NSF_HANDLER_LIST(NSF_H)
#undef NSF_H
    default:
      return "?";
  }
}

namespace {

int8_t OptReg(const std::optional<Gpr>& r) {
  return r.has_value() ? static_cast<int8_t>(static_cast<uint8_t>(*r)) : int8_t{-1};
}

DMem LowerMem(const MemRef& m) {
  DMem d;
  d.base = OptReg(m.base);
  d.index = OptReg(m.index);
  d.scale = m.scale;
  d.disp = m.disp;
  return d;
}

uint8_t LineSpan(uint64_t addr, uint32_t size) {
  return static_cast<uint8_t>(LastLineOf(addr, size) - LineOf(addr) + 1);
}

// Whether the record after a (non-target) record with handler `h` can only
// be reached straight from it, with no L1i access in between. Not after a
// call (the return site runs after the callee), a ret or jmp (nothing falls
// through), or any host call (a hook may run arbitrary code, including a
// cache reset).
bool FallsThroughToNext(HOp h) {
  switch (h) {
    case HOp::kJmp:
    case HOp::kCall:
    case HOp::kCallReg:
    case HOp::kRet:
    case HOp::kCallHostHook:
    case HOp::kCallHostTrap:
    case HOp::kCallHostMemSize:
    case HOp::kCallHostMemGrow:
      return false;
    default:
      return true;
  }
}

// Records whose `target` is a decoded branch target: jmp, jcc, and the fused
// cmp|test + jcc macro-ops.
bool IsBranchRecord(HOp h) {
  switch (h) {
    case HOp::kJmp:
    case HOp::kJcc:
    case HOp::kFusedCmpJccRR:
    case HOp::kFusedCmpJccRI:
    case HOp::kFusedCmpJccRM:
    case HOp::kFusedTestJccRR:
    case HOp::kFusedTestJccRI:
    case HOp::kFusedGenJcc:
      return true;
    default:
      return false;
  }
}

uint64_t DAddr(const uint64_t* gprs, const DMem& m) {
  uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(m.disp));
  if (m.base >= 0) {
    addr += gprs[m.base];
  }
  if (m.index >= 0) {
    addr += gprs[m.index] * m.scale;
  }
  return addr;
}

bool IsR(const Operand& o) { return o.kind == OperandKind::kGpr; }
bool IsI(const Operand& o) { return o.kind == OperandKind::kImm; }
bool IsM(const Operand& o) { return o.kind == OperandKind::kMem; }
bool IsX(const Operand& o) { return o.kind == OperandKind::kXmm; }

void Use(DInstr* d, HOp h) { d->handler = static_cast<uint16_t>(h); }

// Resolves the cmp|test primary of a fused pair to its Fused* handler.
void LowerFusedPrimary(const MInstr& in, DInstr* d) {
  d->width = in.width;
  if (in.op == MOp::kCmp) {
    if (IsR(in.dst) && IsR(in.src)) {
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->b = static_cast<uint8_t>(in.src.gpr);
      Use(d, HOp::kFusedCmpJccRR);
      return;
    }
    if (IsR(in.dst) && IsI(in.src)) {
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->imm = static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
      Use(d, HOp::kFusedCmpJccRI);
      return;
    }
    if (IsR(in.dst) && IsM(in.src)) {
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->mem = LowerMem(in.src.mem);
      Use(d, HOp::kFusedCmpJccRM);
      return;
    }
  } else {  // kTest
    if (IsR(in.dst) && IsR(in.src)) {
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->b = static_cast<uint8_t>(in.src.gpr);
      Use(d, HOp::kFusedTestJccRR);
      return;
    }
    if (IsR(in.dst) && IsI(in.src)) {
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->imm = static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
      Use(d, HOp::kFusedTestJccRI);
      return;
    }
  }
  Use(d, HOp::kFusedGenJcc);
}

// Round-2 data-pair fusion: the handler for adjacent (first, second), or
// kCount when the pair is not one of the fused shapes. The shape tests must
// agree exactly with LowerOne's specialization rules — a pair is only fused
// when both elements would have lowered to the specialized handlers the
// fused body replicates (see decode.h for the measured verdict that keeps
// all three shapes).
HOp DataPairHandler(const MInstr& a, const MInstr& b) {
  auto is_mov_rr = [](const MInstr& in) {
    return (in.op == MOp::kMov || in.op == MOp::kMovImm64) && IsR(in.dst) && IsR(in.src);
  };
  if (is_mov_rr(b)) {
    if ((a.op == MOp::kMov || a.op == MOp::kMovImm64) && IsR(a.dst) && IsI(a.src)) {
      return HOp::kFusedMovRIMovRR;
    }
    if (a.op == MOp::kLoad && IsR(a.dst) && IsM(a.src) && !a.sign_extend) {
      return HOp::kFusedLoadZMovRR;
    }
  }
  if (is_mov_rr(a) && b.op == MOp::kAdd && IsR(b.dst) && IsR(b.src)) {
    return HOp::kFusedMovRRAddRR;
  }
  return HOp::kCount;
}

// Lowers a fused data pair into one record. The first element's operands use
// the regular fields; the second element is always reg-reg and packs into the
// (branch-free) target field as dst | src << 8 | width << 16.
void LowerFusedDataPair(const MInstr& first, const MInstr& second, DInstr* d) {
  HOp h = DataPairHandler(first, second);
  d->width = first.width;
  switch (h) {
    case HOp::kFusedMovRIMovRR:
      d->a = static_cast<uint8_t>(first.dst.gpr);
      d->imm =
          static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(first.src.imm), first.width));
      break;
    case HOp::kFusedLoadZMovRR:
      d->a = static_cast<uint8_t>(first.dst.gpr);
      d->mem = LowerMem(first.src.mem);
      break;
    default:  // kFusedMovRRAddRR
      d->a = static_cast<uint8_t>(first.dst.gpr);
      d->b = static_cast<uint8_t>(first.src.gpr);
      break;
  }
  d->target = static_cast<uint32_t>(static_cast<uint8_t>(second.dst.gpr)) |
              (static_cast<uint32_t>(static_cast<uint8_t>(second.src.gpr)) << 8) |
              (uint32_t{second.width} << 16);
  Use(d, h);
}

// Resolves one unfused instruction to its specialized handler, or kGeneric.
// Control flow always gets a dedicated handler (the generic body cannot steer
// the decoded pc); `map_label` converts an original-pc label to a decoded
// index. kCallHost is split per builtin so the hot path never re-tests ids.
template <typename MapLabel>
void LowerOne(const MInstr& in, DInstr* d, const MapLabel& map_label) {
  d->width = in.width;
  if (in.sign_extend) {
    d->flags |= DInstr::kFlagSignExtend;
  }
  switch (in.op) {
    case MOp::kJmp:
      d->target = map_label(in.label);
      Use(d, HOp::kJmp);
      return;
    case MOp::kJcc:
      d->cond = static_cast<uint8_t>(in.cond);
      d->target = map_label(in.label);
      Use(d, HOp::kJcc);
      return;
    case MOp::kCall:
      d->target = in.func;
      Use(d, HOp::kCall);
      return;
    case MOp::kCallReg:
      d->a = static_cast<uint8_t>(in.dst.gpr);
      Use(d, HOp::kCallReg);
      return;
    case MOp::kRet:
      Use(d, HOp::kRet);
      return;
    case MOp::kCallHost:
      switch (in.func) {
        case kBuiltinTrapUnreachable:
          d->imm = static_cast<int64_t>(TrapKind::kUnreachable);
          Use(d, HOp::kCallHostTrap);
          return;
        case kBuiltinTrapStack:
          d->imm = static_cast<int64_t>(TrapKind::kCallStackExhausted);
          Use(d, HOp::kCallHostTrap);
          return;
        case kBuiltinTrapOob:
          d->imm = static_cast<int64_t>(TrapKind::kIndirectCallOutOfBounds);
          Use(d, HOp::kCallHostTrap);
          return;
        case kBuiltinTrapNull:
          d->imm = static_cast<int64_t>(TrapKind::kIndirectCallNull);
          Use(d, HOp::kCallHostTrap);
          return;
        case kBuiltinTrapSig:
          d->imm = static_cast<int64_t>(TrapKind::kIndirectCallTypeMismatch);
          Use(d, HOp::kCallHostTrap);
          return;
        case kBuiltinMemorySize:
          Use(d, HOp::kCallHostMemSize);
          return;
        case kBuiltinMemoryGrow:
          Use(d, HOp::kCallHostMemGrow);
          return;
        default:
          d->target = in.func;
          Use(d, HOp::kCallHostHook);
          return;
      }

    case MOp::kMov:
    case MOp::kMovImm64:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          Use(d, HOp::kMovRR);
          return;
        }
        if (IsI(in.src)) {
          // Pre-truncated to the final register value (write of width < 8
          // truncates again, which is idempotent).
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          Use(d, HOp::kMovRI);
          return;
        }
        if (IsM(in.src)) {
          d->mem = LowerMem(in.src.mem);
          Use(d, HOp::kMovRM);
          return;
        }
      } else if (IsM(in.dst)) {
        d->mem = LowerMem(in.dst.mem);
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          Use(d, HOp::kMovMR);
          return;
        }
        if (IsI(in.src)) {
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          Use(d, HOp::kMovMI);
          return;
        }
      }
      break;

    case MOp::kLoad:
      if (IsR(in.dst) && IsM(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        d->mem = LowerMem(in.src.mem);
        Use(d, in.sign_extend ? HOp::kLoadS : HOp::kLoadZ);
        return;
      }
      break;

    case MOp::kStore:
      if (IsM(in.dst)) {
        d->mem = LowerMem(in.dst.mem);
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          Use(d, HOp::kStoreR);
          return;
        }
        if (IsI(in.src)) {
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          Use(d, HOp::kStoreI);
          return;
        }
      }
      break;

    case MOp::kLea:
      if (IsR(in.dst) && IsM(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        d->mem = LowerMem(in.src.mem);
        Use(d, HOp::kLea);
        return;
      }
      break;

    case MOp::kPush:
      d->a = static_cast<uint8_t>(in.dst.gpr);
      Use(d, HOp::kPush);
      return;
    case MOp::kPop:
      d->a = static_cast<uint8_t>(in.dst.gpr);
      Use(d, HOp::kPop);
      return;
    case MOp::kXchg:
      if (IsR(in.dst) && IsR(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        d->b = static_cast<uint8_t>(in.src.gpr);
        Use(d, HOp::kXchg);
        return;
      }
      break;

    case MOp::kAdd:
    case MOp::kSub:
    case MOp::kAnd:
    case MOp::kOr:
    case MOp::kXor:
    case MOp::kImul:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        int shape;  // 0 = RR, 1 = RI, 2 = RM
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          shape = 0;
        } else if (IsI(in.src)) {
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          shape = 1;
        } else if (IsM(in.src)) {
          d->mem = LowerMem(in.src.mem);
          shape = 2;
        } else {
          break;
        }
        static constexpr HOp kAluTable[6][3] = {
            {HOp::kAddRR, HOp::kAddRI, HOp::kAddRM},
            {HOp::kSubRR, HOp::kSubRI, HOp::kSubRM},
            {HOp::kAndRR, HOp::kAndRI, HOp::kAndRM},
            {HOp::kOrRR, HOp::kOrRI, HOp::kOrRM},
            {HOp::kXorRR, HOp::kXorRI, HOp::kXorRM},
            {HOp::kImulRR, HOp::kImulRI, HOp::kImulRM},
        };
        int row = in.op == MOp::kAdd   ? 0
                  : in.op == MOp::kSub ? 1
                  : in.op == MOp::kAnd ? 2
                  : in.op == MOp::kOr  ? 3
                  : in.op == MOp::kXor ? 4
                                       : 5;
        Use(d, kAluTable[row][shape]);
        return;
      }
      break;

    case MOp::kNeg:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        Use(d, HOp::kNegR);
        return;
      }
      break;
    case MOp::kNot:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        Use(d, HOp::kNotR);
        return;
      }
      break;

    case MOp::kShl:
    case MOp::kShr:
    case MOp::kSar:
      if (IsR(in.dst) && in.src2.is_imm()) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        // Pre-masked to the operation width, as the unfused path does at exec.
        d->imm = static_cast<int64_t>(static_cast<uint64_t>(in.src2.imm) &
                                      (uint32_t{in.width} * 8 - 1));
        Use(d, in.op == MOp::kShl   ? HOp::kShlRI
               : in.op == MOp::kShr ? HOp::kShrRI
                                    : HOp::kSarRI);
        return;
      }
      if (IsR(in.dst)) {
        // Count in cl (any non-immediate src2), masked to the width at exec.
        d->a = static_cast<uint8_t>(in.dst.gpr);
        Use(d, in.op == MOp::kShl   ? HOp::kShlRC
               : in.op == MOp::kShr ? HOp::kShrRC
                                    : HOp::kSarRC);
        return;
      }
      break;

    case MOp::kCmp:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          Use(d, HOp::kCmpRR);
          return;
        }
        if (IsI(in.src)) {
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          Use(d, HOp::kCmpRI);
          return;
        }
        if (IsM(in.src)) {
          d->mem = LowerMem(in.src.mem);
          Use(d, HOp::kCmpRM);
          return;
        }
      }
      break;

    case MOp::kTest:
      if (IsR(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        if (IsR(in.src)) {
          d->b = static_cast<uint8_t>(in.src.gpr);
          Use(d, HOp::kTestRR);
          return;
        }
        if (IsI(in.src)) {
          d->imm =
              static_cast<int64_t>(TruncToWidth(static_cast<uint64_t>(in.src.imm), in.width));
          Use(d, HOp::kTestRI);
          return;
        }
      }
      break;

    case MOp::kSetcc:
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->cond = static_cast<uint8_t>(in.cond);
      Use(d, HOp::kSetcc);
      return;
    case MOp::kCdq:
      Use(d, HOp::kCdq);
      return;
    case MOp::kIdiv:
    case MOp::kDiv:
      if (IsR(in.src)) {
        d->b = static_cast<uint8_t>(in.src.gpr);
        Use(d, in.op == MOp::kIdiv ? HOp::kIdivR : HOp::kDivR);
        return;
      }
      break;
    case MOp::kMovsxd:
      if (IsR(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        d->b = static_cast<uint8_t>(in.src.gpr);
        Use(d, HOp::kMovsxdRR);
        return;
      }
      break;

    case MOp::kMovsd:
    case MOp::kMovss:
      d->width = in.op == MOp::kMovss ? 4 : 8;
      if (IsX(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.xmm);
        if (IsX(in.src)) {
          d->b = static_cast<uint8_t>(in.src.xmm);
          Use(d, HOp::kFpMovXX);
          return;
        }
        if (IsM(in.src)) {
          d->mem = LowerMem(in.src.mem);
          Use(d, HOp::kFpMovXM);
          return;
        }
      } else if (IsM(in.dst) && IsX(in.src)) {
        d->b = static_cast<uint8_t>(in.src.xmm);
        d->mem = LowerMem(in.dst.mem);
        Use(d, HOp::kFpMovMX);
        return;
      }
      break;

    case MOp::kAddsd:
    case MOp::kSubsd:
    case MOp::kMulsd:
    case MOp::kDivsd:
      if (IsX(in.dst)) {
        d->a = static_cast<uint8_t>(in.dst.xmm);
        static constexpr HOp kFpTable[4][2] = {
            {HOp::kAddsdXX, HOp::kAddsdXM},
            {HOp::kSubsdXX, HOp::kSubsdXM},
            {HOp::kMulsdXX, HOp::kMulsdXM},
            {HOp::kDivsdXX, HOp::kDivsdXM},
        };
        int row = in.op == MOp::kAddsd   ? 0
                  : in.op == MOp::kSubsd ? 1
                  : in.op == MOp::kMulsd ? 2
                                         : 3;
        if (IsX(in.src)) {
          d->b = static_cast<uint8_t>(in.src.xmm);
          Use(d, kFpTable[row][0]);
          return;
        }
        if (IsM(in.src)) {
          d->mem = LowerMem(in.src.mem);
          Use(d, kFpTable[row][1]);
          return;
        }
      }
      break;

    case MOp::kSqrtsd:
      if (IsX(in.dst) && IsX(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.xmm);
        d->b = static_cast<uint8_t>(in.src.xmm);
        Use(d, HOp::kSqrtsdXX);
        return;
      }
      break;

    case MOp::kUcomisd:
    case MOp::kUcomiss:
      if (IsX(in.dst) && IsX(in.src)) {
        d->width = in.op == MOp::kUcomiss ? 4 : 8;
        d->a = static_cast<uint8_t>(in.dst.xmm);
        d->b = static_cast<uint8_t>(in.src.xmm);
        Use(d, HOp::kUcomisXX);
        return;
      }
      break;

    case MOp::kCvtsi2sd:
      if (IsX(in.dst) && IsR(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.xmm);
        d->b = static_cast<uint8_t>(in.src.gpr);
        Use(d, HOp::kCvtsi2sdXR);
        return;
      }
      break;
    case MOp::kCvttsd2si:
      if (IsR(in.dst) && IsX(in.src)) {
        d->a = static_cast<uint8_t>(in.dst.gpr);
        d->b = static_cast<uint8_t>(in.src.xmm);
        Use(d, HOp::kCvttsd2siRX);
        return;
      }
      break;

    case MOp::kMovqToXmm:
      d->a = static_cast<uint8_t>(in.dst.xmm);
      d->b = static_cast<uint8_t>(in.src.gpr);
      Use(d, HOp::kMovqToXmm);
      return;
    case MOp::kMovqFromXmm:
      d->a = static_cast<uint8_t>(in.dst.gpr);
      d->b = static_cast<uint8_t>(in.src.xmm);
      Use(d, HOp::kMovqFromXmm);
      return;

    default:
      break;
  }
  Use(d, HOp::kGeneric);
}

}  // namespace

DecodedProgram Predecode(const MProgram& program) {
  telemetry::Span span("predecode", "machine");
  const auto t0 = std::chrono::steady_clock::now();
  DecodedProgram dp;
  dp.program = &program;
  dp.funcs.resize(program.funcs.size());
  for (size_t fi = 0; fi < program.funcs.size(); fi++) {
    const MFunction& f = program.funcs[fi];
    DecodedFunc& df = dp.funcs[fi];
    const size_t n = f.code.size();
    dp.stats.instrs += n;

    // Branch-target marks: a jcc that is itself a target cannot be consumed
    // into a fused pair (jumping to it must execute only the jcc).
    std::vector<uint8_t> is_target(n + 1, 0);
    for (const MInstr& in : f.code) {
      if (in.op == MOp::kJmp || in.op == MOp::kJcc) {
        is_target[in.label <= n ? in.label : n] = 1;
      }
    }

    // Pass 1: fusion decisions + the original-pc -> decoded-index map.
    // fuse_at: 0 = unfused, 1 = cmp|test+jcc macro-op, 2 = data pair.
    df.pc_to_index.assign(n, 0);
    std::vector<uint8_t> fuse_at(n, 0);
    uint32_t record_count = 0;
    for (size_t i = 0; i < n; i++) {
      df.pc_to_index[i] = record_count;
      uint8_t fuse = 0;
      if (i + 1 < n && !is_target[i + 1]) {
        if ((f.code[i].op == MOp::kCmp || f.code[i].op == MOp::kTest) &&
            f.code[i + 1].op == MOp::kJcc) {
          fuse = 1;
        } else if (DataPairHandler(f.code[i], f.code[i + 1]) != HOp::kCount) {
          fuse = 2;
        }
      }
      if (fuse != 0) {
        fuse_at[i] = fuse;
        df.pc_to_index[i + 1] = record_count;  // unreachable as an entry point
        i++;
      }
      record_count++;
    }
    const uint32_t sentinel = record_count;
    auto map_label = [&](uint32_t label) -> uint32_t {
      // Off-the-end (or out-of-range) targets land on the kEndOfCode
      // sentinel, which raises the legacy loop's "pc out of range" trap.
      return label < n ? df.pc_to_index[label] : sentinel;
    };

    // Pass 2: emit records, marking fetches that must hit MRU slot 0 with
    // fetch_lines = 0 (see decode.h). The previous record must have run just
    // before this one when this one is not record 0, not a branch target,
    // and the previous record falls through; a fused second fetch always
    // runs right after its primary.
    uint64_t prev_last_line = 0;  // last L1i line the previous record fetched
    bool prev_falls_through = false;
    df.code.reserve(record_count + 1);
    for (size_t i = 0; i < n; i++) {
      DInstr d;
      const MInstr& in = f.code[i];
      d.orig = &in;
      d.fetch_addr = f.code_base + f.instr_offsets[i];
      d.fetch_size = EncodedSize(in);
      d.fetch_lines = LineSpan(d.fetch_addr, d.fetch_size);
      if (prev_falls_through && !is_target[i] && d.fetch_lines == 1 &&
          LineOf(d.fetch_addr) == prev_last_line) {
        d.fetch_lines = 0;
      }
      prev_last_line = LastLineOf(d.fetch_addr, d.fetch_size);
      if (fuse_at[i] != 0) {
        const MInstr& second = f.code[i + 1];
        if (fuse_at[i] == 1) {
          LowerFusedPrimary(in, &d);
          d.cond = static_cast<uint8_t>(second.cond);
          d.target = map_label(second.label);
          if (d.handler == static_cast<uint16_t>(HOp::kFusedGenJcc)) {
            dp.stats.generic++;
          }
        } else {
          LowerFusedDataPair(in, second, &d);
        }
        d.fetch_addr2 = f.code_base + f.instr_offsets[i + 1];
        d.fetch_size2 = EncodedSize(second);
        d.fetch_lines2 = LineSpan(d.fetch_addr2, d.fetch_size2);
        if (d.fetch_lines2 == 1 && LineOf(d.fetch_addr2) == prev_last_line) {
          d.fetch_lines2 = 0;
        }
        prev_last_line = LastLineOf(d.fetch_addr2, d.fetch_size2);
        dp.stats.fused_pairs++;
        i++;
      } else {
        LowerOne(in, &d, map_label);
        if (d.handler == static_cast<uint16_t>(HOp::kGeneric)) {
          dp.stats.generic++;
        }
      }
      if (IsBranchRecord(static_cast<HOp>(d.handler)) && d.target <= df.code.size()) {
        d.flags |= DInstr::kFlagBackEdge;
      }
      prev_falls_through = FallsThroughToNext(static_cast<HOp>(d.handler));
      df.code.push_back(d);
    }
    dp.stats.records += df.code.size();
    DInstr end;
    end.handler = static_cast<uint16_t>(HOp::kEndOfCode);
    df.code.push_back(end);
  }
  static telemetry::Histogram* predecode_ns =
      telemetry::MetricsRegistry::Global().GetHistogram("machine.predecode_ns");
  predecode_ns->Record(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                 std::chrono::steady_clock::now() - t0)
                                                 .count()));
  span.arg("instrs", dp.stats.instrs);
  span.arg("records", dp.stats.records);
  span.arg("fused_pairs", dp.stats.fused_pairs);
  return dp;
}

// ---------------------------------------------------------------------------
// The execution core. One set of handler bodies, two dispatch backends:
// computed goto (labels as values) or a portable switch. NSF_CASE opens a
// handler and charges the instruction fetch + retirement + fuel (the shared
// prologue); NSF_STEP falls through to the next record by bumping the record
// pointer, NSF_NEXT transfers to the record at the given decoded index.
// ---------------------------------------------------------------------------

TrapKind SimMachine::ExecDecoded() {
  const DecodedProgram& dp = *decoded_;
  const uint64_t fuel = fuel_ != 0 ? fuel_ : kSimDefaultFuel;
  const DecodedFunc* dfunc = &dp.funcs[cur_func_];
  const DInstr* code = dfunc->code.data();
  const DInstr* d = code;
  // Retirement count and static cycle charges live in locals so they can stay
  // in registers; NSF_SYNC writes them back before every return and before a
  // host hook runs. DataAccess, FetchL1i and ExecGenericOp keep charging
  // counters_.micro_cycles directly — the charges are additive, so the sum is
  // the same.
  uint64_t retired = counters_.instructions_retired;
  uint64_t cycles = 0;
#define NSF_SYNC()                                \
  do {                                            \
    counters_.instructions_retired = retired;     \
    counters_.micro_cycles += cycles;             \
    cycles = 0;                                   \
  } while (0)
#define NSF_RETURN(v) \
  do {                \
    NSF_SYNC();       \
    return (v);       \
  } while (0)

// fetch_lines 0 marks a fetch predecode proved to be a slot-0 L1i hit (see
// Predecode): such a hit writes no cache state, so the probe is skipped.
#define NSF_PROLOGUE(fa, fsz, flines)                       \
  do {                                                      \
    if ((flines) == 1) {                                    \
      if (!l1i_.Access(fa)) {                               \
        counters_.l1i_misses++;                             \
        cycles += cost_.l1_miss;                            \
        if (!l2_.Access(fa)) {                              \
          counters_.l2_misses++;                            \
          cycles += cost_.l2_miss;                          \
        }                                                   \
      }                                                     \
    } else if ((flines) != 0) {                             \
      FetchL1i((fa), (fsz));                                \
    }                                                       \
    if (++retired > fuel) {                                 \
      pending_trap_ = TrapKind::kFuelExhausted;             \
      trap_msg_ = "instruction budget exceeded";            \
      NSF_RETURN(pending_trap_);                            \
    }                                                       \
  } while (0)

// Per-handler retire counting (-DNSF_DISPATCH_STATS=ON only): lives in
// NSF_CASE, not NSF_PROLOGUE, so a fused macro-op — whose jcc tail runs the
// prologue a second time — counts ONCE for its fused handler. kEndOfCode
// (NSF_CASE_RAW) is a trap sentinel, not a retirement, and is not counted.
#ifdef NSF_DISPATCH_STATS
#define NSF_COUNT_DISPATCH()                                                      \
  do {                                                                            \
    dispatch_retires_[d->handler]++;                                              \
    if (nsf_prev_handler < static_cast<uint16_t>(HOp::kCount)) {                  \
      dispatch_pairs_[nsf_prev_handler * kMaxDispatchHandlers + d->handler]++;    \
    }                                                                             \
    nsf_prev_handler = d->handler;                                                \
  } while (0)
  uint16_t nsf_prev_handler = static_cast<uint16_t>(HOp::kCount);
#else
#define NSF_COUNT_DISPATCH() ((void)0)
#endif

// Sampled always-on profiling (continuous tiering, see SimMachine::
// set_sampler): every sample_period_-th back-edge/call records one sample
// into machine-local vectors. When sampling is off (period 0, the default)
// each hook is one predictable compare against a cached member; the cold
// RecordSample slice re-arms the countdown out of line. A taken branch is a
// back edge when predecode set DInstr::kFlagBackEdge on its record. The hooks
// read only sampling-local state — PerfCounters are bit-identical with
// sampling on, off, or the sink absent.
#define NSF_SAMPLE_CALL()                                          \
  do {                                                             \
    if (sample_period_ != 0 && --sample_tick_ == 0) {              \
      RecordSample(cur_func_, /*backedge=*/false);                 \
    }                                                              \
  } while (0)
#define NSF_SAMPLE_BACKEDGE()                                      \
  do {                                                             \
    if (sample_period_ != 0 &&                                     \
        (d->flags & DInstr::kFlagBackEdge) != 0 &&                 \
        --sample_tick_ == 0) {                                     \
      RecordSample(cur_func_, /*backedge=*/true);                  \
    }                                                              \
  } while (0)

#if NSF_COMPUTED_GOTO
  static const void* const kLabels[] = {
#define NSF_H(name) &&L_##name,
      NSF_HANDLER_LIST(NSF_H)
#undef NSF_H
  };
#define NSF_CASE(name) \
  L_##name:            \
  NSF_COUNT_DISPATCH(); \
  NSF_PROLOGUE(d->fetch_addr, d->fetch_size, d->fetch_lines);
#define NSF_CASE_RAW(name) L_##name:
#define NSF_STEP()               \
  do {                           \
    ++d;                         \
    goto* kLabels[d->handler];   \
  } while (0)
#define NSF_NEXT(n)              \
  do {                           \
    d = code + (n);              \
    goto* kLabels[d->handler];   \
  } while (0)
  goto* kLabels[d->handler];
#else
#define NSF_CASE(name)  \
  case HOp::k##name:    \
    NSF_COUNT_DISPATCH(); \
    NSF_PROLOGUE(d->fetch_addr, d->fetch_size, d->fetch_lines);
#define NSF_CASE_RAW(name) case HOp::k##name:
#define NSF_STEP()      \
  do {                  \
    ++d;                \
    goto nsf_dispatch;  \
  } while (0)
#define NSF_NEXT(n)     \
  do {                  \
    d = code + (n);     \
    goto nsf_dispatch;  \
  } while (0)
nsf_dispatch:
  switch (static_cast<HOp>(d->handler)) {
#endif

  // --- control ---

  NSF_CASE_RAW(EndOfCode) {
    // Running (or jumping) off the end of a function: the legacy loop's
    // bounds check, without the per-instruction cost. No fetch, no retire.
    pending_trap_ = TrapKind::kHostError;
    trap_msg_ = StrFormat("pc out of range in %s", program_->funcs[cur_func_].name.c_str());
    NSF_RETURN(pending_trap_);
  }

  NSF_CASE(Generic) {
    if (!ExecGenericOp(*d->orig)) {
      NSF_RETURN(pending_trap_);
    }
    NSF_STEP();
  }

  NSF_CASE(Jmp) {
    cycles += cost_.branch + cost_.branch_taken_extra;
    counters_.branches_retired++;
    counters_.taken_branches++;
    NSF_SAMPLE_BACKEDGE();
    NSF_NEXT(d->target);
  }

  NSF_CASE(Jcc) {
    cycles += cost_.branch;
    counters_.branches_retired++;
    counters_.cond_branches_retired++;
    if (EvalCond(static_cast<Cond>(d->cond))) {
      counters_.taken_branches++;
      cycles += cost_.branch_taken_extra;
      NSF_SAMPLE_BACKEDGE();
      NSF_NEXT(d->target);
    }
    NSF_STEP();
  }

  NSF_CASE(Call) {
    cycles += cost_.call;
    counters_.branches_retired++;
    counters_.calls++;
    // Return-address push (architecturally a store).
    uint64_t rsp = gpr(Gpr::kRsp) - 8;
    set_gpr(Gpr::kRsp, rsp);
    uint8_t* p;
    if (!DataAccess(rsp, 8, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    if (frames_.size() >= 4096) {
      pending_trap_ = TrapKind::kCallStackExhausted;
      NSF_RETURN(pending_trap_);
    }
    frames_.push_back(Frame{cur_func_, static_cast<uint32_t>(d - code + 1)});
    cur_func_ = d->target;
    dfunc = &dp.funcs[cur_func_];
    code = dfunc->code.data();
    NSF_SAMPLE_CALL();
    NSF_NEXT(0);
  }

  NSF_CASE(CallReg) {
    cycles += cost_.call;
    counters_.branches_retired++;
    counters_.calls++;
    uint64_t target = gprs_[d->a];
    if (target >= program_->funcs.size()) {
      pending_trap_ = TrapKind::kIndirectCallOutOfBounds;
      trap_msg_ = "bad indirect target";
      NSF_RETURN(pending_trap_);
    }
    uint64_t rsp = gpr(Gpr::kRsp) - 8;
    set_gpr(Gpr::kRsp, rsp);
    uint8_t* p;
    if (!DataAccess(rsp, 8, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    if (frames_.size() >= 4096) {
      pending_trap_ = TrapKind::kCallStackExhausted;
      NSF_RETURN(pending_trap_);
    }
    frames_.push_back(Frame{cur_func_, static_cast<uint32_t>(d - code + 1)});
    cur_func_ = static_cast<uint32_t>(target);
    dfunc = &dp.funcs[cur_func_];
    code = dfunc->code.data();
    NSF_SAMPLE_CALL();
    NSF_NEXT(0);
  }

  NSF_CASE(Ret) {
    cycles += cost_.ret;
    counters_.branches_retired++;
    if (frames_.empty()) {
      NSF_RETURN(TrapKind::kNone);  // outermost return: done
    }
    // Return-address pop (architecturally a load).
    uint8_t* p;
    if (!DataAccess(gpr(Gpr::kRsp), 8, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) + 8);
    Frame f = frames_.back();
    frames_.pop_back();
    cur_func_ = f.func;
    dfunc = &dp.funcs[cur_func_];
    code = dfunc->code.data();
    NSF_NEXT(f.ret_pc);
  }

  NSF_CASE(CallHostHook) {
    cycles += cost_.host_call;
    counters_.branches_retired++;
    counters_.calls++;
    if (d->target < hooks_.size() && hooks_[d->target]) {
      // The hook may read counters() or ResetCounters(): hand it the
      // tallies, then resume from whatever retirement count it left.
      NSF_SYNC();
      hooks_[d->target](*this);
      retired = counters_.instructions_retired;
      if (pending_trap_ != TrapKind::kNone) {
        NSF_RETURN(pending_trap_);
      }
    } else {
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = StrFormat("no host hook %u", d->target);
      NSF_RETURN(pending_trap_);
    }
    NSF_STEP();
  }

  NSF_CASE(CallHostTrap) {
    cycles += cost_.host_call;
    counters_.branches_retired++;
    counters_.calls++;
    pending_trap_ = static_cast<TrapKind>(d->imm);
    trap_msg_ = "trap stub";
    NSF_RETURN(pending_trap_);
  }

  NSF_CASE(CallHostMemSize) {
    cycles += cost_.host_call;
    counters_.branches_retired++;
    counters_.calls++;
    set_gpr(Gpr::kRax, heap_pages());
    NSF_STEP();
  }

  NSF_CASE(CallHostMemGrow) {
    cycles += cost_.host_call;
    counters_.branches_retired++;
    counters_.calls++;
    uint64_t delta = TruncToWidth(gpr(Gpr::kRdi), 4);
    uint64_t old_pages = heap_pages();
    if (old_pages + delta > max_heap_pages_) {
      set_gpr(Gpr::kRax, TruncToWidth(~uint64_t{0}, 4));
    } else {
      heap_.resize((old_pages + delta) * 65536);
      set_gpr(Gpr::kRax, old_pages);
    }
    NSF_STEP();
  }

  // --- fused cmp|test + jcc ---
  // The primary executes exactly like the unfused compare — including
  // writing the compare state, which later setcc/jcc may read — then the
  // second element is fetched/retired/fueled and branches.

#define NSF_FUSED_TAIL()                                            \
  NSF_PROLOGUE(d->fetch_addr2, d->fetch_size2, d->fetch_lines2);    \
  cycles += cost_.branch;                                           \
  counters_.branches_retired++;                                     \
  counters_.cond_branches_retired++;                                \
  if (EvalCond(static_cast<Cond>(d->cond))) {                       \
    counters_.taken_branches++;                                     \
    cycles += cost_.branch_taken_extra;                             \
    NSF_SAMPLE_BACKEDGE();                                          \
    NSF_NEXT(d->target);                                            \
  }                                                                 \
  NSF_STEP()

  NSF_CASE(FusedCmpJccRR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_FUSED_TAIL();
  }

  NSF_CASE(FusedCmpJccRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = static_cast<uint64_t>(d->imm);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_FUSED_TAIL();
  }

  NSF_CASE(FusedCmpJccRM) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t bv = LoadWidth(p, d->width);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_FUSED_TAIL();
  }

  NSF_CASE(FusedTestJccRR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);
    cmp_kind_ = CmpKind::kTest;
    cmp_test_ = av & bv;
    cmp_test_sign_ = SignExtend(cmp_test_, d->width) < 0;
    NSF_FUSED_TAIL();
  }

  NSF_CASE(FusedTestJccRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = static_cast<uint64_t>(d->imm);
    cmp_kind_ = CmpKind::kTest;
    cmp_test_ = av & bv;
    cmp_test_sign_ = SignExtend(cmp_test_, d->width) < 0;
    NSF_FUSED_TAIL();
  }

  NSF_CASE(FusedGenJcc) {
    if (!ExecGenericOp(*d->orig)) {
      NSF_RETURN(pending_trap_);
    }
    NSF_FUSED_TAIL();
  }

#undef NSF_FUSED_TAIL

  // --- fused data-movement/ALU pairs (round 2) ---
  // Chosen from the -DNSF_DISPATCH_STATS adjacent-pair table (mov-imm+mov
  // 15%, load+mov 11%, mov+add 10% of dynamic dispatches). Each first element
  // executes exactly like its unfused handler, then the second element runs
  // its own prologue (fetch + retire + fuel) and body — the counter stream is
  // bit-identical to the unfused pair. The second element is always reg-reg,
  // packed into the branch-free target field as dst | src << 8 | width << 16.

#define NSF_PAIR2_DST (d->target & 0xff)
#define NSF_PAIR2_SRC ((d->target >> 8) & 0xff)
#define NSF_PAIR2_W ((d->target >> 16) & 0xff)

  NSF_CASE(FusedMovRIMovRR) {
    cycles += cost_.simple;
    gprs_[d->a] = static_cast<uint64_t>(d->imm);
    NSF_PROLOGUE(d->fetch_addr2, d->fetch_size2, d->fetch_lines2);
    cycles += cost_.simple;
    gprs_[NSF_PAIR2_DST] = TruncToWidth(gprs_[NSF_PAIR2_SRC], NSF_PAIR2_W);
    NSF_STEP();
  }

  NSF_CASE(FusedLoadZMovRR) {
    cycles += cost_.simple;  // load cost added in DataAccess
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = LoadWidth(p, d->width);
    gprs_[d->a] = v;
    NSF_PROLOGUE(d->fetch_addr2, d->fetch_size2, d->fetch_lines2);
    cycles += cost_.simple;
    gprs_[NSF_PAIR2_DST] = TruncToWidth(gprs_[NSF_PAIR2_SRC], NSF_PAIR2_W);
    NSF_STEP();
  }

  NSF_CASE(FusedMovRRAddRR) {
    cycles += cost_.simple;
    gprs_[d->a] = TruncToWidth(gprs_[d->b], d->width);
    NSF_PROLOGUE(d->fetch_addr2, d->fetch_size2, d->fetch_lines2);
    cycles += cost_.simple;
    const uint32_t w2 = NSF_PAIR2_W;
    uint64_t av = TruncToWidth(gprs_[NSF_PAIR2_DST], w2);
    uint64_t bv = TruncToWidth(gprs_[NSF_PAIR2_SRC], w2);
    uint64_t rv = av + bv;
    gprs_[NSF_PAIR2_DST] = w2 == 8 ? rv : TruncToWidth(rv, w2);
    NSF_STEP();
  }

#undef NSF_PAIR2_DST
#undef NSF_PAIR2_SRC
#undef NSF_PAIR2_W

  // --- data movement ---

  NSF_CASE(MovRR) {
    cycles += cost_.simple;
    gprs_[d->a] = TruncToWidth(gprs_[d->b], d->width);
    NSF_STEP();
  }

  NSF_CASE(MovRI) {
    cycles += cost_.simple;
    gprs_[d->a] = static_cast<uint64_t>(d->imm);
    NSF_STEP();
  }

  NSF_CASE(MovRM) {
    cycles += cost_.simple;
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = LoadWidth(p, d->width);
    gprs_[d->a] = v;
    NSF_STEP();
  }

  NSF_CASE(MovMR) {
    cycles += cost_.simple;
    uint64_t t = TruncToWidth(gprs_[d->b], d->width);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    StoreWidth(p, t, d->width);
    NSF_STEP();
  }

  NSF_CASE(MovMI) {
    cycles += cost_.simple;
    uint64_t t = static_cast<uint64_t>(d->imm);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    StoreWidth(p, t, d->width);
    NSF_STEP();
  }

  NSF_CASE(LoadZ) {
    cycles += cost_.simple;  // load cost added in DataAccess
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = LoadWidth(p, d->width);
    gprs_[d->a] = v;
    NSF_STEP();
  }

  NSF_CASE(LoadS) {
    cycles += cost_.simple;
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = LoadWidth(p, d->width);
    gprs_[d->a] = static_cast<uint64_t>(SignExtend(v, d->width));
    NSF_STEP();
  }

  NSF_CASE(StoreR) {
    cycles += cost_.simple;
    uint64_t v = TruncToWidth(gprs_[d->b], d->width);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    StoreWidth(p, v, d->width);
    NSF_STEP();
  }

  NSF_CASE(StoreI) {
    cycles += cost_.simple;
    uint64_t v = static_cast<uint64_t>(d->imm);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    StoreWidth(p, v, d->width);
    NSF_STEP();
  }

  NSF_CASE(Lea) {
    cycles += cost_.simple;
    uint64_t ea = DAddr(gprs_, d->mem);
    gprs_[d->a] = d->width == 8 ? ea : TruncToWidth(ea, 4);
    NSF_STEP();
  }

  NSF_CASE(Push) {
    cycles += cost_.simple;
    uint64_t rsp = gpr(Gpr::kRsp) - 8;
    set_gpr(Gpr::kRsp, rsp);
    uint8_t* p;
    if (!DataAccess(rsp, 8, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = gprs_[d->a];
    std::memcpy(p, &v, 8);
    NSF_STEP();
  }

  NSF_CASE(Pop) {
    cycles += cost_.simple;
    uint8_t* p;
    if (!DataAccess(gpr(Gpr::kRsp), 8, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v;
    std::memcpy(&v, p, 8);
    gprs_[d->a] = v;
    set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) + 8);
    NSF_STEP();
  }

  NSF_CASE(Xchg) {
    cycles += cost_.simple;
    uint64_t t = gprs_[d->a];
    gprs_[d->a] = gprs_[d->b];
    gprs_[d->b] = t;
    NSF_STEP();
  }

  // --- integer ALU ---

#define NSF_ALU_BODY(rv_expr)                                          \
  do {                                                                 \
    uint64_t rv = (rv_expr);                                           \
    gprs_[d->a] = d->width == 8 ? rv : TruncToWidth(rv, d->width);     \
  } while (0)

#define NSF_ALU(name, OP)                                              \
  NSF_CASE(name##RR) {                                                 \
    cycles += cost_.simple;                                            \
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);                 \
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);                 \
    NSF_ALU_BODY(av OP bv);                                            \
    NSF_STEP();                                                        \
  }                                                                    \
  NSF_CASE(name##RI) {                                                 \
    cycles += cost_.simple;                                            \
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);                 \
    uint64_t bv = static_cast<uint64_t>(d->imm);                       \
    NSF_ALU_BODY(av OP bv);                                            \
    NSF_STEP();                                                        \
  }                                                                    \
  NSF_CASE(name##RM) {                                                 \
    cycles += cost_.simple;                                            \
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);                 \
    uint8_t* p;                                                        \
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {      \
      NSF_RETURN(pending_trap_);                                       \
    }                                                                  \
    uint64_t bv = LoadWidth(p, d->width);                              \
    NSF_ALU_BODY(av OP bv);                                            \
    NSF_STEP();                                                        \
  }

  NSF_ALU(Add, +)
  NSF_ALU(Sub, -)
  NSF_ALU(And, &)
  NSF_ALU(Or, |)
  NSF_ALU(Xor, ^)

#undef NSF_ALU

  NSF_CASE(ImulRR) {
    cycles += cost_.imul;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);
    NSF_ALU_BODY(av * bv);
    NSF_STEP();
  }

  NSF_CASE(ImulRI) {
    cycles += cost_.imul;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = static_cast<uint64_t>(d->imm);
    NSF_ALU_BODY(av * bv);
    NSF_STEP();
  }

  NSF_CASE(ImulRM) {
    cycles += cost_.imul;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t bv = LoadWidth(p, d->width);
    NSF_ALU_BODY(av * bv);
    NSF_STEP();
  }

  NSF_CASE(NegR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(0 - av);
    NSF_STEP();
  }

  NSF_CASE(NotR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(~av);
    NSF_STEP();
  }

  NSF_CASE(ShlRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(av << d->imm);
    NSF_STEP();
  }

  NSF_CASE(ShrRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(av >> d->imm);
    NSF_STEP();
  }

  NSF_CASE(SarRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(static_cast<uint64_t>(SignExtend(av, d->width) >> d->imm));
    NSF_STEP();
  }

  // Shifts by cl: the count is rcx masked to the operation width, exactly as
  // ExecGenericOp computes it.
#define NSF_CL_COUNT (gpr(Gpr::kRcx) & (uint32_t{d->width} * 8 - 1))

  NSF_CASE(ShlRC) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(av << NSF_CL_COUNT);
    NSF_STEP();
  }

  NSF_CASE(ShrRC) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(av >> NSF_CL_COUNT);
    NSF_STEP();
  }

  NSF_CASE(SarRC) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    NSF_ALU_BODY(static_cast<uint64_t>(SignExtend(av, d->width) >> NSF_CL_COUNT));
    NSF_STEP();
  }

#undef NSF_CL_COUNT

#undef NSF_ALU_BODY

  NSF_CASE(CmpRR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_STEP();
  }

  NSF_CASE(CmpRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = static_cast<uint64_t>(d->imm);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_STEP();
  }

  NSF_CASE(CmpRM) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t bv = LoadWidth(p, d->width);
    cmp_kind_ = CmpKind::kInt;
    cmp_ua_ = av;
    cmp_ub_ = bv;
    cmp_sa_ = SignExtend(av, d->width);
    cmp_sb_ = SignExtend(bv, d->width);
    NSF_STEP();
  }

  NSF_CASE(TestRR) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = TruncToWidth(gprs_[d->b], d->width);
    cmp_kind_ = CmpKind::kTest;
    cmp_test_ = av & bv;
    cmp_test_sign_ = SignExtend(cmp_test_, d->width) < 0;
    NSF_STEP();
  }

  NSF_CASE(TestRI) {
    cycles += cost_.simple;
    uint64_t av = TruncToWidth(gprs_[d->a], d->width);
    uint64_t bv = static_cast<uint64_t>(d->imm);
    cmp_kind_ = CmpKind::kTest;
    cmp_test_ = av & bv;
    cmp_test_sign_ = SignExtend(cmp_test_, d->width) < 0;
    NSF_STEP();
  }

  NSF_CASE(Setcc) {
    cycles += cost_.simple;
    gprs_[d->a] = EvalCond(static_cast<Cond>(d->cond)) ? 1 : 0;
    NSF_STEP();
  }

  NSF_CASE(Cdq) {
    cycles += cost_.simple;
    if (d->width == 8) {
      set_gpr(Gpr::kRdx, static_cast<int64_t>(gpr(Gpr::kRax)) < 0 ? ~uint64_t{0} : 0);
    } else {
      uint32_t eax = static_cast<uint32_t>(gpr(Gpr::kRax));
      set_gpr(Gpr::kRdx, static_cast<int32_t>(eax) < 0 ? 0xffffffffull : 0);
    }
    NSF_STEP();
  }

  NSF_CASE(IdivR) {
    cycles += cost_.idiv;
    if (!DivOp(true, d->width, TruncToWidth(gprs_[d->b], d->width))) {
      NSF_RETURN(pending_trap_);
    }
    NSF_STEP();
  }

  NSF_CASE(DivR) {
    cycles += cost_.idiv;
    if (!DivOp(false, d->width, TruncToWidth(gprs_[d->b], d->width))) {
      NSF_RETURN(pending_trap_);
    }
    NSF_STEP();
  }

  NSF_CASE(MovsxdRR) {
    cycles += cost_.simple;
    gprs_[d->a] = static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(TruncToWidth(gprs_[d->b], 4))));
    NSF_STEP();
  }

  // --- SSE scalar ---

  NSF_CASE(FpMovXX) {
    cycles += cost_.fp_mov;
    uint64_t v = xmms_[d->b];
    xmms_[d->a] = d->width == 4 ? (v & 0xffffffffull) : v;
    NSF_STEP();
  }

  NSF_CASE(FpMovXM) {
    cycles += cost_.fp_mov;
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, false, &p)) {
      NSF_RETURN(pending_trap_);
    }
    uint64_t v = LoadWidth(p, d->width);
    xmms_[d->a] = d->width == 4 ? (v & 0xffffffffull) : v;
    NSF_STEP();
  }

  NSF_CASE(FpMovMX) {
    cycles += cost_.fp_mov;
    uint64_t v = xmms_[d->b];
    uint8_t* p;
    if (!DataAccess(DAddr(gprs_, d->mem), d->width, true, &p)) {
      NSF_RETURN(pending_trap_);
    }
    StoreWidth(p, v, d->width);
    NSF_STEP();
  }

#define NSF_FP_ARITH(name, COST, EXPR)                                 \
  NSF_CASE(name##XX) {                                                 \
    cycles += (COST);                                                  \
    double fa = BitsToF64(xmms_[d->a]);                                \
    double fb = BitsToF64(xmms_[d->b]);                                \
    xmms_[d->a] = F64ToBits(EXPR);                                     \
    NSF_STEP();                                                        \
  }                                                                    \
  NSF_CASE(name##XM) {                                                 \
    cycles += (COST);                                                  \
    double fa = BitsToF64(xmms_[d->a]);                                \
    uint8_t* p;                                                        \
    if (!DataAccess(DAddr(gprs_, d->mem), 8, false, &p)) {             \
      NSF_RETURN(pending_trap_);                                       \
    }                                                                  \
    uint64_t bb = 0;                                                   \
    std::memcpy(&bb, p, 8);                                            \
    double fb = BitsToF64(bb);                                         \
    xmms_[d->a] = F64ToBits(EXPR);                                     \
    NSF_STEP();                                                        \
  }

  NSF_FP_ARITH(Addsd, cost_.fp_simple, fa + fb)
  NSF_FP_ARITH(Subsd, cost_.fp_simple, fa - fb)
  NSF_FP_ARITH(Mulsd, cost_.fp_simple, fa * fb)
  NSF_FP_ARITH(Divsd, cost_.fp_div, fa / fb)

#undef NSF_FP_ARITH

  NSF_CASE(SqrtsdXX) {
    cycles += cost_.fp_sqrt;
    xmms_[d->a] = F64ToBits(std::sqrt(BitsToF64(xmms_[d->b])));
    NSF_STEP();
  }

  NSF_CASE(UcomisXX) {
    cycles += cost_.fp_simple / 2;
    uint64_t ab = xmms_[d->a];
    uint64_t bb = xmms_[d->b];
    double fa = d->width == 4 ? BitsToF32(ab) : BitsToF64(ab);
    double fb = d->width == 4 ? BitsToF32(bb) : BitsToF64(bb);
    cmp_kind_ = CmpKind::kFloat;
    fp_unordered_ = std::isnan(fa) || std::isnan(fb);
    fp_equal_ = fa == fb;
    fp_less_ = fa < fb;
    NSF_STEP();
  }

  NSF_CASE(Cvtsi2sdXR) {
    cycles += cost_.fp_simple;
    uint64_t v = TruncToWidth(gprs_[d->b], d->width);
    double r = (d->flags & DInstr::kFlagSignExtend)
                   ? static_cast<double>(SignExtend(v, d->width))
                   : static_cast<double>(v);
    xmms_[d->a] = F64ToBits(r);
    NSF_STEP();
  }

  NSF_CASE(Cvttsd2siRX) {
    cycles += cost_.fp_simple;
    double v = BitsToF64(xmms_[d->b]);
    uint64_t r;
    if (!TruncFloatToInt(v, d->width, (d->flags & DInstr::kFlagSignExtend) != 0, &r)) {
      NSF_RETURN(pending_trap_);
    }
    gprs_[d->a] = r;
    NSF_STEP();
  }

  NSF_CASE(MovqToXmm) {
    cycles += cost_.fp_mov;
    xmms_[d->a] = gprs_[d->b];
    NSF_STEP();
  }

  NSF_CASE(MovqFromXmm) {
    cycles += cost_.fp_mov;
    gprs_[d->a] = xmms_[d->b];
    NSF_STEP();
  }

#if !NSF_COMPUTED_GOTO
    case HOp::kCount:
      break;
  }
  pending_trap_ = TrapKind::kHostError;
  trap_msg_ = "unknown handler";
  NSF_RETURN(pending_trap_);
#endif

#undef NSF_CASE
#undef NSF_CASE_RAW
#undef NSF_SYNC
#undef NSF_RETURN
#undef NSF_NEXT
#undef NSF_STEP
#undef NSF_PROLOGUE
#undef NSF_COUNT_DISPATCH
#undef NSF_SAMPLE_CALL
#undef NSF_SAMPLE_BACKEDGE
}

}  // namespace nsf
