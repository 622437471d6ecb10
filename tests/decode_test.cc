// Differential suite for the predecoded interpreter core: the threaded /
// switch dispatch over DecodedPrograms must produce BIT-IDENTICAL
// PerfCounters, return values, traps, and outputs against the legacy switch
// interpreter (SimDispatch::kLegacy) — on real workloads, on trap paths
// (OOB / call-stack / fuel), and on fused-branch edge cases. Also covers the
// predecode structure itself (fusion rules, generic fallback), the
// session-owned SimBufferPool scrub contract, and the TieringPolicy
// run-history table that feeds LPT scheduling.
#include "src/machine/decode.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>

#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/machine/bits.h"
#include "src/machine/machine.h"
#include "src/polybench/polybench.h"

namespace nsf {
namespace {

MInstr Ret() {
  MInstr r;
  r.op = MOp::kRet;
  return r;
}

struct BothResults {
  MachineResult legacy;
  MachineResult pred;
  PerfCounters legacy_counters;
  PerfCounters pred_counters;
};

// Runs `prog` under both dispatch modes on fresh machines and asserts the
// observable state is identical; returns both for extra assertions. `setup`,
// when given, runs on each machine before the run (e.g. to register hooks).
BothResults RunBoth(const MProgram& prog, const std::vector<uint64_t>& args = {},
                    uint64_t fuel = 0,
                    const std::function<void(SimMachine&)>& setup = nullptr) {
  BothResults out;
  {
    SimMachine m(&prog);
    m.set_dispatch(SimDispatch::kLegacy);
    if (fuel != 0) {
      m.set_fuel(fuel);
    }
    if (setup) {
      setup(m);
    }
    out.legacy = m.Run(0, args);
    out.legacy_counters = m.counters();
  }
  {
    SimMachine m(&prog);
    m.set_dispatch(SimDispatch::kPredecoded);
    if (fuel != 0) {
      m.set_fuel(fuel);
    }
    if (setup) {
      setup(m);
    }
    out.pred = m.Run(0, args);
    out.pred_counters = m.counters();
  }
  EXPECT_EQ(out.legacy.ok, out.pred.ok);
  EXPECT_EQ(out.legacy.trap, out.pred.trap);
  EXPECT_EQ(out.legacy.ret_i, out.pred.ret_i);
  EXPECT_EQ(out.legacy.error, out.pred.error);
  EXPECT_TRUE(out.legacy_counters == out.pred_counters)
      << "instrs " << out.legacy_counters.instructions_retired << " vs "
      << out.pred_counters.instructions_retired << ", cycles "
      << out.legacy_counters.micro_cycles << " vs " << out.pred_counters.micro_cycles;
  return out;
}

MInstr HostCallFor(uint32_t id) {
  MInstr c;
  c.op = MOp::kCallHost;
  c.func = id;
  return c;
}

// --- Fused-branch edge cases ---

TEST(Fusion, CmpJccPairFusesAndBranches) {
  // Counting loop: the cmp+jne back edge must fuse into one record and still
  // retire as two instructions with the unfused cycle charges.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 50, 8));
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 3, 8));   // 2: loop body
  f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));
  f.code.push_back(MInstr::JumpCc(Cond::kNe, 2));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(dp.stats.fused_pairs, 1u);
  EXPECT_EQ(dp.stats.instrs, 7u);
  EXPECT_EQ(dp.stats.records, 6u);  // 7 instrs - 1 fused pair

  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 150u);
  EXPECT_EQ(r.legacy_counters.cond_branches_retired, 50u);
  EXPECT_EQ(r.legacy_counters.taken_branches, 49u);
}

TEST(Fusion, JccThatIsBranchTargetIsNotFused) {
  // Jumping straight AT the jcc must execute only the jcc, evaluating the
  // compare state an earlier cmp left behind — so this jcc cannot be fused.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 7, 8));   // 0: sets state
  f.code.push_back(MInstr::Jump(3));                          // 1: hop over cmp
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 99, 8));  // 2: (skipped)
  f.code.push_back(MInstr::JumpCc(Cond::kE, 5));              // 3: TARGET of 1
  f.code.push_back(Ret());                                    // 4: not-equal path
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 1, 8));   // 5: equal path
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(dp.stats.fused_pairs, 0u);  // cmp@2+jcc@3 blocked: 3 is a target

  BothResults eq = RunBoth(prog, {7});
  EXPECT_EQ(eq.legacy.ret_i, 1u);
  RunBoth(prog, {8});
}

TEST(Fusion, CompareStateSurvivesFusedPair) {
  // cmp ; jcc (fused) ; setcc ; jcc — the later consumers must read the
  // same compare state the fused record wrote.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 10, 8));  // 0 (fuses w/ 1)
  f.code.push_back(MInstr::JumpCc(Cond::kG, 5));              // 1: >10 -> ret 0
  MInstr setcc;
  setcc.op = MOp::kSetcc;
  setcc.dst = Operand::R(Gpr::kRax);
  setcc.cond = Cond::kL;                                      // 2: rax = (rdi<10)
  f.code.push_back(setcc);
  f.code.push_back(MInstr::JumpCc(Cond::kE, 7));              // 3: ==10 -> rax=7
  f.code.push_back(Ret());                                    // 4
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));   // 5
  f.code.push_back(Ret());
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 7, 8));   // 7 -> fallthrough ret
  prog.funcs.push_back(std::move(f));
  prog.funcs[0].code.push_back(Ret());
  prog.Link();

  EXPECT_EQ(RunBoth(prog, {3}).legacy.ret_i, 1u);    // <10: setcc, jcc not taken
  EXPECT_EQ(RunBoth(prog, {10}).legacy.ret_i, 7u);   // ==10: second jcc taken
  EXPECT_EQ(RunBoth(prog, {11}).legacy.ret_i, 0u);   // >10: fused jcc taken
}

TEST(Fusion, TestJccFusesWithSignSemantics) {
  MProgram prog;
  MFunction f;
  MInstr test = MInstr::RR(MOp::kTest, Gpr::kRdi, Gpr::kRdi, 8);
  f.code.push_back(test);                                     // 0 (fuses w/ 1)
  f.code.push_back(MInstr::JumpCc(Cond::kS, 4));              // 1: negative?
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 1, 8));   // 2: non-negative
  f.code.push_back(Ret());
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 2, 8));   // 4: negative
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  EXPECT_EQ(Predecode(prog).stats.fused_pairs, 1u);
  EXPECT_EQ(RunBoth(prog, {5}).legacy.ret_i, 1u);
  EXPECT_EQ(RunBoth(prog, {static_cast<uint64_t>(-5)}).legacy.ret_i, 2u);
  EXPECT_EQ(RunBoth(prog, {0}).legacy.ret_i, 1u);
}

TEST(Fusion, MemOperandTrapMidPairChargesOnlyTheCmp) {
  // cmp rax, [oob] ; jcc — the memory trap fires inside the fused record
  // after the cmp's fetch+retire but before the jcc's; both paths must agree
  // on every counter.
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  MInstr cmp = MInstr::RM(MOp::kCmp, Gpr::kRax,
                          MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8);
  f.code.push_back(cmp);
  f.code.push_back(MInstr::JumpCc(Cond::kE, 3));
  f.code.push_back(Ret());
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  ASSERT_EQ(Predecode(prog).stats.fused_pairs, 1u);

  BothResults ok = RunBoth(prog, {0});
  EXPECT_TRUE(ok.legacy.ok);
  BothResults trap = RunBoth(prog, {70000});
  EXPECT_EQ(trap.legacy.trap, TrapKind::kMemoryOutOfBounds);
  // The cmp retired, the jcc did not.
  EXPECT_EQ(trap.legacy_counters.instructions_retired, 1u);
  EXPECT_EQ(trap.legacy_counters.cond_branches_retired, 0u);
}

TEST(Fusion, FuelExpiringOnTheFusedJcc) {
  // With fuel == 1 the cmp of a fused pair retires and the jcc trips the
  // budget — exactly as the unfused interpreter behaves.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRax, 0, 8));
  f.code.push_back(MInstr::JumpCc(Cond::kE, 0));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  BothResults r = RunBoth(prog, {}, /*fuel=*/1);
  EXPECT_EQ(r.legacy.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 2u);  // the jcc tripped it
}

// --- Round-2 data-pair fusion: every shape fuses, counters unchanged ---

// Predecodes `prog` (one function, one candidate pair at pc 0 or 1) and
// returns the handler of the record holding instruction `pc`.
HOp HandlerAt(const MProgram& prog, uint32_t pc, uint64_t* fused_pairs) {
  DecodedProgram dp = Predecode(prog);
  *fused_pairs = dp.stats.fused_pairs;
  return static_cast<HOp>(dp.funcs[0].code[dp.funcs[0].pc_to_index[pc]].handler);
}

TEST(DataPairFusion, MovImmThenMovFuses) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 7, 8));
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRcx, 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  uint64_t fused = 0;
  EXPECT_EQ(HandlerAt(prog, 0, &fused), HOp::kFusedMovRIMovRR);
  EXPECT_EQ(fused, 1u);
  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 7u);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 3u);
}

// store [rdi + heap], rsi ; load rcx, dword [rdi + heap] ; mov rax, rcx ; ret
MProgram LoadThenMov(bool sign_extend) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  const MemRef slot = MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase));
  f.code.push_back(MInstr::MR(MOp::kStore, slot, Gpr::kRsi, 8));
  MInstr load = MInstr::RM(MOp::kLoad, Gpr::kRcx, slot, 4);
  load.sign_extend = sign_extend;
  f.code.push_back(load);
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRcx, 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  return prog;
}

TEST(DataPairFusion, ZeroExtendingLoadThenMovFuses) {
  MProgram prog = LoadThenMov(/*sign_extend=*/false);
  uint64_t fused = 0;
  EXPECT_EQ(HandlerAt(prog, 1, &fused), HOp::kFusedLoadZMovRR);
  EXPECT_EQ(fused, 1u);
  BothResults r = RunBoth(prog, {8, 0xFFFFFFFF80000001ull});
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 0x80000001ull);
  EXPECT_EQ(r.legacy_counters.loads_retired, 1u);
  EXPECT_EQ(r.legacy_counters.stores_retired, 1u);
}

TEST(DataPairFusion, SignExtendingLoadThenMovIsNotFused) {
  MProgram prog = LoadThenMov(/*sign_extend=*/true);
  uint64_t fused = 0;
  EXPECT_NE(HandlerAt(prog, 1, &fused), HOp::kFusedLoadZMovRR);
  EXPECT_EQ(fused, 0u);
  BothResults r = RunBoth(prog, {8, 0x80000001ull});
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 0xFFFFFFFF80000001ull);
}

TEST(DataPairFusion, MovThenAddFuses) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 8));
  f.code.push_back(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRsi, 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  uint64_t fused = 0;
  EXPECT_EQ(HandlerAt(prog, 0, &fused), HOp::kFusedMovRRAddRR);
  EXPECT_EQ(fused, 1u);
  BothResults r = RunBoth(prog, {40, 2});
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 42u);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 3u);
}

// --- Trap-path differentials ---

TEST(DecodeDifferential, OutOfBoundsLoad) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  EXPECT_TRUE(RunBoth(prog, {0}).legacy.ok);
  EXPECT_EQ(RunBoth(prog, {65536}).legacy.trap, TrapKind::kMemoryOutOfBounds);
}

TEST(DecodeDifferential, DivByZeroAndOverflow) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 4));
  MInstr cdq;
  cdq.op = MOp::kCdq;
  cdq.width = 4;
  f.code.push_back(cdq);
  MInstr div;
  div.op = MOp::kIdiv;
  div.src = Operand::R(Gpr::kRsi);
  div.width = 4;
  f.code.push_back(div);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  EXPECT_EQ(RunBoth(prog, {100, 7}).legacy.ret_i & 0xffffffff, 14u);
  EXPECT_EQ(RunBoth(prog, {100, 0}).legacy.trap, TrapKind::kDivByZero);
  EXPECT_EQ(RunBoth(prog, {0x80000000ull, static_cast<uint64_t>(-1) & 0xffffffff}).legacy.trap,
            TrapKind::kIntegerOverflow);
}

TEST(DecodeDifferential, CallStackExhaustion) {
  MProgram prog;
  MFunction f;
  MInstr call;
  call.op = MOp::kCall;
  call.func = 0;  // self-recursive
  f.code.push_back(call);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  EXPECT_EQ(r.legacy.trap, TrapKind::kCallStackExhausted);
}

TEST(DecodeDifferential, FuelExhaustionOnLoop) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::Jump(0));
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog, {}, /*fuel=*/777);
  EXPECT_EQ(r.legacy.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 778u);
}

TEST(DecodeDifferential, JumpOffTheEndTrapsLikePcOutOfRange) {
  MProgram prog;
  MFunction f;
  f.name = "edge";
  f.code.push_back(MInstr::Jump(2));  // label == code.size(): off the end
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  EXPECT_EQ(r.legacy.trap, TrapKind::kHostError);
  EXPECT_NE(r.legacy.error.find("pc out of range"), std::string::npos);
}

TEST(DecodeDifferential, MemoryGrowAcrossDispatches) {
  MProgram prog;
  prog.memory_pages = 1;
  prog.max_memory_pages = 4;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRdi, 1, 8));  // grow by 1 page
  MInstr grow;
  grow.op = MOp::kCallHost;
  grow.func = kBuiltinMemoryGrow;
  f.code.push_back(grow);
  // Store into the new page, then load it back.
  f.code.push_back(MInstr::MR(MOp::kStore,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 65536 + 16),
                              Gpr::kRdi, 8));
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 65536 + 16), 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 1u);
}

// --- Shifts by cl: specialized handlers, generic semantics ---

TEST(ShiftByCl, HandlersMatchLegacyAtWidthsFourAndEight) {
  // The count is rcx masked to the width (31 or 63), upper bits ignored.
  const uint64_t value = 0x80000001f0000003ull;
  struct Shape {
    MOp op;
    HOp handler;
  };
  const Shape shapes[] = {{MOp::kShl, HOp::kShlRC}, {MOp::kShr, HOp::kShrRC},
                          {MOp::kSar, HOp::kSarRC}};
  for (const Shape& shape : shapes) {
    for (uint8_t width : {uint8_t{4}, uint8_t{8}}) {
      for (uint64_t count : {0ull, 31ull, 32ull, 63ull}) {
        SCOPED_TRACE(StrFormat("%s width %u count %llu", HOpName(shape.handler), width,
                               static_cast<unsigned long long>(count)));
        MProgram prog;
        MFunction f;
        f.code.push_back(MInstr::RI(MOp::kMovImm64, Gpr::kRax, static_cast<int64_t>(value), 8));
        f.code.push_back(
            MInstr::RI(MOp::kMovImm64, Gpr::kRcx, static_cast<int64_t>(count | 0x700), 8));
        MInstr sh;
        sh.op = shape.op;
        sh.dst = Operand::R(Gpr::kRax);
        sh.src2 = Operand::R(Gpr::kRcx);
        sh.width = width;
        f.code.push_back(sh);
        f.code.push_back(Ret());
        prog.funcs.push_back(std::move(f));
        prog.Link();

        DecodedProgram dp = Predecode(prog);
        const DInstr& rec = dp.funcs[0].code[dp.funcs[0].pc_to_index[2]];
        EXPECT_EQ(rec.handler, static_cast<uint16_t>(shape.handler));
        EXPECT_EQ(dp.stats.generic, 0u);

        BothResults r = RunBoth(prog);
        ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
        const uint64_t c = count & (uint64_t{width} * 8 - 1);
        const uint64_t av = TruncToWidth(value, width);
        uint64_t want = shape.op == MOp::kShl   ? av << c
                        : shape.op == MOp::kShr ? av >> c
                                                : static_cast<uint64_t>(SignExtend(av, width) >> c);
        EXPECT_EQ(r.pred.ret_i, TruncToWidth(want, width));
      }
    }
  }
}

// --- Local retire/cycle tallies: visible wherever the counters are read ---

// A run of `n` register ALU records (no memory, no branches).
void AppendAluRun(MFunction* f, int n) {
  for (int i = 0; i < n; i++) {
    f->code.push_back(MInstr::RI(i % 2 == 0 ? MOp::kAdd : MOp::kXor, Gpr::kRax, i + 1, 8));
  }
}

TEST(DecodeDifferential, HostHookSeesLiveCounters) {
  // Hook 0 snapshots counters() mid-run; hook 1 resets them. Both cores must
  // show the hook the same retire count and cycles at every call.
  MProgram prog;
  MFunction f;
  AppendAluRun(&f, 37);
  f.code.push_back(HostCallFor(0));
  AppendAluRun(&f, 12);
  f.code.push_back(HostCallFor(1));
  AppendAluRun(&f, 5);
  f.code.push_back(HostCallFor(0));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  std::vector<std::vector<PerfCounters>> snaps;
  BothResults r = RunBoth(prog, {}, 0, [&snaps](SimMachine& m) {
    snaps.emplace_back();
    size_t run = snaps.size() - 1;
    m.RegisterHost(0, [&snaps, run](SimMachine& sm) { snaps[run].push_back(sm.counters()); });
    m.RegisterHost(1, [](SimMachine& sm) { sm.ResetCounters(); });
  });
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  ASSERT_EQ(snaps.size(), 2u);
  ASSERT_EQ(snaps[0].size(), 2u);
  ASSERT_EQ(snaps[1].size(), 2u);
  for (size_t i = 0; i < 2; i++) {
    EXPECT_EQ(snaps[0][i].instructions_retired, snaps[1][i].instructions_retired) << "call " << i;
    EXPECT_EQ(snaps[0][i].micro_cycles, snaps[1][i].micro_cycles) << "call " << i;
    EXPECT_TRUE(snaps[0][i] == snaps[1][i]) << "call " << i;
  }
  EXPECT_EQ(snaps[1][0].instructions_retired, 38u);  // 37 ALU + the host call
  EXPECT_EQ(snaps[1][1].instructions_retired, 6u);   // counted from the reset
  EXPECT_EQ(r.pred_counters.instructions_retired, 7u);
}

TEST(DecodeDifferential, TrapsAfterLongAluRunKeepTheTallies) {
  // The retire count and cycle charges of a long register-only run must
  // reach counters_ on every exit: an out-of-bounds store and a fuel trap
  // landing in the middle of the run.
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  AppendAluRun(&f, 300);
  f.code.push_back(MInstr::MR(MOp::kStore,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)),
                              Gpr::kRax, 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  BothResults oob = RunBoth(prog, {65536});
  EXPECT_EQ(oob.legacy.trap, TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(oob.pred_counters.instructions_retired, 301u);
  EXPECT_EQ(oob.pred_counters.stores_retired, 0u);

  BothResults fuel = RunBoth(prog, {0}, /*fuel=*/150);
  EXPECT_EQ(fuel.legacy.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(fuel.pred_counters.instructions_retired, 151u);
  EXPECT_GT(fuel.pred_counters.micro_cycles, 0u);
}

// --- Fetch elision: L1i probes predecode proves to be slot-0 hits ---
//
// Functions are linked from address 0, so byte offsets below are fetch
// addresses; kCacheLineSize is 64. The host hook used here resets the caches
// (and counters) mid-run, so a probe wrongly elided after it shows up as a
// missing L1i miss against the legacy core.

MInstr MovAbs(Gpr r, int64_t v) { return MInstr::RI(MOp::kMovImm64, r, v, 8); }

MInstr Nop() {
  MInstr n;
  n.op = MOp::kNop;
  return n;
}

MInstr HostCall(uint32_t id) {
  MInstr c;
  c.op = MOp::kCallHost;
  c.func = id;
  return c;
}

// Appends nops until the next instruction starts `offset` bytes into `f`.
void PadTo(MFunction* f, uint32_t offset) {
  uint32_t at = 0;
  for (const MInstr& in : f->code) {
    at += EncodedSize(in);
  }
  ASSERT_LE(at, offset);
  while (at < offset) {
    f->code.push_back(Nop());
    at++;
  }
}

void RegisterResetHook(SimMachine& m) {
  m.RegisterHost(0, [](SimMachine& sm) { sm.ResetCounters(); });
}

const DInstr& RecordAt(const DecodedProgram& dp, uint32_t func, uint32_t pc) {
  return dp.funcs[func].code[dp.funcs[func].pc_to_index[pc]];
}

TEST(FetchElision, BranchTargetKeepsItsProbe) {
  // The loop head shares line 0 with the record before it, but the back edge
  // reaches it from line 1 after the hook reset the caches: its fetch is a
  // miss there, not a slot-0 hit.
  MProgram prog;
  MFunction f;
  f.code.push_back(MovAbs(Gpr::kRcx, 2));                 // 0: [0,10)
  f.code.push_back(MovAbs(Gpr::kRax, 7));                 // 1: [10,20)
  f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1));  // 2: loop head
  PadTo(&f, 64);
  const uint32_t hook_pc = static_cast<uint32_t>(f.code.size());
  f.code.push_back(HostCall(0));  // line 1
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0));
  f.code.push_back(MInstr::JumpCc(Cond::kNe, 2));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  ASSERT_EQ(prog.funcs[0].instr_offsets[hook_pc], 64u);

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(RecordAt(dp, 0, 1).fetch_lines, 0);  // falls through from pc 0
  EXPECT_EQ(RecordAt(dp, 0, 2).fetch_lines, 1);  // branch target: kept

  // Reset on the first pass only, so the re-entry to the loop head counts.
  BothResults r = RunBoth(prog, {}, 0, [](SimMachine& m) {
    m.RegisterHost(0, [](SimMachine& sm) {
      if (sm.gpr(Gpr::kRcx) != 0) {
        sm.ResetCounters();
      }
    });
  });
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  EXPECT_EQ(r.legacy.ret_i, 7u);
  EXPECT_EQ(r.legacy_counters.l1i_misses, 2u);  // line 1 (cmp), line 0 (loop head)
}

TEST(FetchElision, ReturnSiteKeepsItsProbe) {
  // The return site shares line 0 with its call, but the callee (line 1)
  // reset the caches in between.
  MProgram prog;
  MFunction f0;
  f0.code.push_back(MovAbs(Gpr::kRax, 1));  // 0: [0,10)
  MInstr call;
  call.op = MOp::kCall;
  call.func = 1;
  f0.code.push_back(call);                  // 1: [10,15)
  f0.code.push_back(MovAbs(Gpr::kRax, 2));  // 2: [15,25) return site
  f0.code.push_back(Ret());
  PadTo(&f0, 64);  // dead padding: the callee links on line 1
  MFunction f1;
  f1.code.push_back(HostCall(0));
  f1.code.push_back(Ret());
  prog.funcs.push_back(std::move(f0));
  prog.funcs.push_back(std::move(f1));
  prog.Link();
  ASSERT_EQ(prog.funcs[1].code_base, 64u);

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(RecordAt(dp, 0, 1).fetch_lines, 0);  // the call itself falls in line
  EXPECT_EQ(RecordAt(dp, 0, 2).fetch_lines, 1);  // return site: kept

  BothResults r = RunBoth(prog, {}, 0, RegisterResetHook);
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  EXPECT_EQ(r.legacy.ret_i, 2u);
  EXPECT_EQ(r.legacy_counters.l1i_misses, 2u);  // callee's ret, return site
}

TEST(FetchElision, RecordAfterHostHookKeepsItsProbe) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MovAbs(Gpr::kRax, 1));  // 0: [0,10)
  f.code.push_back(HostCall(0));           // 1: [10,15) resets the caches
  f.code.push_back(MovAbs(Gpr::kRax, 2));  // 2: [15,25)
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(RecordAt(dp, 0, 1).fetch_lines, 0);
  EXPECT_EQ(RecordAt(dp, 0, 2).fetch_lines, 1);  // after a host call: kept
  EXPECT_EQ(RecordAt(dp, 0, 3).fetch_lines, 0);

  BothResults r = RunBoth(prog, {}, 0, RegisterResetHook);
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  EXPECT_EQ(r.legacy.ret_i, 2u);
  EXPECT_EQ(r.legacy_counters.l1i_misses, 1u);  // the record after the hook
}

TEST(FetchElision, RecordOnAStraddlingFetchsLastLineIsElided) {
  MProgram prog;
  MFunction f;
  for (int i = 0; i < 7; i++) {
    f.code.push_back(MovAbs(Gpr::kRax, i));  // pc 6 is [60,70): lines 0 and 1
  }
  f.code.push_back(MovAbs(Gpr::kRax, 99));  // 7: [70,80), line 1
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(RecordAt(dp, 0, 0).fetch_lines, 1);  // record 0
  for (uint32_t pc = 1; pc < 6; pc++) {
    EXPECT_EQ(RecordAt(dp, 0, pc).fetch_lines, 0) << pc;
  }
  EXPECT_EQ(RecordAt(dp, 0, 6).fetch_lines, 2);  // straddles: never elided
  EXPECT_EQ(RecordAt(dp, 0, 7).fetch_lines, 0);  // on the straddle's last line
  EXPECT_EQ(RecordAt(dp, 0, 8).fetch_lines, 0);

  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  EXPECT_EQ(r.legacy.ret_i, 99u);
  EXPECT_EQ(r.legacy_counters.l1i_misses, 2u);
}

TEST(FetchElision, FusedPairInsideOneLineElidesItsSecondFetch) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 50, 8));
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 3, 8));  // 2: loop head
  f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));  // 4: fused with 5
  f.code.push_back(MInstr::JumpCc(Cond::kNe, 2));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  ASSERT_LT(prog.funcs[0].instr_offsets[6], 64u);

  DecodedProgram dp = Predecode(prog);
  ASSERT_EQ(dp.stats.fused_pairs, 1u);
  const DInstr& fused = RecordAt(dp, 0, 4);
  EXPECT_EQ(fused.handler, static_cast<uint16_t>(HOp::kFusedCmpJccRI));
  EXPECT_EQ(fused.fetch_lines, 0);
  EXPECT_EQ(fused.fetch_lines2, 0);
  EXPECT_EQ(RecordAt(dp, 0, 2).fetch_lines, 1);  // loop head is a target

  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok) << r.legacy.error;
  EXPECT_EQ(r.legacy.ret_i, 150u);
  EXPECT_EQ(r.legacy_counters.l1i_misses, 1u);
}

// --- Fixed-width memory moves (bits.h) ---

TEST(Bits, LoadWidthZeroExtendsAndStoreWidthKeepsNeighbours) {
  uint8_t buf[16];
  for (int i = 0; i < 16; i++) {
    buf[i] = static_cast<uint8_t>(0xf0 + i);
  }
  EXPECT_EQ(LoadWidth(buf + 1, 1), 0xf1u);
  EXPECT_EQ(LoadWidth(buf + 1, 2), 0xf2f1u);
  EXPECT_EQ(LoadWidth(buf + 1, 4), 0xf4f3f2f1u);
  EXPECT_EQ(LoadWidth(buf + 1, 8), 0xf8f7f6f5f4f3f2f1ull);

  for (uint8_t width : {1, 2, 4, 8}) {
    SCOPED_TRACE(static_cast<int>(width));
    std::memset(buf, 0xaa, sizeof(buf));
    StoreWidth(buf + 4, 0x1122334455667788ull, width);
    const uint8_t expect[8] = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
    for (int i = 0; i < 16; i++) {
      if (i >= 4 && i < 4 + width) {
        EXPECT_EQ(buf[i], expect[i - 4]) << i;
      } else {
        EXPECT_EQ(buf[i], 0xaa) << i;
      }
    }
  }
}

// --- PolyBench differential through the Engine/Instance path ---

TEST(DecodeDifferential, PolybenchSubsetBitIdentical) {
  engine::EngineConfig config;
  config.cache_dir = "";  // hermetic: no disk tier
  engine::Engine eng(config);
  engine::Session session(&eng);
  for (const char* name : {"bicg", "trisolv", "cholesky", "mvt", "lu", "gesummv"}) {
    SCOPED_TRACE(name);
    WorkloadSpec spec = PolybenchSpec(name);
    engine::CompiledModuleRef code = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
    ASSERT_TRUE(code->ok) << code->error;
    ASSERT_NE(code->decoded_program(), nullptr);

    engine::RunOutcome outcomes[2];
    SimDispatch modes[2] = {SimDispatch::kLegacy, SimDispatch::kPredecoded};
    std::vector<std::pair<std::string, std::vector<uint8_t>>> outputs[2];
    for (int i = 0; i < 2; i++) {
      session.Reset();
      if (spec.setup) {
        spec.setup(session.kernel());
      }
      engine::InstanceOptions iopts;
      iopts.argv = spec.argv;
      iopts.entry = spec.entry;
      iopts.fuel = spec.fuel;
      iopts.dispatch = modes[i];
      std::string err;
      std::unique_ptr<engine::Instance> inst =
          session.Instantiate(code, std::move(iopts), &err);
      ASSERT_NE(inst, nullptr) << err;
      outcomes[i] = inst->Run();
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      for (const std::string& path : spec.output_files) {
        std::vector<uint8_t> bytes;
        session.fs().ReadFile(path, &bytes);
        outputs[i].push_back({path, std::move(bytes)});
      }
    }
    EXPECT_TRUE(outcomes[0].counters == outcomes[1].counters);
    EXPECT_EQ(outcomes[0].exit_code, outcomes[1].exit_code);
    EXPECT_EQ(outcomes[0].stdout_text, outcomes[1].stdout_text);
    EXPECT_EQ(outcomes[0].syscalls, outcomes[1].syscalls);
    EXPECT_EQ(outputs[0], outputs[1]);
  }
}

// --- Buffer pool scrub contract ---

TEST(SimBufferPool, ReusedBuffersAreScrubbedToZero) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  // Dirty the heap and a deep stack slot.
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRdi, 0x1234, 8));
  f.code.push_back(MInstr::MR(MOp::kStore, MemRef::Abs(static_cast<int32_t>(kHeapBase) + 100),
                              Gpr::kRdi, 8));
  MInstr push;
  push.op = MOp::kPush;
  push.dst = Operand::R(Gpr::kRdi);
  f.code.push_back(push);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  SimBufferPool pool;
  {
    SimMachine m(&prog, nullptr, &pool);
    // Stage args like RunAt does (writes the stack outside counters too).
    ASSERT_TRUE(m.Run(0).ok);
    uint64_t bits = 0;
    ASSERT_TRUE(m.HeapRead(100, &bits, 8));
    EXPECT_EQ(bits, 0x1234u);
  }
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    SimMachine m(&prog, nullptr, &pool);
    uint64_t bits = 0xdead;
    ASSERT_TRUE(m.HeapRead(100, &bits, 8));
    EXPECT_EQ(bits, 0u);  // scrubbed on release
    ASSERT_TRUE(m.Run(0).ok);
  }
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(SimBufferPool, PooledRunsAreBitIdenticalToFresh) {
  WorkloadSpec spec = PolybenchSpec("trisolv");
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);
  engine::Session session(&eng);
  engine::CompiledModuleRef code = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;

  PerfCounters first;
  std::string first_out;
  for (int i = 0; i < 3; i++) {
    session.Reset();
    if (spec.setup) {
      spec.setup(session.kernel());
    }
    engine::InstanceOptions iopts;
    iopts.argv = spec.argv;
    iopts.entry = spec.entry;
    std::string err;
    std::unique_ptr<engine::Instance> inst = session.Instantiate(code, std::move(iopts), &err);
    ASSERT_NE(inst, nullptr) << err;
    engine::RunOutcome out = inst->Run();
    ASSERT_TRUE(out.ok) << out.error;
    if (i == 0) {
      first = out.counters;
      first_out = out.stdout_text;
    } else {
      // Reused (scrubbed) buffers must be observationally identical to the
      // fresh allocation of run 0.
      EXPECT_TRUE(out.counters == first);
      EXPECT_EQ(out.stdout_text, first_out);
    }
  }
  EXPECT_GE(session.buffer_pool().reuses(), 2u);
}

// --- Run-history table / LPT estimates (TieringPolicy satellites) ---

TEST(RunHistory, ObservedSecondsPreferredOverProfiledWork) {
  engine::TieringPolicy policy;
  EXPECT_EQ(policy.ObservedRuns("k"), 0u);
  EXPECT_EQ(policy.EstimateSeconds("k"), 0.0);  // cold: FIFO fallback

  policy.RecordRun("k", 2.0);
  policy.RecordRun("k", 4.0);
  EXPECT_EQ(policy.ObservedRuns("k"), 2u);
  EXPECT_DOUBLE_EQ(policy.ObservedSeconds("k"), 3.0);
  EXPECT_DOUBLE_EQ(policy.EstimateSeconds("k"), 3.0);  // observed mean wins
}

TEST(RunHistory, BatchRunsFeedTheTableAndLptUsesIt) {
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);

  std::vector<engine::RunRequest> requests;
  for (const char* name : {"trisolv", "bicg"}) {
    engine::RunRequest req;
    req.spec = PolybenchSpec(name);
    req.options = CodegenOptions::ChromeV8();
    req.reps = 1;
    req.collect_outputs = false;
    requests.push_back(std::move(req));
  }

  engine::ExecutorPool pool(&eng, 2);
  engine::BatchReport cold = pool.Run(requests, engine::SchedulePolicy::kLpt);
  ASSERT_TRUE(cold.all_ok());
  // Nothing observed before the first batch...
  EXPECT_EQ(cold.lpt_observed_requests, 0u);
  // ...but the batch itself populated the history.
  EXPECT_EQ(eng.tiering().ObservedRuns("trisolv"), 1u);
  EXPECT_GT(eng.tiering().ObservedSeconds("trisolv"), 0.0);

  engine::BatchReport warm = pool.Run(requests, engine::SchedulePolicy::kLpt);
  ASSERT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.lpt_observed_requests, requests.size());
  // FIFO never consults the table.
  engine::BatchReport fifo = pool.Run(requests, engine::SchedulePolicy::kFifo);
  ASSERT_TRUE(fifo.all_ok());
  EXPECT_EQ(fifo.lpt_observed_requests, 0u);
}

// --- Decode structure sanity ---

TEST(Predecode, GenericFallbackStaysRare) {
  // On real compiled output the specialized handlers must dominate: the
  // whole point of predecoding is that the per-instruction operand-kind
  // switches disappear from the hot path.
  WorkloadSpec spec = PolybenchSpec("gemm");
  Module module = spec.build();
  CompiledArtifact artifact = BuildArtifact(module, CodegenOptions::ChromeV8());
  ASSERT_TRUE(artifact.ok());
  DecodedProgram dp = Predecode(artifact.program());
  ASSERT_GT(dp.stats.records, 0u);
  EXPECT_GT(dp.stats.fused_pairs, 0u);
  EXPECT_LT(static_cast<double>(dp.stats.generic), 0.10 * static_cast<double>(dp.stats.records))
      << dp.stats.generic << " generic of " << dp.stats.records;

  // Shifts by cl have their own handlers: across the suite, none may lower
  // to kGeneric, and the compiled code must contain some to check.
  size_t by_cl = 0;
  for (const std::string& name : PolybenchKernelNames()) {
    Module module = PolybenchSpec(name).build();
    CompiledArtifact artifact = BuildArtifact(module, CodegenOptions::ChromeV8());
    ASSERT_TRUE(artifact.ok()) << name;
    DecodedProgram dp = Predecode(artifact.program());
    for (const DecodedFunc& df : dp.funcs) {
      for (const DInstr& d : df.code) {
        HOp h = static_cast<HOp>(d.handler);
        by_cl += h == HOp::kShlRC || h == HOp::kShrRC || h == HOp::kSarRC ? 1 : 0;
        if (h != HOp::kGeneric) {
          continue;
        }
        const MInstr& in = *d.orig;
        bool shift = in.op == MOp::kShl || in.op == MOp::kShr || in.op == MOp::kSar;
        EXPECT_FALSE(shift && in.dst.kind == OperandKind::kGpr && !in.src2.is_imm())
            << name << ": " << MInstrToString(in);
      }
    }
  }
  EXPECT_GT(by_cl, 0u);
}

TEST(Predecode, EveryFunctionEndsWithSentinel) {
  WorkloadSpec spec = PolybenchSpec("bicg");
  Module module = spec.build();
  CompiledArtifact artifact = BuildArtifact(module, CodegenOptions::ChromeV8());
  ASSERT_TRUE(artifact.ok());
  DecodedProgram dp = Predecode(artifact.program());
  ASSERT_EQ(dp.funcs.size(), artifact.program().funcs.size());
  for (const DecodedFunc& df : dp.funcs) {
    ASSERT_FALSE(df.code.empty());
    EXPECT_EQ(df.code.back().handler, static_cast<uint16_t>(HOp::kEndOfCode));
  }
}

}  // namespace
}  // namespace nsf
