// Machine-level tests: cache model behaviour, instruction size estimates,
// counter accounting, and hand-assembled programs.
#include "src/machine/machine.h"

#include <gtest/gtest.h>

#include "src/machine/cache.h"

namespace nsf {
namespace {

TEST(CacheModel, HitsAfterFill) {
  CacheModel cache(1024, 64, 2);  // 8 sets x 2 ways
  EXPECT_FALSE(cache.Access(0));   // cold miss
  EXPECT_TRUE(cache.Access(0));    // hit
  EXPECT_TRUE(cache.Access(63));   // same line
  EXPECT_FALSE(cache.Access(64));  // next line
}

TEST(CacheModel, LruEviction) {
  CacheModel cache(1024, 64, 2);
  // Three lines mapping to the same set (stride = sets*line = 512).
  cache.Access(0);
  cache.Access(512);
  EXPECT_TRUE(cache.Access(0));     // keep 0 fresh
  EXPECT_FALSE(cache.Access(1024));  // evicts 512 (LRU)
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(512));   // was evicted
}

TEST(EncodedSize, RoughlyX86Shaped) {
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4)), 2u);
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 8)), 3u);  // +REX.W
  MInstr movimm = MInstr::RI(MOp::kMovImm64, Gpr::kRax, 1ll << 40, 8);
  EXPECT_EQ(EncodedSize(movimm), 10u);
  MInstr ret;
  ret.op = MOp::kRet;
  EXPECT_EQ(EncodedSize(ret), 1u);
  // Memory operand with big displacement costs more than reg-reg.
  MInstr ld = MInstr::RM(MOp::kLoad, Gpr::kRax, MemRef::BaseDisp(Gpr::kRbx, 0x10000), 8);
  EXPECT_GT(EncodedSize(ld), 5u);
}

TEST(MProgram, LinkAssignsAlignedBases) {
  MProgram prog;
  MFunction a;
  a.name = "a";
  a.code.push_back(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4));
  MInstr ret;
  ret.op = MOp::kRet;
  a.code.push_back(ret);
  prog.funcs.push_back(a);
  prog.funcs.push_back(a);
  prog.Link();
  EXPECT_EQ(prog.funcs[0].code_base, 0u);
  EXPECT_EQ(prog.funcs[1].code_base % 16, 0u);
  EXPECT_GT(prog.total_code_bytes, 0u);
}

// Builds a tiny hand-assembled program: f(x) = x*2 + 5 with x in rdi.
TEST(SimMachine, HandAssembledProgram) {
  MProgram prog;
  MFunction f;
  f.name = "f";
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 8));
  MInstr shl;
  shl.op = MOp::kShl;
  shl.dst = Operand::R(Gpr::kRax);
  shl.src2 = Operand::Imm(1);
  shl.width = 8;
  f.code.push_back(shl);
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 5, 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {21});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 47u);
  EXPECT_EQ(m.counters().instructions_retired, 4u);
}

// An instruction straddling two L1i lines whose first line is already cached
// (the previous instruction fetched it) misses only on its second line, and
// L2 must be probed with that second line: cold, so it misses there too.
TEST(SimMachine, StraddlingFetchProbesL2WithMissingLine) {
  MProgram prog;
  MFunction f;
  for (int i = 0; i < 7; i++) {  // 10 bytes each: #6 spans bytes 60..69
    f.code.push_back(MInstr::RI(MOp::kMovImm64, Gpr::kRax, 1ll << 40, 8));
  }
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  ASSERT_EQ(prog.funcs[0].code_base % kCacheLineSize, 0u);
  ASSERT_EQ(prog.funcs[0].instr_offsets[6], 60u);
  ASSERT_EQ(EncodedSize(prog.funcs[0].code[6]), 10u);
  for (SimDispatch dispatch : {SimDispatch::kPredecoded, SimDispatch::kLegacy}) {
    SimMachine m(&prog);
    m.set_dispatch(dispatch);
    ASSERT_TRUE(m.Run(0).ok);
    const PerfCounters& c = m.counters();
    EXPECT_EQ(c.l1i_misses, 2u);
    // Every miss is cold and code lines never alias data lines, so each L1i
    // and L1d miss is also an L2 miss.
    EXPECT_EQ(c.l2_misses, c.l1i_misses + c.l1d_misses);
  }
}

TEST(SimMachine, CountersDistinguishLoadsAndStores) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  // store [heap+8] <- rdi ; load rax <- [heap+8] ; ret
  f.code.push_back(MInstr::MR(MOp::kStore, MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8),
                              Gpr::kRdi, 8));
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {0xabcdef});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 0xabcdefu);
  EXPECT_EQ(m.counters().loads_retired, 1u);
  EXPECT_EQ(m.counters().stores_retired, 1u);
  EXPECT_GE(m.counters().l1d_misses, 1u);  // cold
}

TEST(SimMachine, DivisionTrapsAndConvention) {
  MProgram prog;
  MFunction f;
  // rax = rdi; cdq; idiv rsi -> quotient rax
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
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult ok = m.Run(0, {100, 7});
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.ret_i & 0xffffffff, 14u);
  SimMachine m2(&prog);
  MachineResult bad = m2.Run(0, {100, 0});
  EXPECT_EQ(bad.trap, TrapKind::kDivByZero);
  SimMachine m3(&prog);
  MachineResult ovf = m3.Run(0, {0x80000000ull, static_cast<uint64_t>(-1) & 0xffffffff});
  EXPECT_EQ(ovf.trap, TrapKind::kIntegerOverflow);
}

TEST(SimMachine, OutOfBoundsAccessTraps) {
  MProgram prog;
  prog.memory_pages = 1;  // 64 KiB heap
  MFunction f;
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  EXPECT_TRUE(m.Run(0, {0}).ok);
  SimMachine m2(&prog);
  EXPECT_EQ(m2.Run(0, {65536}).trap, TrapKind::kMemoryOutOfBounds);
}

TEST(SimMachine, FuelLimitStopsRunaway) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::Jump(0));  // infinite loop
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  m.set_fuel(1000);
  EXPECT_EQ(m.Run(0).trap, TrapKind::kFuelExhausted);
}

TEST(SimMachine, TakenBranchesCostMore) {
  // Loop with taken back-edges vs straight-line code of the same length.
  auto build = [](bool loop) {
    MProgram prog;
    MFunction f;
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 100, 8));
    // L: dec rcx (sub 1); cmp; jne L
    f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
    f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));
    f.code.push_back(MInstr::JumpCc(Cond::kNe, loop ? 2 : 5));
    MInstr ret;
    ret.op = MOp::kRet;
    f.code.push_back(ret);
    prog.funcs.push_back(std::move(f));
    prog.Link();
    return prog;
  };
  MProgram looped = build(true);
  SimMachine m(&looped);
  ASSERT_TRUE(m.Run(0).ok);
  EXPECT_EQ(m.counters().taken_branches, 99u);
  EXPECT_EQ(m.counters().cond_branches_retired, 100u);
}

}  // namespace
}  // namespace nsf
