// Pipeline verifiers (src/codegen/verify.h, src/machine/verify_decoded.h):
// hand-built broken programs at each representation must be rejected with a
// precise diagnostic; every real pass pipeline must be verify-clean at every
// boundary; and a disk artifact whose bytes are valid (checksum patched) but
// whose program is not must be rejected by the semantic verifier, counted in
// EngineStats::verify_rejects, and recompiled — never executed.
#include "src/codegen/verify.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <random>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/codegen/codegen.h"
#include "src/engine/engine.h"
#include "src/machine/verify_decoded.h"
#include "src/polybench/polybench.h"
#include "src/support/str.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"

namespace nsf {
namespace {

[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

// --- IR verifier: hand-built broken functions -------------------------------

// A minimal function shell: one int param, int return.
VFunc Shell() {
  VFunc vf;
  vf.name = "broken";
  vf.wasm_index = 0;
  vf.num_params = 1;
  vf.has_ret = true;
  vf.ret_fp = false;
  return vf;
}

VOp Op(VOp::K k) {
  VOp op;
  op.k = k;
  return op;
}

TEST(VerifyIR, CleanFunctionPasses) {
  Module m;
  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  c.imm = 7;
  vf.ops.push_back(c);
  VOp r = Op(VOp::K::kRet);
  r.a = v;
  vf.ops.push_back(r);
  EXPECT_EQ(VerifyIR(vf, m), "");
}

TEST(VerifyIR, DanglingBranchTarget) {
  Module m;
  VFunc vf = Shell();
  vf.next_label = 4;
  VOp br = Op(VOp::K::kBr);
  br.label = 3;  // < next_label, but never bound by a kLabel
  vf.ops.push_back(br);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("undefined label L3"), std::string::npos) << diag;
  EXPECT_NE(diag.find("op #0"), std::string::npos) << diag;
}

TEST(VerifyIR, DuplicateLabel) {
  Module m;
  VFunc vf = Shell();
  vf.next_label = 1;
  VOp l = Op(VOp::K::kLabel);
  l.label = 0;
  vf.ops.push_back(l);
  vf.ops.push_back(l);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("duplicate label L0"), std::string::npos) << diag;
}

TEST(VerifyIR, UseBeforeDefOnSomePath) {
  Module m;
  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  uint32_t cond = vf.NewVReg(false, 4);
  uint32_t join = vf.NewLabel();
  // cond = param0; br_if cond -> join (skipping v's only def); ret v.
  VOp p = Op(VOp::K::kParam);
  p.d = cond;
  p.imm = 0;
  vf.ops.push_back(p);
  VOp brif = Op(VOp::K::kBrIf);
  brif.a = cond;
  brif.label = join;
  vf.ops.push_back(brif);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  c.imm = 1;
  vf.ops.push_back(c);
  VOp l = Op(VOp::K::kLabel);
  l.label = join;
  vf.ops.push_back(l);
  VOp r = Op(VOp::K::kRet);
  r.a = v;
  vf.ops.push_back(r);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("use of v0 before definition"), std::string::npos) << diag;
  // Defining v on both paths makes the same function clean.
  vf.ops.insert(vf.ops.begin(), c);
  EXPECT_EQ(VerifyIR(vf, m), "");
}

TEST(VerifyIR, FpIntClassMismatch) {
  Module m;
  VFunc vf = Shell();
  uint32_t fp = vf.NewVReg(true, 8);
  uint32_t i = vf.NewVReg(false, 4);
  VOp cf = Op(VOp::K::kConstF);
  cf.d = fp;
  vf.ops.push_back(cf);
  VOp ci = Op(VOp::K::kConst);
  ci.d = i;
  vf.ops.push_back(ci);
  VOp bin = Op(VOp::K::kBin);  // int-class add with one fp operand
  bin.wop = Opcode::kI32Add;
  bin.d = i;
  bin.a = i;
  bin.b = fp;
  bin.is_fp = false;
  vf.ops.push_back(bin);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("bin rhs"), std::string::npos) << diag;
  EXPECT_NE(diag.find("fp-class"), std::string::npos) << diag;
}

TEST(VerifyIR, OutOfRangeVReg) {
  Module m;
  VFunc vf = Shell();
  VOp r = Op(VOp::K::kRet);
  r.a = 17;  // no vregs exist
  vf.ops.push_back(r);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("out-of-range vreg v17"), std::string::npos) << diag;
}

TEST(VerifyIR, CallArityMismatch) {
  ModuleBuilder mb("callee");
  auto& f = mb.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  f.I32Const(0);
  Module m = mb.Build();

  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  vf.ops.push_back(c);
  VOp call = Op(VOp::K::kCall);
  call.func = 0;
  call.d = v;
  call.args = {v};  // signature wants two
  vf.ops.push_back(call);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("1 args"), std::string::npos) << diag;
  EXPECT_NE(diag.find("2 params"), std::string::npos) << diag;
}

// --- MProgram verifier: hand-built broken machine code ----------------------

MInstr Plain(MOp op) {
  MInstr i;
  i.op = op;
  return i;
}

MInstr Reg1(MOp op, Gpr r) {
  MInstr i;
  i.op = op;
  i.dst = Operand::R(r);
  return i;
}

MProgram OneFunc(std::vector<MInstr> code, uint32_t frame_slots = 0) {
  MProgram prog;
  MFunction f;
  f.name = "broken";
  f.code = std::move(code);
  f.frame_slots = frame_slots;
  prog.funcs.push_back(std::move(f));
  prog.Link();
  return prog;
}

TEST(VerifyMachine, CleanFunctionPasses) {
  MProgram prog = OneFunc({
      MInstr::RI(MOp::kMov, Gpr::kRax, 42),
      Plain(MOp::kRet),
  });
  EXPECT_EQ(VerifyMachine(prog), "");
}

TEST(VerifyMachine, DanglingBranchTarget) {
  MProgram prog = OneFunc({
      MInstr::Jump(7),  // only 2 instructions
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("branch target 7 out of range"), std::string::npos) << diag;
  EXPECT_NE(diag.find("instr #0"), std::string::npos) << diag;
}

TEST(VerifyMachine, OutOfRangeStackSlot) {
  // frame_slots = 1 permits [rbp-8] only; [rbp-24] is outside the frame.
  MProgram prog = OneFunc(
      {
          MInstr::MR(MOp::kMov, MemRef::BaseDisp(Gpr::kRbp, -24), Gpr::kRdi),
          Plain(MOp::kRet),
      },
      /*frame_slots=*/1);
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("[rbp-24]"), std::string::npos) << diag;
  EXPECT_NE(diag.find("1-slot frame"), std::string::npos) << diag;
}

TEST(VerifyMachine, JccWithoutCompare) {
  // A jcc whose path from entry carries no cmp/test/ucomis: the machine-level
  // half of fused-pair legality (the decoder may only fuse what is legal).
  MProgram prog = OneFunc({
      MInstr::JumpCc(Cond::kE, 1),
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("jcc with no compare state"), std::string::npos) << diag;
}

TEST(VerifyMachine, PhysRegUseBeforeDef) {
  // r12 is not entry-live (only rsp, heap bases, and the six arg registers
  // are) and nothing defines it.
  MProgram prog = OneFunc({
      MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kR12),
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("reads r12 before any definition"), std::string::npos) << diag;
}

TEST(VerifyMachine, CalleeSavePushIsNotAUse) {
  // The prologue/epilogue shape: saving an untouched callee-saved register is
  // legal even though r12 was never defined.
  MProgram prog = OneFunc({
      Reg1(MOp::kPush, Gpr::kR12),
      Reg1(MOp::kPop, Gpr::kR12),
      Plain(MOp::kRet),
  });
  EXPECT_EQ(VerifyMachine(prog), "");
}

TEST(VerifyMachine, LayoutOrderMustBePermutation) {
  MProgram prog = OneFunc({Plain(MOp::kRet)});
  prog.layout_order = {0, 0};
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("layout_order"), std::string::npos) << diag;
}

// --- DecodedProgram cross-checker -------------------------------------------

// cmp rax, 0; je +ret — decodes to a fused record.
MProgram FusablePair() {
  return OneFunc({
      MInstr::RI(MOp::kMov, Gpr::kRax, 1),
      MInstr::RI(MOp::kCmp, Gpr::kRax, 0),
      MInstr::JumpCc(Cond::kE, 4),
      MInstr::RI(MOp::kMov, Gpr::kRax, 2),
      Plain(MOp::kRet),
  });
}

TEST(VerifyDecoded, FreshPredecodePasses) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  ASSERT_GE(dp.stats.fused_pairs, 1u);
  EXPECT_EQ(VerifyDecodedProgram(prog, dp), "");
}

TEST(VerifyDecoded, MisKeyedRecordRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Flip the immediate of the first record (mov rax, 1 -> mov rax, 99): the
  // record no longer round-trips to the MInstr it was decoded from.
  ASSERT_FALSE(dp.funcs[0].code.empty());
  dp.funcs[0].code[0].imm = 99;
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("record #0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("imm"), std::string::npos) << diag;
}

TEST(VerifyDecoded, BadFusedPairRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Find the fused record and corrupt its condition code.
  bool found = false;
  for (DInstr& d : dp.funcs[0].code) {
    HOp h = static_cast<HOp>(d.handler);
    if (h == HOp::kFusedCmpJccRI || h == HOp::kFusedCmpJccRR) {
      d.cond = static_cast<uint8_t>(Cond::kNe);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "expected the cmp+jcc pair to fuse";
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("cond"), std::string::npos) << diag;
}

TEST(VerifyDecoded, DanglingDecodedBranchRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Point the fused branch beyond the decoded stream.
  bool found = false;
  for (DInstr& d : dp.funcs[0].code) {
    HOp h = static_cast<HOp>(d.handler);
    if (h == HOp::kFusedCmpJccRI || h == HOp::kJcc || h == HOp::kJmp) {
      d.target = 1000;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("target 1000 out of range"), std::string::npos) << diag;
}

// --- Back-edge flag (DInstr::kFlagBackEdge) --------------------------------

// mov rcx, 3; loop: sub rcx, 1; cmp rcx, 0; jne loop; ret — the fused
// cmp+jne at record 2 branches back to record 1.
MProgram CountdownLoop() {
  return OneFunc({
      MInstr::RI(MOp::kMov, Gpr::kRcx, 3),
      MInstr::RI(MOp::kSub, Gpr::kRcx, 1),
      MInstr::RI(MOp::kCmp, Gpr::kRcx, 0),
      MInstr::JumpCc(Cond::kNe, 1),
      Plain(MOp::kRet),
  });
}

TEST(VerifyDecoded, BackEdgeFlagMarksOnlyBackwardBranches) {
  MProgram prog = CountdownLoop();
  DecodedProgram dp = Predecode(prog);
  const std::vector<DInstr>& code = dp.funcs[0].code;
  ASSERT_EQ(code.size(), 5u);  // mov, sub, fused cmp+jne, ret, sentinel
  EXPECT_EQ(code[2].handler, static_cast<uint16_t>(HOp::kFusedCmpJccRI));
  for (size_t i = 0; i < code.size(); i++) {
    EXPECT_EQ((code[i].flags & DInstr::kFlagBackEdge) != 0, i == 2) << "record " << i;
  }
  EXPECT_EQ(VerifyDecodedProgram(prog, dp), "");
  // The forward fused branch of FusablePair is not a back edge.
  MProgram fwd = FusablePair();
  DecodedProgram fdp = Predecode(fwd);
  for (const DInstr& d : fdp.funcs[0].code) {
    EXPECT_EQ(d.flags & DInstr::kFlagBackEdge, 0);
  }
}

TEST(VerifyDecoded, BackEdgeFlagOnNonBranchRejected) {
  MProgram prog = CountdownLoop();
  DecodedProgram dp = Predecode(prog);
  dp.funcs[0].code[1].flags |= DInstr::kFlagBackEdge;
  EXPECT_EQ(VerifyDecodedProgram(prog, dp),
            "decoded func 'broken' (#0) record #1 [SubRI]: back-edge flag on a record that does "
            "not branch");
}

TEST(VerifyDecoded, BackEdgeFlagOnForwardBranchRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  DInstr& fused = dp.funcs[0].code[1];
  ASSERT_EQ(fused.handler, static_cast<uint16_t>(HOp::kFusedCmpJccRI));
  fused.flags |= DInstr::kFlagBackEdge;
  EXPECT_EQ(VerifyDecodedProgram(prog, dp),
            StrFormat("decoded func 'broken' (#0) record #1 [FusedCmpJccRI]: back-edge flag on a "
                      "forward branch to record %u",
                      fused.target));
}

TEST(VerifyDecoded, BackwardBranchWithoutFlagRejected) {
  MProgram prog = CountdownLoop();
  DecodedProgram dp = Predecode(prog);
  dp.funcs[0].code[2].flags &= static_cast<uint8_t>(~DInstr::kFlagBackEdge);
  EXPECT_EQ(VerifyDecodedProgram(prog, dp),
            "decoded func 'broken' (#0) record #2 [FusedCmpJccRI]: backward branch to record 1 "
            "lacks the back-edge flag");
}

// --- Fetch elision rule (fetch_lines / fetch_lines2 == 0) ------------------
//
// The verifier restates the elision rule on its own, so a bug in Predecode's
// rule cannot verify clean just because a fresh predecode repeats it. The
// layout below (one function linked at address 0, 64-byte lines) puts a
// candidate for every violation at a known line position.

// Appends nops until the next instruction starts `offset` bytes in.
void PadTo(std::vector<MInstr>* code, uint32_t offset) {
  uint32_t at = 0;
  for (const MInstr& in : *code) {
    at += EncodedSize(in);
  }
  while (at < offset) {
    code->push_back(Plain(MOp::kNop));
    at++;
  }
}

struct ElisionLayout {
  MProgram prog;
  uint32_t new_line_pc = 0;  // single-line fetch that starts line 1
  uint32_t straddle_pc = 0;  // fetch spanning lines 1 and 2
  uint32_t pair_new_line_pc = 0;  // fused cmp whose jcc starts line 3
  uint32_t pair_straddle_pc = 0;  // fused cmp whose jcc spans lines 3 and 4
};

ElisionLayout MakeElisionLayout() {
  ElisionLayout l;
  const MInstr cmp = MInstr::RI(MOp::kCmp, Gpr::kRax, 0);
  std::vector<MInstr> code = {
      MInstr::RI(MOp::kMovImm64, Gpr::kRax, 1),   // 0: [0,10)
      MInstr::JumpCc(Cond::kE, 2),                // 1: falls through to 2
      MInstr::RI(MOp::kMovImm64, Gpr::kRax, 2),   // 2: branch target
      MInstr::Jump(5),                            // 3
      MInstr::RI(MOp::kMovImm64, Gpr::kRax, 3),   // 4: after a jmp
      MInstr::RM(MOp::kLoad, Gpr::kRax, MemRef::Abs(0)),  // 5: memory operand
  };
  PadTo(&code, 64);
  l.new_line_pc = static_cast<uint32_t>(code.size());
  code.push_back(MInstr::RI(MOp::kMovImm64, Gpr::kRax, 4));
  PadTo(&code, 124);
  l.straddle_pc = static_cast<uint32_t>(code.size());
  code.push_back(MInstr::RI(MOp::kMovImm64, Gpr::kRax, 5));
  PadTo(&code, 192 - EncodedSize(cmp));
  l.pair_new_line_pc = static_cast<uint32_t>(code.size());
  code.push_back(cmp);
  code.push_back(MInstr::JumpCc(Cond::kNe, 5));
  PadTo(&code, 254 - EncodedSize(cmp));
  l.pair_straddle_pc = static_cast<uint32_t>(code.size());
  code.push_back(cmp);
  code.push_back(MInstr::JumpCc(Cond::kNe, 5));
  code.push_back(Plain(MOp::kRet));
  l.prog = OneFunc(std::move(code));
  return l;
}

DInstr& RecordAt(DecodedProgram& dp, uint32_t pc) {
  return dp.funcs[0].code[dp.funcs[0].pc_to_index[pc]];
}

std::string RecordDiag(DecodedProgram& dp, uint32_t pc, const char* msg) {
  return StrFormat("decoded func 'broken' (#0) record #%u [%s]: %s", dp.funcs[0].pc_to_index[pc],
                   HOpName(static_cast<HOp>(RecordAt(dp, pc).handler)), msg);
}

TEST(VerifyDecoded, ElisionLayoutPredecodesClean) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  ASSERT_EQ(dp.stats.fused_pairs, 2u);
  EXPECT_EQ(RecordAt(dp, 0).fetch_lines, 1);
  EXPECT_EQ(RecordAt(dp, 1).fetch_lines, 0);
  EXPECT_EQ(RecordAt(dp, 2).fetch_lines, 1);
  EXPECT_EQ(RecordAt(dp, 4).fetch_lines, 1);
  EXPECT_EQ(RecordAt(dp, l.new_line_pc).fetch_lines, 1);
  EXPECT_EQ(RecordAt(dp, l.straddle_pc).fetch_lines, 2);
  EXPECT_EQ(RecordAt(dp, l.pair_new_line_pc).fetch_lines, 0);
  EXPECT_EQ(RecordAt(dp, l.pair_new_line_pc).fetch_lines2, 1);
  EXPECT_EQ(RecordAt(dp, l.pair_straddle_pc).fetch_lines2, 2);
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp), "");
}

TEST(VerifyDecoded, ElidedFetchOnRecordZeroRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, 0).fetch_lines = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, 0, "elided fetch on record 0, which has no predecessor"));
}

TEST(VerifyDecoded, ElidedFetchOnBranchTargetRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, 2).fetch_lines = 0;  // same line as the jcc it falls through from
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, 2, "elided fetch on a branch target (pc 2)"));
}

TEST(VerifyDecoded, ElidedFetchAfterJmpRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, 4).fetch_lines = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, 4, "elided fetch after a Jmp record, which does not fall through"));
}

TEST(VerifyDecoded, ElidedFetchSpanningTwoLinesRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, l.straddle_pc).fetch_lines = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, l.straddle_pc, "elided fetch spans more than one L1i line"));
}

TEST(VerifyDecoded, ElidedFetchOfAnotherLineRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, l.new_line_pc).fetch_lines = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, l.new_line_pc,
                       "elided fetch of line 1, but the previous record last fetched line 0"));
}

TEST(VerifyDecoded, ElidedSecondFetchSpanningTwoLinesRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, l.pair_straddle_pc).fetch_lines2 = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, l.pair_straddle_pc,
                       "elided second fetch spans more than one L1i line"));
}

TEST(VerifyDecoded, ElidedSecondFetchOfAnotherLineRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, l.pair_new_line_pc).fetch_lines2 = 0;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, l.pair_new_line_pc,
                       "elided second fetch of line 3, but the primary last fetched line 2"));
}

TEST(VerifyDecoded, MemoryOperandWidthOutsideOneTwoFourEightRejected) {
  ElisionLayout l = MakeElisionLayout();
  DecodedProgram dp = Predecode(l.prog);
  RecordAt(dp, 5).width = 3;
  EXPECT_EQ(VerifyDecodedProgram(l.prog, dp),
            RecordDiag(dp, 5, "memory-operand width 3 is not 1, 2, 4 or 8"));
}

// --- Pass pipelines are verify-clean at every boundary ----------------------

// Random-but-reproducible option mutations over the named profile factories:
// CompileModule runs the IR verifier after every pass, the machine verifier
// after emit+link, and the engine-free decoded check here — any pass that
// breaks an invariant fails the compile with a diagnostic.
TEST(VerifyPipeline, PolybenchCleanUnderRandomizedPassPipelines) {
  std::mt19937 rng(20260807);
  std::vector<CodegenOptions (*)()> factories = {
      &CodegenOptions::NativeClang, &CodegenOptions::ChromeV8, &CodegenOptions::FirefoxSM,
      &CodegenOptions::ChromeAsmJs, &CodegenOptions::FirefoxAsmJs,
  };
  std::vector<std::string> kernels = PolybenchKernelNames();
  ASSERT_FALSE(kernels.empty());
  std::shuffle(kernels.begin(), kernels.end(), rng);
  kernels.resize(std::min<size_t>(kernels.size(), 6));

  for (const std::string& name : kernels) {
    Module m = PolybenchSpec(name).build();
    for (int trial = 0; trial < 4; trial++) {
      CodegenOptions options = factories[rng() % factories.size()]();
      options.verify_ir = true;
      options.extra_opt_passes = rng() % 3;
      if (rng() % 2 == 0) {
        options.rotate_loops = !options.rotate_loops;
      }
      if (rng() % 2 == 0) {
        options.fuse_addressing = !options.fuse_addressing;
      }
      CompileResult cr = CompileModule(m, options);
      ASSERT_TRUE(cr.ok) << name << " [" << options.profile_name
                         << " extra=" << options.extra_opt_passes
                         << " rotate=" << options.rotate_loops
                         << " fuse=" << options.fuse_addressing << "]: " << cr.error;
      // And the decoded form round-trips.
      DecodedProgram dp = Predecode(cr.program);
      EXPECT_EQ(VerifyDecodedProgram(cr.program, dp), "") << name;
    }
  }
}

// A pass that DOES corrupt the IR is caught and named. kBin with a dangling
// operand injected right after lowering simulates a broken pass.
TEST(VerifyPipeline, CompileFailsWithPassDiagnostic) {
  ModuleBuilder mb("bad");
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  Module m = mb.Build();
  VFunc vf = LowerFunction(m, 0, CodegenOptions::NativeClang());
  // Sanity: lowering itself is clean...
  EXPECT_EQ(VerifyIR(vf, m), "");
  // ...and a corrupted function is not.
  VOp bad;
  bad.k = VOp::K::kBr;
  bad.label = 12345;
  vf.ops.insert(vf.ops.begin(), bad);
  EXPECT_NE(VerifyIR(vf, m), "");
}

// --- Disk tier: semantic rejection of checksum-valid artifacts --------------

struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("nsf-verify-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

engine::EngineConfig DiskConfig(const std::string& dir) {
  engine::EngineConfig config;
  config.cache_dir = dir;
  config.disk_cache_max_bytes = 0;
  return config;
}

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

TEST(VerifyDisk, ChecksumPatchedCorruptionIsRejectedAndRecompiled) {
  TempCacheDir dir("semantic");
  Module m = SumSquaresModule();
  CodegenOptions options = CodegenOptions::ChromeV8();
  uint64_t hash = HashModule(m);
  uint64_t fp = options.Fingerprint();
  std::string path;

  {
    engine::Engine writer(DiskConfig(dir.path));
    engine::CompiledModuleRef cm = writer.Compile(m, options);
    ASSERT_TRUE(cm->ok) << cm->error;
    path = writer.cache().disk().PathForKey(hash, fp);
    ASSERT_TRUE(std::filesystem::exists(path));
  }

  // "Bit-flip" the PROGRAM (not the bytes): deserialize the stored artifact,
  // break a branch target, and re-serialize — SerializeArtifact computes a
  // fresh checksum, so the file is byte-level valid but semantically broken.
  // Only the semantic verifier can catch this.
  {
    std::vector<uint8_t> bytes;
    {
      FILE* fh = fopen(path.c_str(), "rb");
      ASSERT_NE(fh, nullptr);
      fseek(fh, 0, SEEK_END);
      bytes.resize(static_cast<size_t>(ftell(fh)));
      fseek(fh, 0, SEEK_SET);
      ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), fh), bytes.size());
      fclose(fh);
    }
    CompiledArtifact artifact;
    std::string error;
    ASSERT_TRUE(DeserializeArtifact(bytes, &artifact, &error)) << error;
    MInstr bad;
    bad.op = MOp::kJmp;
    bad.label = 1u << 30;
    artifact.compiled.program.funcs.back().code.push_back(bad);
    artifact.compiled.program.Link();
    std::vector<uint8_t> patched = SerializeArtifact(artifact);
    FILE* fh = fopen(path.c_str(), "wb");
    ASSERT_NE(fh, nullptr);
    ASSERT_EQ(fwrite(patched.data(), 1, patched.size(), fh), patched.size());
    fclose(fh);
  }

  // A fresh engine must reject the artifact semantically, delete it, count
  // the reject, and serve a recompile — never the poisoned program.
  {
    engine::Engine reader(DiskConfig(dir.path));
    engine::CompiledModuleRef cm = reader.Compile(m, options);
    ASSERT_TRUE(cm->ok) << cm->error;
    EXPECT_FALSE(cm->from_disk);
    engine::EngineStats stats = reader.Stats();
    EXPECT_EQ(stats.verify_rejects, 1u);
    EXPECT_EQ(stats.compiles, 1u);
    // The rejected file was deleted and the recompile re-stored a clean one:
    // a third engine loads it from disk without incident.
    engine::Engine third(DiskConfig(dir.path));
    engine::CompiledModuleRef again = third.Compile(m, options);
    ASSERT_TRUE(again->ok);
    EXPECT_TRUE(again->from_disk);
    EXPECT_EQ(third.Stats().verify_rejects, 0u);
  }
}

}  // namespace
}  // namespace nsf
